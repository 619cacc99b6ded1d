"""Per-layer counters, installed from outside the package.

The layers are the package's modules.  ``Tracer.install`` replaces each
function listed in ``WRAPPED`` with a wrapper, in the module that defines
it and in every module that imported it, so calls from one module into
another (and a module's calls to its own top-level functions by name) go
through the wrapper.  A wrapper counts the call and times it; a layer's
self time is its time minus the time of the wrapped calls made inside it.
Nested activations of one function count their time once.

The bit helpers (``bits``, ``mask_of``) and the one-line graph queries are
left unwrapped: each call takes well under a microsecond, so a wrapper
would cost more than the work it measures.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

WRAPPED = (
    ("graph", "components_with_certificates"),
    ("graph", "certified_result"),
    ("recognition", "enumerate_induced_p4"),
    ("recognition", "find_induced_p4"),
    ("recognition", "find_triangle"),
    ("recognition", "neighborhood_partition"),
    ("recognition", "is_class_member"),
    ("bipartite", "solve_cb_components"),
    ("bipartite", "cb_weight_mask"),
    ("split_solver", "_solve_raw"),
    ("split_solver", "_certified_members"),
    ("split_solver", "branch_via_bipartial"),
    ("constrained", "solve_containing_ac"),
    ("constrained", "solve_containing_bd"),
    ("solver", "solve"),
    ("solver", "solve_with_cover"),
    ("testkit", "gen_instance"),
)

_ENTRY_POINTS = ("solver.solve", "solver.solve_with_cover")


class _Stat:
    __slots__ = ("calls", "total", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.active = 0


class Tracer:
    """Counts and times the wrapped calls of one process."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.p4_paths = 0
        self.max_depth = 0
        self.cwc_hosts: set[int] = set()
        self.raw_keys: set[tuple[int, int, int]] = set()
        self.cwc_distinct = 0
        self.raw_distinct = 0
        self._child_time = [0.0]
        self._undo: list[tuple[object, str, object]] = []
        self.enabled = True

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        child_time = self._child_time
        entry = name in _ENTRY_POINTS
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if name == "graph.components_with_certificates":
                tracer.cwc_hosts.add(args[1])
            elif name == "split_solver._solve_raw":
                tracer.raw_keys.add((args[1], args[2], args[3]))
                if args[4] > tracer.max_depth:
                    tracer.max_depth = args[4]
            stat.calls += 1
            stat.active += 1
            child_time.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                inner = child_time.pop()
                child_time[-1] += spent
                stat.self_time += spent - inner
                stat.active -= 1
                if not stat.active:
                    stat.total += spent
                if entry:
                    tracer._end_solve()
            if name == "recognition.enumerate_induced_p4":
                tracer.p4_paths += len(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        modules = [
            m
            for key, m in sys.modules.items()
            if key == package.__name__ or key.startswith(package.__name__ + ".")
        ]
        for mod_name, fn_name in WRAPPED:
            home = sys.modules[f"{package.__name__}.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for m in modules:
                if m.__dict__.get(fn_name) is original:
                    self._undo.append((m, fn_name, original))
                    setattr(m, fn_name, wrapper)

    @contextmanager
    def paused(self):
        """Leave uncounted the calls the benchmark makes to check outputs."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def uninstall(self) -> None:
        for m, fn_name, original in reversed(self._undo):
            setattr(m, fn_name, original)
        self._undo.clear()

    def _end_solve(self) -> None:
        """Close the distinct-key sets of the solve that just ended."""
        self.cwc_distinct += len(self.cwc_hosts)
        self.raw_distinct += len(self.raw_keys)
        self.cwc_hosts.clear()
        self.raw_keys.clear()

    def _get(self, name: str) -> _Stat:
        return self.stats.get(name) or _Stat()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics as name -> (value, unit)."""
        cwc = self._get("graph.components_with_certificates")
        raw = self._get("split_solver._solve_raw")
        certified = self._get("graph.certified_result")
        bvb = self._get("split_solver.branch_via_bipartial")
        ac = self._get("constrained.solve_containing_ac")
        fp4 = self._get("recognition.find_induced_p4")
        cb = self._get("bipartite.solve_cb_components")
        return {
            "graph.cwc_calls": (cwc.calls, "count"),
            "graph.cwc_distinct_hosts": (self.cwc_distinct, "count"),
            "graph.cwc_distinct_ratio": (self.cwc_distinct / max(1, cwc.calls), "ratio"),
            "graph.cwc_self_s": (cwc.self_time, "s"),
            "graph.certified_result_calls": (certified.calls, "count"),
            "graph.certified_result_self_s": (certified.self_time, "s"),
            "split_solver.solve_raw_calls": (raw.calls, "count"),
            "split_solver.solve_raw_distinct_keys": (self.raw_distinct, "count"),
            "split_solver.solve_raw_distinct_ratio": (
                self.raw_distinct / max(1, raw.calls),
                "ratio",
            ),
            "split_solver.solve_raw_self_s": (raw.self_time, "s"),
            "split_solver.max_depth": (self.max_depth, "count"),
            "split_solver.branch_via_bipartial_calls": (bvb.calls, "count"),
            "split_solver.branch_via_bipartial_self_s": (bvb.self_time, "s"),
            "constrained.solve_containing_ac_calls": (ac.calls, "count"),
            "constrained.solve_containing_ac_s": (ac.total, "s"),
            "constrained.solve_containing_ac_self_s": (ac.self_time, "s"),
            "recognition.p4_paths": (self.p4_paths, "count"),
            "recognition.enumerate_induced_p4_s": (
                self._get("recognition.enumerate_induced_p4").total,
                "s",
            ),
            "recognition.find_induced_p4_calls": (fp4.calls, "count"),
            "recognition.find_induced_p4_self_s": (fp4.self_time, "s"),
            "recognition.neighborhood_partition_self_s": (
                self._get("recognition.neighborhood_partition").self_time,
                "s",
            ),
            "recognition.is_class_member_s": (
                self._get("recognition.is_class_member").total,
                "s",
            ),
            "bipartite.solve_cb_components_calls": (cb.calls, "count"),
            "bipartite.solve_cb_components_s": (cb.total, "s"),
            "testkit.gen_instance_s": (self._get("testkit.gen_instance").total, "s"),
        }

    def table(self) -> dict[str, dict[str, float]]:
        """Calls, time and self time of every wrapped function."""
        return {
            name: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
            for name, s in sorted(self.stats.items())
        }
