"""Benchmark of p4p4free: exact solve, cover family and refusal.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S      # every workload

One workload runs in one process; without ``--workload`` each workload
runs in a fresh child process.  A run imports the package from ``src/``
next to this directory, warms up on a graph outside the corpus, and then
runs whole rounds.  A round builds a fresh corpus (timed: the set-up) and
calls ``solve``, ``solve_with_cover`` and ``is_class_member`` once per
graph, timing each call; the outputs are checked against ``reference.py``
and dropped.

Every time is reported in reference seconds: the measured time times the
machine's speed factor at that moment (``Speed``), which a fixed probe of
the benchmark's own code measures at most 30 ms before each call.  On the
shared 2-CPU box the benchmark was tuned on, plain Python code runs at
speeds up to half apart for stretches of seconds to minutes, and raw
times followed them.  ``solve_s`` is the sum over the corpus of each
graph's mean time over the rounds, ``solve_p50_ms`` and ``solve_tail_ms``
the median and tail of those per-graph means.  The raw times and the
factors stay in the record.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with every
round's times, the failure kinds and the per-function trace table, goes to
``perfbench/out/``.  With ``--trace 1`` the run makes the first round
twice, untraced and then traced, and reports the per-layer metrics of the
traced one (see layers.py); ``trace.overhead`` is the ratio of their solve
times.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import reference  # noqa: E402
from layers import Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """What one workload solves and how its outputs are judged.

    ``round_s`` is the wall time of one round (set-up, calls and checks)
    on the reference 2-CPU box; a run makes ``--seconds / round_s`` whole
    rounds, at least three, so the number of operations depends only on
    ``--seconds``.
    """

    name: str
    make: Callable  # (package, seed, round) -> list of graphs
    round_s: float
    member: bool
    all_sets: bool = False
    jobs: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scale",
            lambda p4, seed, r: corpus.member_corpus(p4, corpus.SCALE_DESIGN, seed, r),
            round_s=5.0,
            member=True,
        ),
        Workload(
            "branchy",
            lambda p4, seed, r: corpus.member_corpus(p4, corpus.BRANCHY_DESIGN, seed, r),
            round_s=3.8,
            member=True,
            all_sets=True,
        ),
        Workload(
            "scale_jobs2",
            lambda p4, seed, r: corpus.member_corpus(p4, corpus.SCALE_DESIGN, seed, r),
            round_s=6.0,
            member=True,
            jobs=2,
        ),
        Workload(
            "refuse",
            lambda p4, seed, r: corpus.refuse_corpus(p4, reference.is_non_member, seed, r),
            round_s=1.65,
            member=False,
        ),
    )
}

GREEDY_SETS = 8


class Speed:
    """The machine's current speed at plain Python, as the factor that
    turns a measured time into reference seconds.

    The probe is fixed work in the benchmark's own code: the exact optimum
    of four fixed random graphs by ``reference.optimum_weight``, which takes
    ``PROBE_REF_S`` on the reference box at its faster speed.  No change to
    the package can move it.  It runs again whenever ``PROBE_EVERY_S`` have
    passed since the last probe, so every timed call is scaled by a speed
    measured at most that long before it.
    """

    PROBE_REF_S = 0.001
    PROBE_EVERY_S = 0.03

    def __init__(self, p4):
        self.graphs = [corpus.random_graph(p4.Graph, 5000 + i, 22, 0.15) for i in range(4)]
        self.last = float("-inf")
        self.factor = 1.0

    def probe(self) -> float:
        start = perf_counter()
        for g in self.graphs:
            reference.optimum_weight(g)
        self.last = perf_counter()
        self.factor = self.PROBE_REF_S / (self.last - start)
        return self.factor

    def now(self) -> float:
        if perf_counter() - self.last > self.PROBE_EVERY_S:
            return self.probe()
        return self.factor


def load_package():
    """Import p4p4free from the checkout's src/ and time the import."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    start = perf_counter()
    try:
        import p4p4free
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import p4p4free from {src}: {err}")
    import_s = perf_counter() - start
    if not os.path.abspath(p4p4free.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: p4p4free was not imported from {src}")
    return p4p4free, import_s


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.errors: list[str] = []

    def fail(self, kind: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1

    def error(self, where: str, message: str | None) -> None:
        if message is not None:
            self.errors.append(f"{where}: {message}")


KNOWN_FAULTS = ("side_split_blocks", "unexpected_p4")


def judge_refusal(p4, wl, g, outcomes, rng, tally, record, where):
    """A non-member: the benchmark's own scan proves it, and ``solve`` and
    ``solve_with_cover`` raise ClassViolation with a witness that checks."""
    if not reference.is_non_member(g):
        tally.error(where, "refusal input is a class member")
    for what, (kind, value) in zip(("solve", "cover"), outcomes):
        if kind == "ok":
            tally.error(f"{where} {what}", "returned an answer for a non-member")
            continue
        witness = value.witness
        label = witness[0] if isinstance(witness, tuple) and witness else None
        if label in KNOWN_FAULTS:
            tally.fail(label)
        elif isinstance(value, p4.ClassViolation):
            tally.error(f"{where} {what}", reference.check_witness(g, witness))
        else:
            tally.error(f"{where} {what}", f"{type(value).__name__}: {value}")
    kind, verdict = outcomes[2]
    if kind != "ok" or verdict.is_member:
        tally.error(where, "is_class_member accepts a non-member")
    elif verdict.triangle:
        tally.error(where + " check", reference.check_witness(g, ("triangle", verdict.triangle)))
    else:
        tally.error(where + " check", reference.check_witness(g, ("p4_pair", verdict.p4_pair)))


def judge_member(p4, wl, g, outcomes, rng, tally, record, where):
    """A member: both answers are optimal independent sets, the cover is
    bipartite and holds the optimum and seeded greedy maximal independent
    sets (every maximal one on ``branchy``), and the recognizer accepts."""
    solved, covered, verdict = outcomes
    for what, (kind, value) in (("solve", solved), ("cover", covered)):
        if kind != "ok":
            witness = value.witness
            label = witness[0] if isinstance(witness, tuple) and witness else None
            tally.fail(f"{what}:{type(value).__name__}:{label}")
    if verdict[0] != "ok" or not verdict[1].is_member:
        tally.error(where, "is_class_member rejects a class member")
    if solved[0] != "ok" or covered[0] != "ok":
        return
    optimum = reference.optimum_weight(g)
    res = solved[1]
    tally.error(where + " solve", reference.check_answer(g, res.weight, res.chosen, optimum))
    cres, family = covered[1]
    tally.error(where + " cover", reference.check_answer(g, cres.weight, cres.chosen, optimum))
    sets = [sum(1 << v for v in res.chosen)]
    sets += reference.greedy_maximal_sets(g, rng, GREEDY_SETS)
    if wl.all_sets:
        sets += reference.all_maximal_sets(g)
    tally.error(where + " cover", reference.check_cover(g, family.members, sets))
    record["cover_members"][-1] += len(family.members)
    if wl.jobs > 1:
        serial = p4.solve(g)
        if (res.weight, res.chosen) != (serial.weight, serial.chosen):
            tally.error(where, f"the jobs={wl.jobs} answer differs from the serial one")


def run_round(p4, wl, seed, r, tally, record, speed, tracer=None):
    """Build a fresh corpus (the timed set-up), then for each graph time
    ``solve``, ``solve_with_cover`` and ``is_class_member`` once, check the
    three outputs and drop them.

    Taking the three calls in turn on every graph, rather than one pass
    after another, spreads each call's samples over the whole round, so a
    slow spell of the machine weighs on all of them alike.  The corpus is
    frozen out of the collector's reach during the round, so collections
    cost what the program's own allocations make them cost.
    """
    gc.collect()
    before = speed.probe()
    round_start = perf_counter()
    graphs = wl.make(p4, seed, r)
    setup_s = perf_counter() - round_start
    record["setup_s"].append(setup_s * (before + speed.probe()) / 2)
    record["raw_setup_s"].append(setup_s)

    errors = (p4.ClassViolation, p4.StructureViolation)
    calls = (
        functools.partial(p4.solve, jobs=wl.jobs),
        functools.partial(p4.solve_with_cover, jobs=wl.jobs),
        p4.is_class_member,
    )
    judge = judge_member if wl.member else judge_refusal
    rng = corpus.Rng(corpus.mix(seed, r, 3))
    times = ([], [], [])
    factors = ([], [], [])
    record["cover_members"].append(0)
    gc.collect()
    gc.freeze()
    try:
        for i, g in enumerate(graphs):
            outcomes = []
            for fn, spent, factor in zip(calls, times, factors):
                factor.append(speed.now())
                start = perf_counter()
                try:
                    out = ("ok", fn(g))
                except errors as err:
                    err.__traceback__ = None
                    out = ("raised", err)
                spent.append(perf_counter() - start)
                outcomes.append(out)
            with tracer.paused() if tracer else contextlib.nullcontext():
                judge(p4, wl, g, outcomes, rng, tally, record, f"round {r} graph {i}")
    finally:
        gc.unfreeze()
    tally.attempted += 3 * len(graphs)
    record["graph_times"].append(times)
    record["graph_factors"].append(factors)
    record["round_wall_s"].append(perf_counter() - round_start)


def tail(values):
    """(percentile, value): the highest of 99, 95, 90, 75 with at least ten
    samples above it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99, 95, 90, 75):
        if n * (100 - q) >= 1000:
            return q, ordered[-(-q * n // 100) - 1]
    raise ValueError(f"{n} samples are too few for a tail")


def warm_up(p4, jobs):
    g = p4.gen_instance("clustered", 24, 0.5, 424_242)
    p4.solve(g, jobs=jobs)
    p4.solve_with_cover(g, jobs=jobs)
    p4.is_class_member(g)
    bad = corpus.random_graph(p4.Graph, 424_242, 12, 0.3)
    try:
        p4.solve(bad)
    except (p4.ClassViolation, p4.StructureViolation):
        pass


def scaled_times(record, call):
    """Per round, the reference-second time of ``call`` on every graph."""
    return [
        [t * f for t, f in zip(times[call], factors[call])]
        for times, factors in zip(record["graph_times"], record["graph_factors"])
    ]


def run_workload(wl, seed, seconds, trace):
    p4, import_s = load_package()
    speed = Speed(p4)
    import_s *= speed.probe()
    warm_up(p4, wl.jobs)
    tally = Tally()
    record = {k: [] for k in (
        "setup_s", "raw_setup_s", "cover_members", "round_wall_s", "graph_times", "graph_factors"
    )}
    if trace:
        rounds = 2
        run_round(p4, wl, seed, 0, tally, record, speed)
        tracer = Tracer()
        tracer.install(p4)
        try:
            run_round(p4, wl, seed, 0, tally, record, speed, tracer)
        finally:
            tracer.uninstall()
    else:
        rounds = max(3, round(seconds / wl.round_s))
        for r in range(rounds):
            run_round(p4, wl, seed, r, tally, record, speed)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        untraced, traced = (sum(times) for times in scaled_times(record, 0))
        metrics = tracer.metrics()
        metrics["solver.cover_members"] = (record["cover_members"][-1], "count")
        metrics["trace.overhead"] = (traced / untraced, "ratio")
    else:
        # for every call (solve, cover, check) and graph: the mean of its rounds
        per_graph = [
            [statistics.mean(per_round) for per_round in zip(*scaled_times(record, call))]
            for call in range(3)
        ]
        q, tail_s = tail(per_graph[0])
        metrics = {
            "setup_s": (import_s + statistics.median(record["setup_s"]), "s"),
            "solve_s": (sum(per_graph[0]), "s"),
            "solve_p50_ms": (1000 * statistics.median(per_graph[0]), "ms"),
            "solve_tail_ms": (1000 * tail_s, "ms"),
            "cover_s": (sum(per_graph[1]), "s"),
            "check_s": (sum(per_graph[2]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    failed = sum(tally.failures.values())
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": rounds,
        "import_s": import_s,
        "failures": tally.failures,
        "errors": tally.errors[:50],
        "record": record,
        "result": result,
    }
    if not trace:
        details["tail_percentile"] = q
    if trace:
        details["trace_table"] = tracer.table()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{wl.name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
    for message in tally.errors[:10]:
        print(f"perfbench: {wl.name}: {message}", file=sys.stderr)
    kinds = ", ".join(f"{k}={v}" for k, v in sorted(tally.failures.items())) or "none"
    print(f"{wl.name}: {rounds} rounds, {tally.attempted} operations, failed: {kinds}")
    print(json.dumps(result, sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload is not None:
        run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        return 0
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"{name} {lines[-1] if lines else '(no result)'}")
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
