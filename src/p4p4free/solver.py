"""Exact maximum weight independent set for the supported class.

The driver enumerates induced four-vertex paths.  For each path it takes
the best of three covering computations: the optimum forced through the
first-and-third vertices, through the second-and-fourth, and the plain
bipartite optimum of the region made of the two endpoints, the flavor
vertices isolated among their peers, and the path's anti-neighborhood.
Finally the path-free remainder of the graph (which has only complete
bipartite components) competes as well, and the best candidate wins.

``solve_with_cover`` runs the same computation with leaf instrumentation:
every base case reached anywhere in the branching is recorded as a
``LeafRecord`` whose member set induces a bipartite subgraph, and the
isolated-flavor step is widened with extra constrained solves so that the
deduplicated family provably contains every maximal independent set.

Every refusal leaves through one boundary: a ``ClassViolation`` whose
witness re-checks against the input (a triangle, or two separated induced
four-vertex paths) passes as it is; any other refusal is replaced by the
recognizer's witness, or re-raised unchanged if the recognizer accepts the
graph, since that can only be an internal fault.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NoReturn

from .bipartite import cb_weight_mask
from .constrained import solve_containing_ac, solve_containing_bd
from .errors import ClassViolation, InputError, StructureViolation
from .graph import Graph, SolveResult, bits, certified_result, mask_of
from .recognition import (
    InducedP4,
    enumerate_induced_p4,
    is_class_member,
    neighborhood_partition,
    p4_pair_violation,
    witness_holds,
)

__all__ = ["LeafRecord", "CoverFamily", "solve", "solve_with_cover"]


@dataclass(frozen=True)
class LeafRecord:
    """One branching base case.

    ``forced`` holds the vertices the branch committed to (independent,
    with all their neighbors removed from play); ``residual`` is the final
    base-case host, whose nontrivial components are all complete
    bipartite.  Their union therefore induces a bipartite subgraph.
    """

    forced: int
    residual: int

    @property
    def member(self) -> int:
        return self.forced | self.residual


@dataclass(frozen=True)
class CoverFamily:
    """Vertex sets, each inducing a bipartite subgraph, that jointly
    contain every maximal independent set of the solved graph.

    ``members`` is deduplicated in first-seen order; ``records`` keeps the
    raw leaves the members came from.
    """

    members: tuple[int, ...]
    records: tuple[LeafRecord, ...]


def _q3_region(g: Graph, p: InducedP4, part) -> int:
    """Endpoints + flavor vertices isolated among their peers + the
    anti-neighborhood: a region made of complete bipartite components."""
    flavors = part.s_b | part.s_c
    ambient = flavors | part.anti
    lonely = mask_of(v for v in bits(flavors) if not g.adj[v] & ambient)
    return (1 << p.a) | (1 << p.d) | lonely | part.anti


def _complete_path(
    g: Graph, u: int, v: int, w: int, candidates: int
) -> InducedP4 | None:
    """Smallest x among ``candidates`` with u-v-w-x an induced path."""
    for x in bits(candidates):
        try:
            return InducedP4.of(g, u, v, w, x)
        except InputError:
            continue
    return None


def _drain(leaves: list[int], forced: int, records: list[LeafRecord]) -> None:
    for entry in leaves:
        records.append(LeafRecord(forced, entry & ~forced))
    leaves.clear()


def _per_path(g: Graph, p: InducedP4, cover: bool):
    """Best (weight, mask) over this path's branches, plus leaf records."""
    records: list[LeafRecord] = []
    leaves: list[int] | None = [] if cover else None
    best_w, best_m = -1, 0

    for solve_pair, pair in (
        (solve_containing_ac, (1 << p.a) | (1 << p.c)),
        (solve_containing_bd, (1 << p.b) | (1 << p.d)),
    ):
        res = solve_pair(g, p, leaves=leaves)
        if cover:
            _drain(leaves, pair, records)
        if res.weight > best_w:
            best_w, best_m = res.weight, mask_of(res.chosen)

    part = neighborhood_partition(g, p)
    region = _q3_region(g, p, part)
    q3_w, q3_m = cb_weight_mask(g, region)
    if cover:
        records.append(LeafRecord(0, region))
    if q3_w > best_w:
        best_w, best_m = q3_w, q3_m

    if cover:
        # non-isolated flavor vertices are not covered by the region above;
        # force each into a fresh path and solve constrained, pinning the
        # far endpoint by removing its neighborhood (it rides along as an
        # isolated vertex of every leaf)
        lonely = region & (part.s_b | part.s_c)
        for end, mid, flavor, other, far in (
            (p.a, p.b, part.s_b, part.s_c, p.d),
            (p.d, p.c, part.s_c, part.s_b, p.a),
        ):
            for x in bits(flavor & ~lonely):
                fresh = _complete_path(
                    g, end, mid, x, (other | part.anti) & g.adj[x]
                )
                if fresh is None:
                    continue
                extra = solve_containing_ac(
                    g, fresh, host=g.full_mask & ~g.adj[far], leaves=leaves
                )
                _drain(leaves, (1 << fresh.a) | (1 << fresh.c), records)
                if extra.weight > best_w:
                    best_w, best_m = extra.weight, mask_of(extra.chosen)

    return best_w, best_m, records


def _per_path_task(args):
    return _per_path(*args)


def _run(g: Graph, cover: bool, jobs: int):
    if jobs < 1:
        raise InputError("jobs must be at least 1")
    try:
        return _solve_all(g, cover, jobs)
    except ClassViolation as err:
        if witness_holds(g, err.witness):
            raise
        _refuse(g, err)
    except StructureViolation as err:
        _refuse(g, err)


def _refuse(g: Graph, err: Exception) -> NoReturn:
    """Refuse g with the recognizer's witness in place of ``err``'s.

    Re-raises ``err`` itself when the recognizer accepts g: a refusal of a
    class member is an internal fault, not a property of the input.
    """
    verdict = is_class_member(g)
    if verdict.is_member:
        raise err
    if verdict.triangle is not None:
        raise ClassViolation(
            "graph contains a triangle", ("triangle", verdict.triangle)
        ) from err
    raise p4_pair_violation(*verdict.p4_pair) from err


def _solve_all(g: Graph, cover: bool, jobs: int):
    paths = enumerate_induced_p4(g)
    best = (-1, 0)
    records: list[LeafRecord] = []
    if paths:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                outs = list(
                    pool.map(
                        _per_path_task,
                        ((g, p, cover) for p in paths),
                        chunksize=max(1, len(paths) // (jobs * 4)),
                    )
                )
        else:
            outs = [_per_path(g, p, cover) for p in paths]
        for w, m, recs in outs:
            records.extend(recs)
            if w > best[0]:
                best = (w, m)

    on_some_path = 0
    for p in paths:
        on_some_path |= p.mask
    white_host = g.full_mask & ~on_some_path
    white = cb_weight_mask(g, white_host)
    if cover:
        records.append(LeafRecord(0, white_host))
    if white[0] > best[0]:
        best = white

    result = certified_result(g, best[1])
    if not cover:
        return result, None
    seen: set[int] = set()
    members: list[int] = []
    for rec in records:
        m = rec.member
        if m not in seen:
            seen.add(m)
            members.append(m)
    return result, CoverFamily(tuple(members), tuple(records))


def solve(g: Graph, jobs: int = 1) -> SolveResult:
    """Maximum weight independent set of g.

    Candidates are evaluated in a fixed order (paths in canonical order,
    per-path branches, then the path-free remainder) with strictly-better
    replacement, so the returned set is deterministic; ``jobs`` only
    parallelizes the per-path work and never changes the answer.

    Raises:
        ClassViolation: g contains a triangle or two separated induced
            four-vertex paths; the attached witness has been re-checked
            against g.
    """
    result, _ = _run(g, cover=False, jobs=jobs)
    return result


def solve_with_cover(g: Graph, jobs: int = 1) -> tuple[SolveResult, CoverFamily]:
    """Solve g and extract the bipartite cover family.

    The solve is instrumented so every branching base case contributes a
    leaf, and the isolated-flavor branch is widened with constrained
    solves forcing each non-isolated flavor vertex; the resulting family
    contains every maximal independent set of g in some member.
    """
    result, family = _run(g, cover=True, jobs=jobs)
    return result, family
