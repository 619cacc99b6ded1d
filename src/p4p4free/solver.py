"""Exact maximum weight independent set for the supported class.

The driver decomposes the graph into certified components once.  Home is
the union of the components without a complete-bipartite certificate;
every other component is solved once by side selection.  Each triangle
and each induced four-vertex path lies inside one component, and a
complete bipartite component holds neither, so home holds them all.  Two
paths in different components would be vertex-disjoint and non-adjacent,
so in a class member home is at most one component.

Inside home, for each path the driver takes the best of three covering
computations: the optimum forced through the first-and-third vertices,
through the second-and-fourth, and the plain bipartite optimum of the
region made of the two endpoints, the flavor vertices isolated among
their peers, and the path's anti-neighborhood.  Finally the path-free
remainder of home (which has only complete bipartite components) competes
as well, and the earliest heaviest candidate wins.  Every branching step
removes a vertex of home or its neighborhood, so each candidate would make
the same choice outside home: the best candidate of home plus the side
selection of the rest is the optimum of the whole graph.

Membership is decided before any branching, in one front step: the
recognizer's own pass, which looks for the least triangle of the whole
graph and, when there is none, decomposes it once and scans home (for
each path in scan order, a second path in its anti-neighborhood).  The
verdict and witness are those of ``is_class_member(g)``; the refusal is
raised once its witness re-checks, and a triangle is refused before any
decomposition.  The scan searches each anti-neighborhood of at least 4
vertices once per call: a region found path-free stays path-free, and a
smaller one holds no P4, so skipping them leaves the first path whose
region holds one, and so the witness, unchanged.  Home, the rest's
sides and home's paths all come from that same pass: to accept a member
the scan visits every path of home, so the paths are scanned once and
only sorted into canonical order here.  They arrive as plain
``(a, b, c, d)`` tuples and stay so: the loop hands each tuple on as four
vertex ids, and no ``InducedP4`` or ``NeighborhoodPartition`` is built
below the public call.  Past that step the input is a verified member, so
a refusal raised by the branching is an internal fault and leaves as a
``StructureViolation``.

Candidates are evaluated in one serial loop (paths in canonical order;
per path {a, c}, {b, d}, the region; the remainder last), and ``solve``
skips a candidate that cannot beat the running best strictly.  Its upper
bound is the region's weight, or for a forced pair the pair's weight plus
a matching bound on what the pair leaves of home: in a triangle-free
graph every clique is a vertex or an edge, so a greedy maximal matching
is a clique cover, and an independent set takes at most the heavier end
of each edge (the clique-cover bound of weighted branch and bound).  On
a member a skipped candidate cannot change the answer.  The region is
first bounded by the weight of home minus N(a) and N(d), which holds
it, so a path's trace classes are computed only once one of its
candidates survives its bound.

Both public calls evaluate each forced pair once: a pair drawn before,
by this path or another (the {a, c} of one path and the {b, d} of another
are one pair when their masks are equal), is skipped before its bound
or the path's trace classes are computed.  The best set through a
non-adjacent pair {x, y} lives in home minus N[x] and N[y], so its
weight depends on the pair alone; the first draw weighed at most the
best then (or, in ``solve``, was skipped by a bound at most the best),
and the best only grows, so a repeat cannot beat it strictly.  The set
of drawn pairs lives for one call.

``solve`` stops as soon as the best reaches an upper bound U on all of
home, computed once before the first path: the floor of home's
Nemhauser–Trotter LP value (``bipartite.lp_bound``, one max-flow on the
bipartite double cover).  Every candidate is an independent set of
g[home], so none weighs more than U, and only a strictly heavier one
replaces the best: no candidate after the stop could change the answer,
so the output is the one the full loop returns.  The stop also skips the
path-free remainder, which is home minus every path and so is not known
until the last path is drawn (minus the paths drawn so far it may still
hold a path).  U is exact on a bipartite home (König–Egerváry), where
the best often reaches it at the first path; on a non-bipartite home,
such as a complete blow-up of C5 or C7, it can stay above the optimum
and every path is visited.  A solve without paths computes no bound.

``solve_with_cover`` runs the same computation with leaf instrumentation:
every base case reached anywhere in the branching becomes a member mask,
the vertices the branch forced plus its final host, whose nontrivial
components are complete bipartite, so the member induces a bipartite
subgraph.  The region and home's path-free remainder are members too, and
every member also holds all of the graph outside home.  The cover never
stops at U and skips no forced pair for its bound, so it draws every pair
of every path of home, each once, and bounds only the region as ``solve``
does (the region is a member either way).  That family contains every
maximal independent set.  Whatever path draws {x, y}, its constrained
host is home minus N[x] and N[y], and the branching of
``_solve_containing`` is exhaustive over that host's independent sets
(the class drops and one branch per non-adjacent pair of the two
classes, then take-or-remove, keep-or-drop and the bi-partial residuals
below), so the leaves of one draw hold every independent set through the
pair.  The region leaves out each flavor vertex x with a neighbor y
among the flavors and the anti-neighborhood, and the cover needs no
extra solve for it: an x of s_b is adjacent to b and to no other path
vertex, and y, in s_c or the anti-neighborhood (two neighbors of b are
not adjacent), misses a and b, so a-b-x-y is an induced path of home and
the cover draws {a, x} on home (d-c-x-y likewise for s_c).

Below the public calls every candidate is a ``(weight, mask)`` pair and
every path is plain ints: each path scans its neighborhood at most once,
into the eight masks of ``recognition._trace_classes`` (the seven trace
classes and the anti-neighborhood, with the checks
``neighborhood_partition`` makes).  The {b, d} draw is the {a, c} draw of
the reversed path d-c-b-a, whose classes are the same masks relabelled by
``recognition._reversed_classes``, the relabelling
``NeighborhoodPartition.reverse`` applies too.  Each draw is one call of
the internal ``constrained._solve_containing``, which folds the pair into
its best set and, in a cover solve, appends its leaves to the members.
The chosen set is certified once, at the end.  Each call passes one host
memo down every candidate (see ``split_solver``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bipartite import cb_weight_mask, lp_bound, side_selection
from .constrained import _solve_containing
from .errors import InputError
from .graph import Graph, SolveResult, certified_result
from .recognition import (
    _membership,
    _reversed_classes,
    _trace_classes,
    verified_member,
)

__all__ = ["CoverFamily", "solve", "solve_with_cover"]


@dataclass(frozen=True)
class CoverFamily:
    """Vertex sets, each inducing a bipartite subgraph, that jointly
    contain every maximal independent set of the solved graph.

    ``members`` are vertex bitmasks, deduplicated in first-seen order.
    Each holds every vertex outside the paths' component.
    """

    members: tuple[int, ...]


def _q3_region(g: Graph, a: int, d: int, s_b: int, s_c: int, anti: int) -> int:
    """Endpoints + flavor vertices isolated among their peers + the
    anti-neighborhood: a region made of complete bipartite components."""
    adj = g.adj
    flavors = s_b | s_c
    ambient = flavors | anti
    region = (1 << a) | (1 << d) | anti
    while flavors:
        low = flavors & -flavors
        if not adj[low.bit_length() - 1] & ambient:
            region |= low
        flavors ^= low
    return region


def _matching_bound(g: Graph, host: int) -> int:
    """Upper bound on the weight of an independent set of g[host].

    A greedy maximal matching, taken in ascending vertex order, covers
    host by edges and single vertices, and an independent set meets each
    edge at most once: each matched edge counts its heavier end, each
    unmatched vertex its own weight.
    """
    adj, weights = g.adj, g.weights
    total = 0
    left = host
    while left:
        low = left & -left
        v = low.bit_length() - 1
        left ^= low
        mates = adj[v] & left
        if mates:
            mate = mates & -mates
            left ^= mate
            total += max(weights[v], weights[mate.bit_length() - 1])
        else:
            total += weights[v]
    return total


def _pair_bound(g: Graph, x: int, y: int, home: int) -> int:
    """Upper bound on the weight of an independent set of g[home] through
    the non-adjacent pair {x, y}."""
    closed = g.adj[x] | g.adj[y] | 1 << x | 1 << y
    return g.weights[x] + g.weights[y] + _matching_bound(g, home & ~closed)


def _per_path(g: Graph, vs, home: int, best, top, drawn: set, members, memo: dict):
    """The earliest heaviest of ``best`` and the candidates of the path
    ``vs`` = (a, b, c, d) for g[home], evaluated in order: {a, c}, {b, d},
    the region.  Returns as soon as a strictly heavier candidate reaches
    ``top``.

    Both calls add each forced pair's mask to ``drawn`` and skip a pair
    drawn before, and both skip the region's solve when its weight cannot
    beat the best.  ``solve`` (``members`` None) also skips a pair whose
    ``_pair_bound`` cannot beat the best, and the region when the weight
    of home minus N(a) and N(d), which holds it, cannot.  So the path's
    trace classes and region are computed only once a candidate that
    needs them survives its bounds.

    A cover solve (``members`` a list) skips no forced pair for its bound.
    It appends each candidate's cover members to ``members`` as it is
    evaluated, the region whether or not its solve is skipped, so the
    members keep evaluation order.
    """
    a, b, c, d = vs
    cover = members is not None
    classes = None
    for x, y in ((a, c), (b, d)):
        pair = 1 << x | 1 << y
        if pair in drawn:
            continue
        drawn.add(pair)
        if not cover and _pair_bound(g, x, y, home) <= best[0]:
            continue
        if classes is None:
            classes = _trace_classes(g, vs, home)
        # {b, d} is {a, c} of the reversed path
        _, s_b, _, s_d, _, _, s_bd, anti = (
            classes if x == a else _reversed_classes(classes)
        )
        cand = _solve_containing(g, x, y, s_b, s_d, s_bd, anti, members, memo)
        if cand[0] > best[0]:
            best = cand
            if best[0] == top:
                return best
    if not cover and g.weight_of(home & ~(g.adj[a] | g.adj[d])) <= best[0]:
        return best
    if classes is None:
        classes = _trace_classes(g, vs, home)
    _, s_b, s_c, _, _, _, _, anti = classes
    q3 = _q3_region(g, a, d, s_b, s_c, anti)
    if cover:
        members.append(q3)
    if g.weight_of(q3) <= best[0]:
        return best
    # the region is this path's last candidate, so a stop is left to the
    # caller
    cand = cb_weight_mask(g, q3)
    return cand if cand[0] > best[0] else best


def _run(g: Graph, cover: bool, jobs: int):
    # type(True) is bool, so a bool is refused with every non-int
    if type(jobs) is not int or jobs < 1:
        raise InputError(f"jobs must be an int of at least 1, got {jobs!r}")
    verdict, home, certified, paths = _membership(g)
    with verified_member(g, verdict):
        # side selection solves every component outside home once for all
        # candidates
        rest_mask = side_selection(g, certified)[1]
        # the membership scan's paths, in canonical order
        paths = sorted(paths)
        # this call's repeated subproblems (see the module docstring)
        memo: dict = {}
        return _solve_all(g, paths, home, rest_mask, cover, memo)


def _solve_all(g: Graph, paths, home: int, rest_mask: int, cover: bool, memo: dict):
    members: list[int] | None = [] if cover else None
    # the earliest heaviest (weight, mask) so far; every candidate weighs
    # at least 0, so the first one replaces this
    best = (-1, 0)
    drawn: set[int] = set()  # the forced-pair masks this solve has drawn
    # no candidate outweighs home's LP bound, so once the best reaches it
    # the rest cannot beat it strictly (see the module docstring)
    top = lp_bound(g, home) if paths and not cover else None
    for t in paths:
        best = _per_path(g, t, home, best, top, drawn, members, memo)
        if best[0] == top:
            break
    else:
        # the path-free remainder of home, only known once every path has
        # been drawn
        white_host = home
        for a, b, c, d in paths:
            white_host &= ~(1 << a | 1 << b | 1 << c | 1 << d)
        if cover:
            members.append(white_host)
        cand = cb_weight_mask(g, white_host)
        if cand[0] > best[0]:
            best = cand

    result = certified_result(g, best[1] | rest_mask)
    if not cover:
        return result, None
    rest = g.full_mask & ~home
    return result, CoverFamily(tuple(dict.fromkeys(m | rest for m in members)))


def solve(g: Graph, jobs: int = 1) -> SolveResult:
    """Maximum weight independent set of g.

    The paths' component is solved first: candidates are evaluated in a
    fixed order (paths in canonical order, per-path branches, then the
    component's path-free remainder), the earliest heaviest winning, and a
    candidate whose upper bound cannot beat the best so far is skipped.
    So is a forced vertex pair drawn before by any path: its weight depends
    on the pair alone and its first draw could not beat the best since.
    The loop stops once the best reaches the floor of the component's LP
    relaxation value, which no candidate exceeds, so a later candidate
    could not replace it; the path-free remainder is then skipped too.
    The rest of the graph is then added by side selection of each of its
    complete bipartite components.  The returned set is deterministic.
    ``jobs`` must be an int of at least 1 and has no effect: the loop is
    serial.

    Raises:
        ClassViolation: g contains a triangle or two separated induced
            four-vertex paths, found before any branching; the witness is
            that of ``is_class_member(g)``, re-checked against g.
        InputError: ``jobs`` is below 1 or not an int (a bool is not one).
        StructureViolation: an internal fault.
    """
    return _run(g, cover=False, jobs=jobs)[0]


def solve_with_cover(g: Graph, jobs: int = 1) -> tuple[SolveResult, CoverFamily]:
    """Solve g and extract the bipartite cover family.

    The solve is instrumented so every branching base case contributes a
    leaf; with each path's region and the path-free remainder, the
    resulting family contains every maximal independent set of g in some
    member.  Like ``solve`` it solves each forced pair once, all on the
    paths' component: the leaves of a pair's solve hold every independent
    set through it.  No forced pair is skipped for its bound, and the
    result equals ``solve(g)``.  ``jobs`` must be an int of at least 1 and
    has no effect.  Refuses exactly as ``solve`` does, with the witness of
    ``is_class_member(g)``.
    """
    return _run(g, cover=True, jobs=jobs)
