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
recognizer's own, whose one pass over the vertices looks for the least
triangle and certifies the complete bipartite components on the way,
skipping each certified one, and, when there is no triangle, scans home
(for each path in scan order, a second path in its anti-neighborhood).
It returns ``is_class_member(g)``'s witness in plain ints, not a
verdict, and ``_run`` raises ``recognition._refusal(g, witness)`` itself
with no cause, once the witness re-checks.  A triangle is refused when
the pass reaches its least vertex, with nothing above it certified.  The
scan keeps no path and visits few (see ``recognition._p4_pair``); home
and the rest's sides come from that same pass.  Each pass over home then
draws home's paths lazily from ``recognition._canonical_p4s``, in
canonical order, as plain ``(a, b, c, d)`` tuples: ``solve``'s loop
stops at home's optimum after a few of them, and the cover's walk draws
them all, keeping none.  No ``InducedP4`` or ``NeighborhoodPartition``
is built below the public call.  Past that step the input is a verified
member, so a refusal raised by the branching is an internal fault and
leaves as a ``StructureViolation``.

Candidates are evaluated in one serial loop (paths in canonical order;
per path {a, c}, {b, d}, the region; the remainder last), and only a
strictly heavier candidate replaces the best, so the earliest heaviest
wins.  ``solve`` steers that loop by home's exact optimum U and
evaluates only a candidate that can be the answer.  It evaluates each
forced pair once: a pair drawn before (the {a, c} of one path and the
{b, d} of another are one pair when their masks are equal) is skipped,
since the best set through a non-adjacent pair {x, y} lives in home
minus N[x] and N[y], so its weight depends on the pair alone, and the
best only grows.  The set of drawn pairs lives for one call.

The stop and the exact bounds.  Before the first path ``solve`` asks its
optimum oracle (``_optimum_oracle``: ``opt(mask)`` is the optimum weight
of g[mask], by maximum-degree branching with component splitting and a
memo on component masks) for U = opt(home).  Every candidate is an
independent set of g[home], and on a member the heaviest weighs U, so
the loop stops at the first candidate that weighs U, which skips the
path-free remainder, not known until the last path is drawn.  Before
that, a forced pair {x, y} weighs exactly w(x) + w(y) + opt(rest), rest
= s_b | s_d | s_bd | anti (for {a, c}), so it is solved only when that
sum is U, and a region only when its weight reaches U.

The descent.  A solved pair reaches U, and so does the one member of each
branching family below it that the full evaluation keeps.  Each family
(the forced pair's in ``constrained._solve_containing``, an uncertified
component's residual hosts in ``split_solver._solve_raw``) is exhaustive,
and the paper's branching is exact on a member, so the family's heaviest
member weighs the family's optimum (the pair's rest, or the component),
and the earliest heaviest is the first member whose host's optimum equals
it.  So each family is taken lazily (``split_solver._solve_family``):
members below the target are skipped, and only the first that reaches it
is walked, one level further down, so a solved pair's walk reaches one
leaf, its answer.  A family in which no member reaches its target is an
internal fault.

The budget and the fallback.  The branching is exponential in general,
so a solve's queries share one memo and one budget: once the memo would
hold more than |home|² masks, or a query would branch 400 levels deep,
the oracle answers None for the rest of the solve, and each caller falls
back to the rule that needs no optimum.  If home's own query trips, U is
the floor of home's Nemhauser–Trotter LP value (``bipartite.lp_bound``),
exact on a bipartite home (König–Egerváry) and possibly above the
optimum on a non-bipartite one, such as a complete blow-up of C5 or C7,
where every path is then visited; a candidate is then skipped only when
it cannot beat the best strictly.  A forced pair's weight is then
bounded by w(x) + w(y) plus a greedy maximal matching's bound on its
rest: in a triangle-free graph a matching is a clique cover, and an
independent set takes at most the heavier end of each edge.  A family
whose target is unknown is walked in full; one whose oracle trips part
way walks the members left, and the skipped ones weighed less than its
target; the pair's answer is then the first heaviest of its leaves.  A
best above U is an internal fault, and so, with an exact U, is a best
below it, each raised once the chosen set is certified.  A solve
without paths builds no oracle.

``solve_with_cover`` is two independent passes over home: its answer is
the steered loop's, so it equals ``solve(g)`` by construction, and its
members are those ``_walk`` returns, a walk that weighs nothing over its
own draw of every path.  Per path it walks each pair not walked before
through every member of its families, in order, and each base case
becomes a member: the vertices the branch forced plus its
final host, whose nontrivial components are complete bipartite.  The
path's region follows, and home's path-free remainder comes last, each
distinct one certified once.  Every member holds all of the graph outside
home, and the family contains every maximal independent set: whatever
path draws {x, y}, its host is home minus N[x] and N[y], and the
branching of ``_solve_containing`` is exhaustive over that host's
independent sets (the class drops and one branch per non-adjacent pair of
the two classes, then take-or-remove, keep-or-drop and the bi-partial
residuals below), so the leaves of one draw hold every independent set
through the pair.  The region leaves out each flavor vertex x with a
neighbor y among the flavors and the anti-neighborhood, and the cover
needs no extra walk for it: an x of s_b is adjacent to b and to no other
path vertex, and y, in s_c or the anti-neighborhood (two neighbors of b
are not adjacent), misses a and b, so a-b-x-y is an induced path of home
and the walk draws {a, x} on home (d-c-x-y likewise for s_c).

Below the public calls every candidate is a ``(weight, mask)`` pair and
every path is plain ints: each path drawn scans its neighborhood once
into the eight masks of ``recognition._trace_classes`` (the seven trace
classes and the anti-neighborhood), unchecked, as the canonical draw
found the path in home.  The {b, d} draw is the {a, c} draw of the
reversed path d-c-b-a, whose classes are the same masks relabelled (a↔d,
b↔c, ac↔bd): it reads s_c, s_a and s_ac for s_b, s_d and s_bd.  Each
draw is one call of the internal ``constrained._solve_containing``,
which walks the pair's family into the cover's members or, for the loop,
into its own leaves, weighed into the pair's best set.  The chosen set
is certified once, at the end.  The walk passes its one host memo down
(see ``split_solver``) as a trailing argument of ``_solve_containing``
and ``_solve_raw``.  The loop passes its optimum oracle there, and one
memo of its own for every pair it solves.  With a live oracle it solves
at most one pair, whose walk descends one chain of strictly smaller
hosts that no memo could hit; only after a trip do pairs walk
unsteered, and then they meet each other's hosts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bipartite import cb_weight_mask, lp_bound, side_selection
from .constrained import _solve_containing
from .errors import InputError, StructureViolation
from .graph import Graph, SolveResult, _all_certified, _union, certified_result
from .recognition import _canonical_p4s, _membership, _refusal, _trace_classes, verified_member

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


# the optimum oracle's budget: it trips once its memo would hold more
# than _TOP_MEMO · |home|² masks (an adversarial search of members kept
# home's own query at most 0.17·n²), or once a query would branch
# _TOP_DEPTH levels deep: it recurses once per level, and this stays well
# below Python's 1,000-frame recursion limit
_TOP_MEMO = 1
_TOP_DEPTH = 400


class _Tripped(Exception):
    """The optimum oracle ran out of budget."""


def _optimum_oracle(g: Graph, home: int):
    """One solve's optimum oracle: ``opt(mask)`` is the weight of a
    maximum weight independent set of g[mask], for a mask inside home, or
    None once the budget has tripped, for the rest of the solve.

    Each connected part of the live host is solved on its own: a single
    vertex is its weight, and a larger part branches on its
    maximum-degree vertex (ties to the least id), taken or dropped, with
    the part's optimum memoized on its mask.  Every query of the solve
    shares the memo and the budget, which trips when the memo would hold
    more than ``_TOP_MEMO`` · |home|² masks or a query would branch
    ``_TOP_DEPTH`` levels deep.
    """
    adj, weights = g.adj, g.weights
    cap = _TOP_MEMO * home.bit_count() ** 2
    memo: dict[int, int] = {}
    tripped = False

    def best(live: int, depth: int) -> int:
        total = 0
        while live:
            part = grow = live & -live
            while grow:
                grow = _union(adj, grow) & live & ~part
                part |= grow
            live ^= part
            if not part & (part - 1):
                total += weights[part.bit_length() - 1]
                continue
            got = memo.get(part)
            if got is None:
                if depth == _TOP_DEPTH or len(memo) >= cap:
                    raise _Tripped
                pick = pick_deg = -1
                rest = part
                while rest:
                    low = rest & -rest
                    rest ^= low
                    deg = (adj[low.bit_length() - 1] & part).bit_count()
                    if deg > pick_deg:
                        pick, pick_deg = low, deg
                v = pick.bit_length() - 1
                got = max(
                    weights[v] + best(part & ~adj[v] & ~pick, depth + 1),
                    best(part & ~pick, depth + 1),
                )
                memo[part] = got
            total += got
        return total

    def opt(mask: int) -> int | None:
        nonlocal tripped
        if tripped:
            return None
        try:
            return best(mask, 0)
        except _Tripped:
            tripped = True
            return None

    return opt


def _per_path(g: Graph, vs, classes, best, top, drawn: set, memo: dict, opt):
    """The earliest heaviest of ``best`` and the candidates of the path
    ``vs`` = (a, b, c, d), whose eight trace class masks in home are
    ``classes``, evaluated in order: {a, c}, {b, d}, the region.  Returns
    as soon as a strictly heavier candidate reaches ``top``.

    A forced pair drawn before (its mask in ``drawn``) is skipped.  A
    candidate is evaluated only when its weight (or an upper bound on it)
    reaches a floor: ``top`` when ``top`` is home's exact optimum (``opt``
    not None), else one above the best.  The region's bound is its
    weight; a forced pair's is w(x) + w(y) + ``opt`` of what it leaves of
    home, exact while the oracle is live, else the matching bound of that
    rest.  A solved pair walks with ``memo``, the loop's one host memo
    (see the module docstring).
    """
    a, b, c, d = vs
    weights = g.weights
    s_a, s_b, s_c, s_d, s_ac, _, s_bd, anti = classes
    # {b, d} is {a, c} of d-c-b-a, whose classes swap a↔d, b↔c and ac↔bd
    for x, y, s_x, s_y, s_xy in ((a, c, s_b, s_d, s_bd), (b, d, s_c, s_a, s_ac)):
        pair = 1 << x | 1 << y
        if pair in drawn:
            continue
        drawn.add(pair)
        rest = s_x | s_y | s_xy | anti  # home minus N[x] and N[y]
        got = None if opt is None else opt(rest)
        if got is not None:
            if weights[x] + weights[y] + got != top:
                continue
        elif weights[x] + weights[y] + _matching_bound(g, rest) < (
            best[0] + 1 if opt is None else top
        ):
            continue
        cand = _solve_containing(g, x, y, s_x, s_y, s_xy, anti, None, memo, opt)
        if cand[0] > best[0]:
            best = cand
            if best[0] == top:
                return best
    q3 = _q3_region(g, a, d, s_b, s_c, anti)
    if g.weight_of(q3) < (best[0] + 1 if opt is None else top):
        return best
    # the region is this path's last candidate, so a stop is left to the
    # caller
    cand = cb_weight_mask(g, q3)
    return cand if cand[0] > best[0] else best


def _walk(g: Graph, home: int) -> list[int]:
    """The cover's members inside home, in walk order (see the module
    docstring): every path's walked pairs' leaves and its region, in
    canonical path order, then home's path-free remainder.  The walk
    draws home's paths itself and keeps its walked pairs and one host
    memo for all of them."""
    members: list[int] = []
    memo: dict = {}
    # the walked pairs, the distinct regions in walk order
    walked, regions = set(), {}
    white_host = home
    for vs in _canonical_p4s(g, home):
        a, b, c, d = vs
        white_host &= ~(1 << a | 1 << b | 1 << c | 1 << d)
        s_a, s_b, s_c, s_d, s_ac, _, s_bd, anti = _trace_classes(g, vs, home)
        for x, y, s_x, s_y, s_xy in ((a, c, s_b, s_d, s_bd), (b, d, s_c, s_a, s_ac)):
            pair = 1 << x | 1 << y
            if pair not in walked:
                walked.add(pair)
                _solve_containing(g, x, y, s_x, s_y, s_xy, anti, members, memo, None)
        q3 = _q3_region(g, a, d, s_b, s_c, anti)
        regions[q3] = None
        members.append(q3)
    members.append(white_host)
    for mask in (*regions, white_host):
        if not _all_certified(g.adj, mask):
            cb_weight_mask(g, mask)  # raises its incomplete_component fault
    return members


def _run(g: Graph, cover: bool, jobs: int):
    # type(True) is bool, so a bool is refused with every non-int
    if type(jobs) is not int or jobs < 1:
        raise InputError(f"jobs must be an int of at least 1, got {jobs!r}")
    witness, home, certified = _membership(g)
    if witness is not None:
        raise _refusal(g, witness) from None
    with verified_member():
        # side selection solves every component outside home once for all
        # candidates
        rest_mask = side_selection(g, certified)[1]
        result = _solve_all(g, home, rest_mask)
        if not cover:
            return result, None
        rest = g.full_mask & ~home
        return result, CoverFamily(tuple(dict.fromkeys(m | rest for m in _walk(g, home))))


def _solve_all(g: Graph, home: int, rest_mask: int) -> SolveResult:
    # the earliest heaviest (weight, mask) so far; every candidate weighs
    # at least 0, so the first one replaces this
    best = (-1, 0)
    drawn: set[int] = set()  # the forced-pair masks this solve has drawn
    memo: dict = {}  # the host memo of every pair this solve walks
    # no candidate outweighs home's optimum, or its LP bound once the
    # oracle's budget trips, so once the best reaches that top the rest
    # cannot beat it strictly (see the module docstring); opt stays only
    # while the top is exact
    top = opt = None
    # on a member every uncertified component holds a path
    if home:
        opt = _optimum_oracle(g, home)
        top = opt(home)
        if top is None:
            opt = None
            top = lp_bound(g, home)
    # home minus the paths drawn so far
    white_host = home
    # home's paths in canonical order, drawn lazily up to the stop
    for vs in _canonical_p4s(g, home):
        a, b, c, d = vs
        white_host &= ~(1 << a | 1 << b | 1 << c | 1 << d)
        best = _per_path(g, vs, _trace_classes(g, vs, home), best, top, drawn, memo, opt)
        if best[0] == top:
            break
    else:
        # the path-free remainder of home, only known once every path has
        # been drawn
        cand = cb_weight_mask(g, white_host)
        if cand[0] > best[0]:
            best = cand

    result = certified_result(g, best[1] | rest_mask)
    if top is not None and best[0] > top:
        raise StructureViolation(
            f"the best candidate weighs {best[0]}, above home's upper bound {top}",
            ("above_top", (best[0], top)),
        )
    if opt is not None and best[0] < top:
        raise StructureViolation(
            f"the best candidate weighs {best[0]}, below home's optimum {top}",
            ("below_top", (best[0], top)),
        )
    return result


def solve(g: Graph, jobs: int = 1) -> SolveResult:
    """Maximum weight independent set of g.

    The paths' component is solved first: candidates are evaluated in a
    fixed order (paths in canonical order, per-path branches, then the
    component's path-free remainder), the earliest heaviest winning.  Its
    optimum weight, found by a budgeted plain branching, steers the
    evaluation: the answer is the first candidate that weighs it, so the
    loop stops there, a candidate is solved only when its exact weight
    (or, for a region, its vertex weight) reaches it, and each branching
    family below walks only its first member that reaches the family's
    own optimum.  A forced vertex pair drawn before by any path is
    skipped: its weight depends on the pair alone.  Once the branching's
    budget trips, the evaluation falls back to upper bounds against the
    best so far (the component's LP relaxation value for the stop) and
    full families; the output is the same.
    The rest of the graph is then added by side selection of each of its
    complete bipartite components.  The returned set is deterministic.
    ``jobs`` must be an int of at least 1 and has no effect: the loop is
    serial.

    Raises:
        ClassViolation: g contains a triangle or two separated induced
            four-vertex paths, found before any branching, with no cause;
            the witness is ``is_class_member(g)``'s, re-checked against g.
        InputError: ``jobs`` is below 1 or not an int (a bool is not one).
        StructureViolation: an internal fault, such as a best that
            outweighs the component's optimum, or falls short of it.
    """
    return _run(g, cover=False, jobs=jobs)[0]


def solve_with_cover(g: Graph, jobs: int = 1) -> tuple[SolveResult, CoverFamily]:
    """Solve g and extract the bipartite cover family.

    The result is ``solve(g)``'s.  The family comes from a walk that
    weighs nothing over every path of the paths' component: each forced
    pair is walked once, through every member of its branching, and each
    base case is a leaf.  With each path's region and the path-free
    remainder, each certified (a failure is a ``StructureViolation``),
    the family contains every maximal independent set of g in some
    member.  ``jobs`` must be an int of at least 1 and has no effect.
    Refuses exactly as ``solve`` does, with the witness of
    ``is_class_member(g)``.
    """
    return _run(g, cover=True, jobs=jobs)
