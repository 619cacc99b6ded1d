"""Best independent set forced through two fixed path vertices.

Given an induced path a-b-c-d, the optimum among independent sets
containing {a, c} lives in the subgraph of vertices adjacent to neither a
nor c: the b-only, d-only and b-and-d neighbor classes plus the path's
anti-neighborhood.  That subgraph is attacked by a covering family of
branches: drop both one-letter classes, drop one, or commit to a concrete
non-adjacent pair (one vertex from each one-letter class) and run an
iterative selection loop.  Each pick's kept residual is a split instance
for ``split_solver._solve_raw`` whose block part still holds the class
opposite the pick, its ``active`` part, which may close an induced P4
with the anti-neighborhood; ``split_solver`` says how such a host is
branched.  Every family, the pair branches and the class drops included,
is walked in order down to its leaves (``split_solver._solve_family``),
and the first heaviest leaf is the answer
(``split_solver._heaviest_leaf``).  ``solve`` steers the walk by the
pair's optimum, from its optimum oracle: only the first member whose
host reaches that optimum is walked, down to one leaf.

The {b, d} variant is the same computation on the reversed path, whose
classes are those of the path relabelled (b↔c, a↔d, ac↔bd).

A forced pair has no kernel of its own: ``_family`` yields its members
from the four classes it reads (b-only, d-only, b-and-d and the
anti-neighborhood) as plain ints, and ``split_solver._solve_family``
walks them over the pair's rest into a ``split_solver._Walk``, the
cover's one walk or a fresh one weighed by ``_heaviest_leaf``.  The pair
is the ``ambient`` of every ``_solve_raw`` it reaches, whose ``ambient |
host`` is the one rule that records a leaf, so each leaf holds it.  The
walk assumes a class member and raises no refusal of its own.  The
public solvers decide membership first, refusing a non-member with a
re-checked witness, build the path's ``NeighborhoodPartition`` in the
given host, walk its masks and certify the result.
"""

from __future__ import annotations

from .graph import Graph, SolveResult, bits, certified_result
from .recognition import InducedP4, _membership, _refusal, neighborhood_partition, verified_member
from .split_solver import _certified_members, _heaviest_leaf, _solve_family, _Walk

__all__ = ["solve_containing_ac", "solve_containing_bd"]


def _select_branch_vertex(g: Graph, cands: list[int], t_comps: list[int], t_mask: int) -> int:
    """The loop's pick among ``cands``, given in ascending id: the most
    contacted blocks of ``t_comps`` (singletons count), then the least id
    whose neighbourhood inside the block region ``t_mask`` is not strictly
    inside another top candidate's.

    One pass keeps the top count and its candidates.  A lone one is the
    pick; otherwise each is tested against the group's distinct masks
    only.  Equal masks do not dominate each other, so twins go to the
    least id, and a finite set of masks has a maximal one, so the walk
    always returns."""
    adj = g.adj
    top, group = -1, []
    for v in cands:
        av = adj[v]
        count = 0
        for c in t_comps:
            if av & c:
                count += 1
        if count > top:
            top, group = count, [v]
        elif count == top:
            group.append(v)
    if len(group) == 1:
        return group[0]
    masks = {adj[u] & t_mask for u in group}
    for v in group:
        nv = adj[v] & t_mask
        if not any(nv & ~m == 0 and nv != m for m in masks):
            return v


def _family(g: Graph, s_b: int, s_d: int, s_bd: int, anti: int):
    """The members of a forced pair's branching family, in evaluation
    order, each as ``(s_mask, t_mask, host, depth, active)`` for
    ``split_solver._solve_raw``: the class-dropping roles (no b- and no
    d-class, d-class only, b-class only), then for every non-adjacent pair
    {vb, vd} of the two one-letter classes one member per pick of the
    selection loop and the loop's split base case.  A generator, so a
    steered walk that stops early computes no later pick.
    """
    # an empty one-letter class repeats a role, whose walk could add no
    # new leaf
    for s_role in dict.fromkeys((s_bd, s_d | s_bd, s_b | s_bd)):
        yield s_role, anti, s_role | anti, 0, 0
    adj = g.adj
    for vb in bits(s_b):
        for vd in bits(s_d & ~adj[vb]):
            # the reduced host through {vb, vd}
            stars = 1 << vb | 1 << vd
            host = (s_b | s_d | s_bd | anti) & ~(adj[vb] | adj[vd])
            # each pick removes a b- or d-class vertex, so the block part
            # and its blocks stay fixed through the loop; an empty part or
            # an empty loop needs no decomposition
            t_mask = anti & host
            live = (s_b | s_d) & host & ~stars
            t_comps = []
            if live and t_mask:
                t_comps = [a | b for a, b in _certified_members(g, t_mask)]
            depth = 1
            while live:
                v = _select_branch_vertex(g, list(bits(live)), t_comps, t_mask)
                # the b- and d-classes are disjoint
                active, passive = (s_d, s_b) if s_b >> v & 1 else (s_b, s_d)
                picked = stars | 1 << v
                act = active & ~picked
                yield picked | passive | s_bd, act | anti, host & ~adj[v], depth + 1, act
                host &= ~(1 << v)
                live &= ~(1 << v)
                depth += 1
            yield stars | s_bd, anti, host, depth, 0


def solve_containing_ac(g: Graph, p: InducedP4, host: int | None = None) -> SolveResult:
    """Maximum weight independent set of g[host] containing {p.a, p.c}.

    Raises:
        ClassViolation: g is outside the supported class, even when g[host]
            alone would solve; decided before any branching, and the
            witness (a triangle or a separated induced P4 pair) has been
            re-checked against g.
        InputError: p is no ``InducedP4``, not an induced P4 of g, or not
            inside the host.
        StructureViolation: an internal fault.
    """
    witness = _membership(g)[0]
    if witness is not None:
        raise _refusal(g, witness) from None
    with verified_member():
        part = neighborhood_partition(g, p, host)
        s_b, s_d, s_bd, anti = part.s_b, part.s_d, part.s_bd, part.anti
        walk = _Walk()
        family = _family(g, s_b, s_d, s_bd, anti)
        _solve_family(g, family, s_b | s_d | s_bd | anti, 1 << p.a | 1 << p.c, walk)
        _, mask = _heaviest_leaf(g, walk.leaves)
    return certified_result(g, mask)


def solve_containing_bd(g: Graph, p: InducedP4, host: int | None = None) -> SolveResult:
    """Maximum weight independent set of g[host] containing {p.b, p.d}.

    The second and fourth vertices of the path are the first and third of
    its reversal, so this is the {a, c} computation on the reversed path.
    Anything but an ``InducedP4`` goes on unreversed, for
    ``neighborhood_partition`` to refuse.
    """
    return solve_containing_ac(g, p.reverse() if isinstance(p, InducedP4) else p, host)
