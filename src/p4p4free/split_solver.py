"""Exact WIS on hosts made of an independent part over a block part.

A split instance is a host V = S ⊎ T where S is independent and G[T] is a
disjoint union of singletons and complete bipartite blocks.  In the
supported graph class, at most one connected component of such a host can
fail the complete-bipartite certificate (two failing components would each
contain an induced P4, and the pair would be forbidden).  The dispatcher
therefore solves every certified component by side selection and recurses
only into the single uncertified one, choosing a branch vertex whose
anti-neighborhood branching provably lands back in simpler shapes.  It
branches through ``branch_via_bipartial`` first, the one test of whether a
vertex of the independent part is bi-partial to a block (meets one side,
but not all of it); only when none is does it branch on a vertex
contacting several blocks, or across the one block met on both sides.
When a vertex is bi-partial to two blocks, the branch vertex is a sink of
the branching order (u before v when v is bi-partial to two blocks left
after removing N(u)), found by a direct search over the candidates.

The constrained selection loop hands over hosts whose block part may
still hold an induced P4, closed by its ``active`` part (the class
opposite the loop's pick).  While ``active`` meets the uncertified
component, the component's block part, the region, is searched for one
once (fewer than 4 vertices hold none).  A path-free region stays so in
every residual, so ``active`` is dropped.  A path is branched on by
``_path_hosts``: around a vertex of ``active`` bi-partial to a block of the
rest of the region (v meeting a1 but not a2 of one side and nothing of
the other leaves the induced P4 v-a1-b-a2), else around the path's first
vertex.

Each branching rule is a pure function from a host and the side pairs of
its block part to its residual hosts in evaluation order: (host minus
N(v), host minus v), or a covering family of induced-subgraph
restrictions.  The caller solves each one level deeper and keeps the
earliest heaviest (``_earliest_heaviest``, the one tie-break), so the
optimum is preserved whichever structural sub-case was detected, and no
rule calls back into the layer that asked.  A rule reads the blocks it
is handed: one restricted to a vertex set stays a block while both sides
keep a vertex, else leaves singletons, to which no vertex is bi-partial.
The branching assumes a class member and refuses nothing itself: the
public solvers that reach it (``solve``, ``solve_with_cover`` and the
constrained solves) decide membership first, and the structural claims
are enforced as assertions that surface as a ``StructureViolation``, an
internal fault, instead of a silent wrong answer.

Within one public call the branching reaches the same host many times,
under different parts and depths, and its fold (the side selection of its
certified components, the member masks of the others) depends on the
graph and the host only.  So each public solver keeps one memo, a plain
dict from a host to its ``(weight, mask, uncertified)`` fold, which
``_solve_raw`` alone reads and writes; a block part is decomposed afresh
on every call.  The memo lives from the membership verdict to the return,
so a refusal allocates none and no graph sees another's entries.  The
depth budget, the host against the parts, the uncertified-component count
and the leaf record are checked on every call, hit or miss.
"""

from __future__ import annotations

from operator import itemgetter

from .bipartite import side_selection
from .errors import ClassViolation, StructureViolation
from .graph import Graph, bits, components_with_certificates, neighborhood
from .recognition import find_induced_p4

__all__ = ["branch_via_bipartial"]


def _bipartial_blocks(g: Graph, v: int, members) -> list[tuple[int, int]]:
    """The side pairs of the blocks that vertex v is bi-partial to: it
    meets one side, but not all of it.

    Raises:
        ClassViolation: v meets both sides of a block, a triangle.
    """
    found = []
    for side_a, side_b in members:
        hit_a, hit_b = g.adj[v] & side_a, g.adj[v] & side_b
        if hit_a and hit_b:
            x = (hit_a & -hit_a).bit_length() - 1
            y = (hit_b & -hit_b).bit_length() - 1
            raise ClassViolation(
                f"vertex {v} meets both sides of a complete bipartite component",
                ("triangle", tuple(sorted((v, x, y)))),
            )
        if hit_a | hit_b not in (0, side_a, side_b):
            found.append((side_a, side_b))
    return found


def _certified_members(g: Graph, t_live: int):
    """Side pairs of the components of a block part, each certified
    complete bipartite; an uncertified one is an internal fault."""
    members, uncertified = components_with_certificates(g, t_live)
    if uncertified:
        raise StructureViolation(
            "block part lost its complete-bipartite shape",
            ("incomplete_block", uncertified[0]),
        )
    return members


def _check_depth(g: Graph, depth: int) -> None:
    """Raise the depth-budget fault once a branching recursion is deeper
    than ``n + 8`` levels.  Every branch removes a vertex, so only a
    structure assumption violated undetected can get there."""
    if depth > g.n + 8:
        raise StructureViolation(
            "branching recursion exceeded its depth budget", ("depth_budget", depth)
        )


def _earliest_heaviest(cands):
    """The first of the heaviest ``(weight, mask)`` candidates, taken in
    order (``max`` keeps the first of equal keys).  Every branching family
    is evaluated through this one rule, so ties resolve alike in every
    layer."""
    return max(cands, key=itemgetter(0))


def branch_via_bipartial(g, host, active, members):
    """The residual hosts of a branch around a vertex of ``active`` that is
    bi-partial to a block of ``members``, the side pairs of the host's
    block part, in evaluation order, or None when no vertex of ``active &
    host`` is.  When every such vertex touches exactly one block this
    picks the contact-richest one and splits its kept residual along the
    (at most one, asserted) second bi-partial region: the residuals, then
    ``host`` without the pick.  Otherwise it finds a sink of the branching
    order and returns ``(keep, drop)`` around it.  The caller solves each
    host and keeps the earliest heaviest, so this rule is agnostic to the
    caller's base cases.
    """
    act = active & host
    bp_of = {s: found for s in bits(act) if (found := _bipartial_blocks(g, s, members))}
    if not bp_of:
        return None

    if any(len(found) >= 2 for found in bp_of.values()):
        # several blocks involved: branch on a sink of the branching order,
        # which guarantees the kept residual has single-block contacts only
        act_list = list(bits(act))

        def is_sink(v: int) -> bool:
            keep = ~g.adj[v]
            residual = [(a & keep, b & keep) for a, b in members if a & keep and b & keep]
            return all(w == v or len(_bipartial_blocks(g, w, residual)) < 2 for w in act_list)

        sink = next((v for v in act_list if is_sink(v)), None)
        if sink is None:
            raise StructureViolation(
                "branching order has no sink", ("order_cycle", tuple(act_list))
            )
        return host & ~g.adj[sink], host & ~(1 << sink)

    # single-block case: pick the vertex contacting the most nontrivial
    # blocks, the smallest on ties
    pick = max(
        bp_of, key=lambda s: sum(1 for a, b in members if b and g.adj[s] & (a | b))
    )
    side_a, side_b = bp_of[pick][0]
    prime = side_a | side_b  # the block `pick` is bi-partial to

    kept = host & ~g.adj[pick]
    # at most one other block may still hold a bi-partial vertex in kept
    regions = []
    for a, b in members:
        left = a & kept, b & kept
        if a | b != prime and all(left):
            if any(_bipartial_blocks(g, s, (left,)) for s in bits(act)):
                regions.append(a | b)
    if len(regions) > 1:
        raise StructureViolation(
            "more than one bi-partial region beside the chosen block",
            ("extra_bipartial_regions", tuple(regions)),
        )
    other = regions[0] if regions else 0

    residuals = [kept & ~(other | prime)]
    for hp in bits(prime & kept):
        residuals.append(kept & ~g.adj[hp])
    for h in bits(other & kept):
        residuals.append(kept & ~g.adj[h])
    for h in bits(other & kept):
        for hp in bits(prime & kept):
            if not g.adjacent(h, hp):
                residuals.append(kept & ~(g.adj[h] | g.adj[hp]))
    residuals.append(host & ~(1 << pick))
    return residuals


def _bad_comp_hosts(g, s_mask, comp, members):
    """The residual hosts of a branch on the uncertified component
    ``comp``, whose block part has the side pairs ``members``, in
    evaluation order: through ``branch_via_bipartial`` while a vertex of
    the independent part is bi-partial to a block, else ``(keep, drop)``
    on the vertex contacting the most blocks once one contacts several,
    else across the one block met on both sides.
    """
    hosts = branch_via_bipartial(g, comp, s_mask, members)
    if hosts is not None:
        return hosts
    # no vertex meets a block partially, nor both sides (a triangle that
    # _bipartial_blocks raised), so each contact is one whole side
    s_live = s_mask & comp
    contacts = {s: sum(1 for a, b in members if g.adj[s] & (a | b)) for s in bits(s_live)}
    multi = [s for s, cnt in contacts.items() if cnt >= 2]
    if multi:
        # branch on the vertex spanning the most blocks (singletons count:
        # a vertex tying several singletons together is what breaks the
        # component's complete-bipartite shape in the first place)
        pick = max(multi, key=contacts.get)
        return comp & ~g.adj[pick], comp & ~(1 << pick)

    # every contact is universal into one side of a single block; the
    # component can only fail its certificate by having attachments on
    # both sides of one block
    reach = neighborhood(g, s_live)
    split_blocks = [(a, b) for a, b in members if reach & a and reach & b]
    if len(split_blocks) != 1:
        raise StructureViolation(
            "single-contact component should split across exactly one block",
            ("side_split_blocks", tuple(a | b for a, b in split_blocks)),
        )
    side = split_blocks[0][0]
    return comp & ~neighborhood(g, side), comp & ~side


def _path_hosts(g, comp, active, x, members):
    """The residual hosts of a branch on ``comp`` while its region holds an
    induced P4 with first vertex ``x``: those of ``branch_via_bipartial`` on
    the blocks ``members`` of the rest of the region, else keep or drop x."""
    hosts = branch_via_bipartial(g, comp, active, members)
    if hosts is None:
        # no bi-partial vertex: plain anti-neighborhood branching on the path
        hosts = comp & ~g.adj[x], comp & ~(1 << x)
    return hosts


def _solve_raw(g, s_mask, t_mask, host, depth, ambient, leaves, memo, active):
    """Dispatcher: certified components by side selection, then recurse
    into the unique uncertified one.  Returns (weight, mask).

    ``host`` must lie inside ``s_mask | t_mask`` and hold no vertex of
    both.  ``active`` is the part of ``t_mask`` that may still close an
    induced path with the rest of it (0 except below the constrained
    selection loop).  When ``leaves`` is a list, ``ambient | host`` of every
    certified base case is appended to it, the raw material of cover
    extraction; ``ambient`` is the part of the enclosing host already
    peeled off as certified components.  ``memo`` is the public call's
    host memo (see the module docstring).
    """
    _check_depth(g, depth)
    stray = host & (s_mask & t_mask | ~(s_mask | t_mask))
    if stray:
        raise StructureViolation(
            "host vertices outside both parts or inside both", ("split_parts", stray)
        )
    fold = memo.get(host)
    if fold is None:
        certified, uncertified = components_with_certificates(g, host)
        fold = memo[host] = (*side_selection(g, certified), uncertified)
    total_w, total_m, bad = fold
    if len(bad) > 1:
        # in a class member each would hold an induced P4, a separated pair
        raise StructureViolation(
            "more than one uncertified component", ("uncertified_components", bad)
        )
    if not bad:
        if leaves is not None:
            leaves.append(ambient | host)
        return total_w, total_m
    comp = bad[0]
    region = t_mask & comp
    found = None
    if active & comp and region.bit_count() >= 4:
        found = find_induced_p4(g, region)
    if found is None:
        # the region is a block part, and so is every residual's
        active = 0
        hosts = _bad_comp_hosts(g, s_mask, comp, _certified_members(g, region))
    else:
        members = _certified_members(g, region & ~active)
        hosts = _path_hosts(g, comp, active, found.a, members)
    inner_ambient = ambient | (host & ~comp)
    # a plain loop: before Python 3.12 a comprehension here would turn the
    # locals it reads into cells on every call, leaves included
    cands = []
    for h in hosts:
        cands.append(
            _solve_raw(g, s_mask, t_mask, h, depth + 1, inner_ambient, leaves, memo, active)
        )
    w, m = _earliest_heaviest(cands)
    return total_w + w, total_m | m
