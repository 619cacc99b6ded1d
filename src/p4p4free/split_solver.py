"""Exact WIS on hosts made of an independent part over a block part.

A split instance is a host V = S ⊎ T where S is independent and G[T] is a
disjoint union of singletons and complete bipartite blocks.  In the
supported graph class, at most one connected component of such a host can
fail the complete-bipartite certificate (two failing components would each
contain an induced P4, and the pair would be forbidden).  The dispatcher
therefore peels off every certified component, which its leaf solves by
side selection, and recurses only into the single uncertified one,
choosing a branch vertex whose
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
opposite the loop's pick).  The uncertified component's block part, the
region, is decomposed on every call; a connected triangle-free part
without a certificate holds a P4, and only then is one searched for.  A
path-free region stays so in every residual.  A path is branched on by
``_path_hosts``: around a vertex of ``active`` bi-partial to a block of the
rest of the region (v meeting a1 but not a2 of one side and nothing of
the other leaves the induced P4 v-a1-b-a2), else around the path's first
vertex.

Each branching rule is a pure function from a host and the side pairs of
its block part to its residual hosts in evaluation order: (host minus
N(v), host minus v), or a covering family of induced-subgraph
restrictions.  There is one recursion, a walk: the caller walks each
residual host one level deeper (``_solve_family``, written once for
these families and a forced pair's), and each certified base case is a
leaf, the host with every component its branch peeled off as
certified.  A leaf is weighed by side selection, and the answer is the
first heaviest leaf in walk order (``_heaviest_leaf``, the one
tie-break), which is the earliest heaviest member of every family above
it, so the optimum is preserved whichever structural sub-case was
detected, and no rule calls back into the layer that asked.  Given
``solve``'s optimum oracle, a family is walked lazily: only the first
member whose host's optimum equals the family's is walked, which holds
the first heaviest leaf, so a steered walk reaches one leaf; once the
oracle's budget trips, the members left are walked in full.  A rule
reads the blocks it is handed: one restricted to a vertex set stays a
block while both sides keep a vertex, else leaves singletons, to which
no vertex is bi-partial.
The branching assumes a class member and refuses nothing itself: the
public solvers that reach it (``solve``, ``solve_with_cover`` and the
constrained solves) decide membership first, and the structural claims
are enforced as assertions that surface as a ``StructureViolation``, an
internal fault, instead of a silent wrong answer.

A walk's state is one object, ``_Walk``: the leaves it records, its
host memo and ``solve``'s optimum oracle, or None.  Every activation of
``_solve_family`` and ``_solve_raw`` in the walk takes it as its last
argument, and the outermost ``_solve_family`` activations are the
forced-pair solves of ``solver`` and ``constrained``.  An unsteered walk
reaches the same host many times, under different parts and depths, and
its uncertified components depend on the graph and the host only.  So
the memo is a plain dict from a host to its uncertified components: a
host that passes ``graph._all_certified`` is a leaf, kept as ``()``,
and is not decomposed.  ``_solve_raw`` alone reads and writes it; a
block part is decomposed afresh on every call.  The cover's walk is one
``_Walk`` for all of its pairs; a public constrained solve makes one for
its pair, and so does each pair ``solve``'s loop solves: a steered walk
descends one chain of strictly smaller hosts, which no memo could hit,
and after a trip the loop's LP bound leaves it a few pairs.  A walk is
made after the membership verdict and dropped on return, so a refusal
allocates none and no graph sees another's entries.  The depth budget,
the host against the parts, the uncertified-component count and the leaf
record are checked on every call, hit or miss.
"""

from __future__ import annotations

from operator import itemgetter

from .bipartite import cb_weight_mask
from .errors import ClassViolation, StructureViolation
from .graph import Graph, _all_certified, bits, components_with_certificates, neighborhood
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


def branch_via_bipartial(g, host, active, members):
    """The residual hosts of a branch around a vertex of ``active`` that is
    bi-partial to a block of ``members``, the side pairs of the host's
    block part, in evaluation order, or None when no vertex of ``active &
    host`` is.  When every such vertex touches exactly one block this
    picks the contact-richest one, bi-partial to the block ``prime``, and
    with ``kept = host - N(pick)`` returns ``kept - prime``, ``kept -
    N(hp)`` for each hp of ``prime & kept``, then ``host - pick``: a set
    through the pick misses ``prime`` or holds some hp, and any other
    bi-partial block is branched one level down.  Otherwise it finds a
    sink of the branching order and returns ``(keep, drop)`` around it.
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
    through_prime = [kept & ~g.adj[hp] for hp in bits(prime & kept)]
    return [kept & ~prime, *through_prime, host & ~(1 << pick)]


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


class _Walk:
    """One walk over a branching: the leaves it records, in walk order,
    its host memo (see the module docstring) and ``solve``'s optimum
    oracle ``opt``, or None.  Every ``_solve_raw`` and ``_solve_family``
    activation of the walk shares it."""

    __slots__ = ("leaves", "memo", "opt")

    def __init__(self, opt=None):
        self.leaves: list[int] = []
        self.memo: dict = {}
        self.opt = opt


def _solve_family(g, family, whole, ambient, walk):
    """Walk a branching family over the host ``whole`` into
    ``walk.leaves``.  ``family`` yields each member as ``(s_mask, t_mask,
    host, depth, active)``, in evaluation order, and every member shares
    ``ambient``.  Every family is walked through this one rule, so ties
    resolve alike in every layer (``_heaviest_leaf``).

    Without ``solve``'s oracle ``walk.opt`` every member is walked.  With
    it, only the first member whose host's optimum equals the family's
    optimum ``opt(whole)`` is walked: the family is exhaustive, so its
    heaviest leaf weighs that optimum, and the first heaviest lies under
    the first member that reaches it.  Once the oracle answers None (its
    budget tripped), every member left is walked; the leaves of the
    skipped ones weigh less than the optimum.

    Raises:
        StructureViolation: no member reaches the family's optimum, an
            internal fault.
    """
    opt = walk.opt
    target = None if opt is None else opt(whole)
    for s_mask, t_mask, host, depth, active in family:
        if target is not None:
            got = opt(host)
            if got == target:
                _solve_raw(g, s_mask, t_mask, host, depth, ambient, active, walk)
                return
            if got is not None:
                continue
            target = None
        _solve_raw(g, s_mask, t_mask, host, depth, ambient, active, walk)
    if target is not None:
        raise StructureViolation(
            "no member of a branching family reaches its optimum",
            ("unreached_optimum", target),
        )


def _heaviest_leaf(g, leaves) -> tuple[int, int]:
    """The ``(weight, mask)`` of the first heaviest of ``leaves``, each
    solved by side selection: the one earliest-heaviest tie-break.  A leaf
    holds the components each level of its branch certified, so its
    weight is the branch's, and the first heaviest leaf in walk order is
    the earliest heaviest member of every family above it."""
    # a repeated leaf weighs what its first copy does, so it is weighed
    # once; max keeps the first of equal keys
    return max((cb_weight_mask(g, leaf) for leaf in dict.fromkeys(leaves)), key=itemgetter(0))


def _solve_raw(g, s_mask, t_mask, host, depth, ambient, active, walk):
    """Dispatcher: walk the host down to its certified base cases,
    recursing into the unique uncertified component, and append
    ``ambient | host`` of each to ``walk.leaves``; ``ambient`` is the
    part of the enclosing host already peeled off as certified
    components.  Returns nothing: ``_heaviest_leaf`` weighs the leaves.

    ``host`` must lie inside ``s_mask | t_mask`` and hold no vertex of
    both.  ``active`` is the part of ``t_mask`` that may still close an
    induced path with the rest of it (0 except below the constrained
    selection loop); a path of the component's region that avoids
    ``active`` is an ``incomplete_block`` fault.
    ``walk`` is the walk's state (``_Walk``): with an optimum oracle,
    the walk is steered down the residual hosts that reach the
    component's optimum (``_solve_family``).
    """
    _check_depth(g, depth)
    stray = host & (s_mask & t_mask | ~(s_mask | t_mask))
    if stray:
        raise StructureViolation(
            "host vertices outside both parts or inside both", ("split_parts", stray)
        )
    memo = walk.memo
    bad = memo.get(host)
    if bad is None:
        bad = () if _all_certified(g.adj, host) else components_with_certificates(g, host)[1]
        memo[host] = bad
    if len(bad) > 1:
        # in a class member each would hold an induced P4, a separated pair
        raise StructureViolation(
            "more than one uncertified component", ("uncertified_components", bad)
        )
    if not bad:
        walk.leaves.append(ambient | host)
        return
    comp = bad[0]
    region = t_mask & comp
    members, paths = components_with_certificates(g, region)
    if not paths:
        # the region is a block part, and so is every residual's
        hosts = _bad_comp_hosts(g, s_mask, comp, members)
    else:
        # a connected triangle-free part without a certificate holds a P4
        x = find_induced_p4(g, region).a
        hosts = _path_hosts(g, comp, active, x, _certified_members(g, region & ~active))
    # a plain loop: before Python 3.12 a comprehension here would turn the
    # locals it reads into cells on every call
    family = []
    for h in hosts:
        family.append((s_mask, t_mask, h, depth + 1, active))
    _solve_family(g, family, comp, ambient | (host & ~comp), walk)
