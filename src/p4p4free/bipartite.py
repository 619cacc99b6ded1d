"""Base-case solver: hosts whose components are all complete bipartite.

A maximum weight independent set of such a graph is assembled per
component: trivial components are always taken (weights are nonnegative),
and for a complete bipartite component the heavier side wins, with ties
going to the side containing the component's smallest vertex.  This is the
leaf every branching route in the package eventually reduces to.

``side_selection`` is that rule, written once: every layer that solves
certified components calls it on their side pairs.  ``cb_weight_mask`` is
the internal leaf and explains a component that fails its certificate;
``solve_cb_components`` decides membership of the whole graph first and
refuses a non-member with a re-checked witness.
"""

from __future__ import annotations

from .errors import StructureViolation
from .graph import (
    Graph,
    SolveResult,
    _union,
    certified_result,
    components_with_certificates,
)
from .recognition import _membership, _refusal, uncertified_p4, verified_member

__all__ = ["solve_cb_components", "cb_weight_mask", "side_selection", "lp_bound"]


def side_selection(g: Graph, certified) -> tuple[int, int]:
    """(weight, mask) of the heavier side of each certified component.

    ``certified`` holds side pairs as ``components_with_certificates``
    returns them.  Ties go to side_a, which holds the component's smallest
    vertex, so a trivial component ``(v, 0)`` yields v itself.
    """
    weights = g.weights
    total = chosen = 0
    for side_a, side_b in certified:
        if not side_b:
            total += weights[side_a.bit_length() - 1]
            chosen |= side_a
            continue
        w_a, w_b = g.weight_of(side_a), g.weight_of(side_b)
        if w_b > w_a:
            total += w_b
            chosen |= side_b
        else:
            total += w_a
            chosen |= side_a
    return total, chosen


def cb_weight_mask(g: Graph, host: int) -> tuple[int, int]:
    """(weight, mask) of a maximum weight independent set of g[host].

    Requires every nontrivial component of g[host] to carry a
    complete-bipartite certificate.

    Raises:
        ClassViolation: a component fails certification because of a
            triangle.
        StructureViolation: a component is triangle-free but still not
            complete bipartite (the witness carries an induced P4 of it).
    """
    certified, uncertified = components_with_certificates(g, host)
    if uncertified:
        comp = uncertified[0]
        raise StructureViolation(
            "component expected to be complete bipartite is not",
            ("incomplete_component", comp, uncertified_p4(g, comp)),
        )
    return side_selection(g, certified)


def lp_bound(g: Graph, host: int) -> int:
    """Upper bound on the weight of an independent set of g[host]: the
    floor of its Nemhauser–Trotter LP value, exact when g[host] is
    bipartite (König–Egerváry).

    The LP value is W - F/2, with W the weight of host and F the maximum
    flow of the bipartite double cover: source -> v' and v'' -> sink with
    capacity w(v), and u' -> v'' unbounded for each edge uv of g[host] in
    both directions.  F is the least weight of a vertex cover of the
    double cover, so 2W - F is its heaviest independent set, twice the LP
    value.  The flow starts greedy: each u', in ascending order, sends
    what it can straight to its v'' in ascending order.  Shortest
    augmenting paths on vertex masks then raise it to a maximum: each
    search layers the residual graph breadth-first, alternating v' and v''
    layers, and augments along one path walked back through the layers.
    Every per-vertex table holds host's vertices only.
    """
    adj, weights = g.adj, g.weights
    nbrs, src, snk, back = {}, {}, {}, {}
    # the v' with residual source capacity and the v'' with residual sink
    # capacity; an isolated or weightless vertex carries no flow
    supply = whole = 0
    m = host
    while m:
        low = m & -m
        v = low.bit_length() - 1
        nbrs[v] = adj[v] & host
        src[v] = snk[v] = weights[v]
        whole += weights[v]
        back[v] = 0  # every u' with flow into v''
        if nbrs[v] and weights[v]:
            supply |= low
        m ^= low
    demand = supply
    flow: dict[tuple[int, int], int] = {}  # (u, v): flow on u' -> v''
    total = 0
    # the greedy start: each u' in ascending order (nbrs holds host in
    # order) sends what it can to its v'' in ascending order; a u' outside
    # supply has no arc or no capacity, and sends nothing
    for u in nbrs:
        spare = src[u]
        arcs = nbrs[u] & demand
        while arcs and spare:
            low = arcs & -arcs
            v = low.bit_length() - 1
            d = min(spare, snk[v])
            flow[u, v] = d
            back[v] |= 1 << u
            total += d
            spare -= d
            snk[v] -= d
            if not snk[v]:
                demand ^= low
            arcs ^= low
        src[u] = spare
        if not spare:
            supply &= ~(1 << u)
    # without residual source or sink capacity no augmenting path is left
    while supply and demand:
        # (v' mask, v'' mask) per layer: u' -> v'' is never full, and
        # v'' -> u' is open while u' sends flow to v''
        layers = []
        left, seen_l, seen_r = supply, supply, 0
        while left:
            right = _union(nbrs, left) & ~seen_r
            if right & demand:
                layers.append((left, right & demand))
                break
            layers.append((left, right))
            seen_r |= right
            left = _union(back, right) & ~seen_l
            seen_l |= left
        else:
            break  # the sink is out of reach: the flow is maximum
        # one shortest augmenting path, walked back from the least v'' of
        # the last layer: a v'' of layer i has a u' of layer i among its
        # neighbours, and a u' of layer i > 0 sends flow to a v'' of layer
        # i - 1 (the least is taken); the path alternates u' (even index)
        # and v'' (odd index)
        v = (layers[-1][1] & -layers[-1][1]).bit_length() - 1
        path = []
        for i in range(len(layers) - 1, -1, -1):
            arcs = nbrs[v] & layers[i][0]
            u = (arcs & -arcs).bit_length() - 1
            path += (v, u)
            if i:
                m = layers[i - 1][1]
                while not back[(m & -m).bit_length() - 1] >> u & 1:
                    m &= m - 1
                v = (m & -m).bit_length() - 1
        path.reverse()
        d = min(src[path[0]], snk[path[-1]])
        for j in range(1, len(path) - 1, 2):
            d = min(d, flow[path[j + 1], path[j]])
        total += d
        src[path[0]] -= d
        if not src[path[0]]:
            supply ^= 1 << path[0]
        snk[path[-1]] -= d
        if not snk[path[-1]]:
            demand ^= 1 << path[-1]
        for j in range(0, len(path), 2):
            u, v = path[j], path[j + 1]
            flow[u, v] = flow.get((u, v), 0) + d
            back[v] |= 1 << u
            if j + 2 < len(path):
                w = path[j + 2]
                flow[w, v] -= d
                if not flow[w, v]:
                    back[v] ^= 1 << w
    return (2 * whole - total) // 2


def solve_cb_components(g: Graph, host: int | None = None) -> SolveResult:
    """Solve a host whose components are all complete bipartite.

    Raises:
        ClassViolation: g is outside the supported class, even when g[host]
            alone would solve; the witness has been re-checked against g.
        StructureViolation: a component of g[host] is not complete
            bipartite (the witness carries an induced P4 of it).
    """
    host = g._check_host(host)
    witness = _membership(g)[0]
    if witness is not None:
        raise _refusal(g, witness) from None
    with verified_member():
        _, mask = cb_weight_mask(g, host)
    return certified_result(g, mask)
