"""Base-case solver: hosts whose components are all complete bipartite.

A maximum weight independent set of such a graph is assembled per
component: trivial components are always taken (weights are nonnegative),
and for a complete bipartite component the heavier side wins, with ties
going to the side containing the component's smallest vertex.  This is the
leaf every branching route in the package eventually reduces to.

``cb_weight_mask`` is the internal leaf and explains a component that
fails its certificate; ``solve_cb_components`` decides membership of the
whole graph first and refuses a non-member with a re-checked witness.
"""

from __future__ import annotations

from .errors import StructureViolation
from .graph import Graph, SolveResult, certified_result, components_with_certificates
from .recognition import is_class_member, uncertified_p4, verified_member

__all__ = ["solve_cb_components", "cb_weight_mask", "heavier_side"]


def heavier_side(g: Graph, sides: tuple[int, int]) -> tuple[int, int]:
    """(weight, side) of the heavier side of a component's certificate.

    Ties go to side_a, which holds the component's smallest vertex; a
    trivial component's certificate (self, empty) yields the vertex itself.
    """
    side_a, side_b = sides
    w_a, w_b = g.weight_of(side_a), g.weight_of(side_b)
    return (w_b, side_b) if w_b > w_a else (w_a, side_a)


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
    total = chosen = 0
    for comp in components_with_certificates(g, host):
        if comp.sides is None:
            p4 = uncertified_p4(g, comp.members)
            raise StructureViolation(
                "component expected to be complete bipartite is not",
                ("incomplete_component", comp.members, p4),
            )
        w, side = heavier_side(g, comp.sides)
        total += w
        chosen |= side
    return total, chosen


def solve_cb_components(g: Graph, host: int | None = None) -> SolveResult:
    """Solve a host whose components are all complete bipartite.

    Raises:
        ClassViolation: g is outside the supported class, even when g[host]
            alone would solve; the witness has been re-checked against g.
        StructureViolation: a component of g[host] is not complete
            bipartite (the witness carries an induced P4 of it).
    """
    if host is None:
        host = g.full_mask
    g._check_host(host)
    with verified_member(g, is_class_member(g)):
        _, mask = cb_weight_mask(g, host)
    return certified_result(g, mask)
