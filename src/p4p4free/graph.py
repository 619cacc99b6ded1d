"""Immutable weighted graph over vertices 0..n-1 with bitmask adjacency.

Vertex sets are plain Python ints used as bitmasks, so membership, union,
difference and intersection are single machine operations and subproblems
are expressed as a live "host" mask over the original graph (no
re-indexing ever happens).  Iteration over a mask is always in ascending
vertex order, which is what makes every tie-break in the package
deterministic.

``components_with_certificates`` is the one decomposition primitive: it
certifies each complete bipartite component directly from the
neighbourhoods of its smallest vertex and of one vertex across, collects
any other component by a breadth-first search, and hands a component on
as plain ints: a complete bipartite one as its two sides, any other as
its member mask.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InputError, StructureViolation

__all__ = [
    "Graph",
    "SolveResult",
    "bits",
    "mask_of",
    "neighborhood",
    "components_with_certificates",
    "certified_result",
]


def bits(mask: int) -> Iterator[int]:
    """Yield the vertex ids present in ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Build a bitmask from an iterable of vertex ids."""
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


@dataclass(frozen=True)
class Graph:
    """Undirected graph with nonnegative integer vertex weights.

    Attributes:
        n: number of vertices (ids are 0..n-1).
        weights: per-vertex weight, nonnegative integers.
        adj: per-vertex neighbor bitmask; ``adj[u] >> v & 1`` tests an edge.
    """

    n: int
    weights: tuple[int, ...]
    adj: tuple[int, ...]

    @staticmethod
    def from_edges(
        n: int,
        edges: Iterable[tuple[int, int]],
        weights: Iterable[int] | None = None,
    ) -> "Graph":
        """Build a graph, validating ids, weights, and simple-ness.

        Args:
            n: vertex count.
            edges: iterable of (u, v) pairs, 0-based, no loops.
            weights: per-vertex nonnegative integers; defaults to all 1.

        Raises:
            InputError: on a vertex count that is not an int or is
                negative, on an edge that is not a pair of integers, on
                out-of-range ids, loops, or weights that are negative or
                not integers (a bool is not one here).
        """
        if type(n) is not int:
            raise InputError(f"vertex count must be an int, got {n!r}")
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        try:
            w = (1,) * n if weights is None else tuple(weights)
            # operator.index reads a bool as 0 or 1
            if bool in map(type, w):
                raise TypeError("a bool is no weight")
            w = tuple(map(operator.index, w))
        except TypeError as err:
            raise InputError(f"weights must be integers: {err}") from None
        if len(w) != n:
            raise InputError(f"expected {n} weights, got {len(w)}")
        if any(x < 0 for x in w):
            raise InputError("weights must be nonnegative")
        adj = [0] * n
        for edge in edges:
            try:
                u, v = edge
                if type(u) is bool or type(v) is bool:
                    raise TypeError("a bool is no vertex id")
                u, v = operator.index(u), operator.index(v)
            except (TypeError, ValueError) as err:
                raise InputError(f"edge {edge!r} is no integer pair: {err}") from None
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"loop at vertex {u} not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, w, tuple(adj))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def adjacent(self, u: int, v: int) -> bool:
        return self.adj[u] >> v & 1 == 1

    def weight_of(self, mask: int) -> int:
        """Total weight of the vertices in ``mask``."""
        w = self.weights
        total = 0
        while mask:
            low = mask & -mask
            total += w[low.bit_length() - 1]
            mask ^= low
        return total

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in ascending order."""
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(rest):
                yield u, v

    def _check_host(self, host: int | None = None) -> int:
        """``host`` checked against the vertex range, or the full mask for None."""
        if host is None:
            return self.full_mask
        # type(True) is bool, so a bool is refused with every non-int
        if type(host) is not int:
            raise InputError(f"host mask must be an int, got {host!r}")
        if host < 0 or host >> self.n:
            raise InputError(f"host mask {bin(host)} out of range for n={self.n}")
        return host


def neighborhood(g: Graph, u: int) -> int:
    """Open neighborhood N(U) of the vertex set ``u`` (a bitmask).

    Returns the union of the members' neighbors minus ``u`` itself.
    """
    g._check_host(u)
    out = 0
    m = u
    while m:
        low = m & -m
        out |= g.adj[low.bit_length() - 1]
        m ^= low
    return out & ~u


def _all_see_exactly(adj, host: int, side: int, across: int) -> bool:
    """Whether every vertex of ``side`` has exactly ``across`` as its
    neighbourhood in host."""
    while side:
        low = side & -side
        if adj[low.bit_length() - 1] & host != across:
            return False
        side ^= low
    return True


def components_with_certificates(
    g: Graph, host: int
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Decompose ``host`` and certify each component.

    Returns ``(certified, uncertified)``: the complete bipartite
    components as side pairs ``(side_a, side_b)``, side_a holding the
    smallest vertex, and the member masks of the others, each in
    smallest-vertex order.  A trivial component is ``(v, 0)``.

    Each component is certified directly from its smallest vertex s:
    side_b is the host neighbourhood of s and side_a that of the smallest
    vertex of side_b.  The component is complete bipartite exactly when
    every vertex of side_a has exactly side_b as its host neighbourhood
    and every vertex of side_b has exactly side_a.  Then no vertex is its
    own neighbour, so the sides are disjoint; each side is independent,
    every cross pair is an edge, and the union is closed under
    neighbourhoods, so it is the whole component.  A complete bipartite
    component passes, because its sides are the neighbourhoods of s and
    of any vertex across.  A component that fails is collected by a plain
    breadth-first search.
    """
    g._check_host(host)
    adj = g.adj
    certified, uncertified = [], []
    rest = host
    while rest:
        start = rest & -rest
        side_b = adj[start.bit_length() - 1] & host
        if not side_b:
            certified.append((start, 0))
            rest ^= start
            continue
        side_a = adj[(side_b & -side_b).bit_length() - 1] & host
        if _all_see_exactly(adj, host, side_a, side_b) and _all_see_exactly(
            adj, host, side_b, side_a
        ):
            certified.append((side_a, side_b))
            rest &= ~(side_a | side_b)
            continue
        comp = frontier = start
        while frontier:
            grow = 0
            m = frontier
            while m:
                low = m & -m
                grow |= adj[low.bit_length() - 1]
                m ^= low
            frontier = grow & host & ~comp
            comp |= frontier
        uncertified.append(comp)
        rest &= ~comp
    return tuple(certified), tuple(uncertified)


@dataclass(frozen=True)
class SolveResult:
    """An independent set found by a solver.

    Attributes:
        weight: total weight of ``chosen``.
        chosen: the vertices, ascending.
    """

    weight: int
    chosen: tuple[int, ...]


def certified_result(g: Graph, mask: int) -> SolveResult:
    """Wrap a solution mask in a SolveResult, re-verifying it first.

    Every public return path goes through this: the chosen set is checked
    for independence and the weight is recomputed from scratch, so a bug in
    the branching machinery cannot silently return garbage.

    Raises:
        StructureViolation: the set is not independent, an internal fault.
    """
    adj, weights = g.adj, g.weights
    total = 0
    chosen = []
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        if adj[v] & mask:
            raise StructureViolation(
                f"self-certification failed: vertex {v} has a chosen neighbor",
                ("dependent_set", mask),
            )
        total += weights[v]
        chosen.append(v)
        m ^= low
    return SolveResult(total, tuple(chosen))
