"""Immutable weighted graph over vertices 0..n-1 with bitmask adjacency.

Vertex sets are plain Python ints used as bitmasks, so membership, union,
difference and intersection are single machine operations and subproblems
are expressed as a live "host" mask over the original graph (no
re-indexing ever happens).  Iteration over a mask is always in ascending
vertex order, which is what makes every tie-break in the package
deterministic.

``_union`` is the one adjacency-union loop (the OR of a per-vertex table
over a mask), for ``neighborhood``, the search below, ``lp_bound``,
``solver._optimum_oracle`` and ``certified_result``, which re-checks
every answer with ``_union`` and weighs the vertices ``bits`` lists.  A
``Graph`` is validated however it is built, directly or by
``from_edges``, and ``mask_of`` and ``Graph.adjacent`` check the vertex
ids they are given.

``_certificate`` is the one complete-bipartite certificate: the sides of
a vertex's component, from the neighbourhoods of that vertex and of one
vertex across, when every vertex of each side sees exactly the other.
It has three callers.  ``components_with_certificates``, the one
decomposition primitive, certifies each component from its smallest
vertex, collects any other component by a breadth-first search, and
hands a component on as plain ints: a complete bipartite one as its two
sides, any other as its member mask.  ``_all_certified`` is the same
test as a yes-or-no answer that stops at the first component to fail,
for the sets the membership scan tests.  ``recognition._front``, the
membership's front pass, certifies each component as its triangle search
reaches it.  Each reads a vertex's host neighbourhood first, and takes a
lone vertex as its own component without the certificate.
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
    """Yield the vertex ids present in ``mask`` in ascending order; a mask
    that is no nonnegative int is an ``InputError`` (-1 has no top vertex)."""
    if type(mask) is not int or mask < 0:
        raise InputError(f"a vertex mask must be a nonnegative int, got {mask!r}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Build a bitmask from an iterable of vertex ids; an id that is no
    nonnegative int (a bool is none) is an ``InputError``."""
    out = 0
    for v in vertices:
        if type(v) is not int or v < 0:
            raise InputError(f"a vertex id must be a nonnegative int, got {v!r}")
        out |= 1 << v
    return out


def _union(table, mask: int) -> int:
    """The OR of ``table[v]`` over the vertices v of ``mask``, unchecked."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _check_count(n) -> None:
    if type(n) is not int:
        raise InputError(f"vertex count must be an int, got {n!r}")
    if n < 0:
        raise InputError(f"vertex count must be nonnegative, got {n}")


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

    def __post_init__(self) -> None:
        # each failure is an InputError; the adjacency is symmetric exactly
        # when its arcs are twice the arcs down whose arc back up exists
        n, weights, adj = self.n, self.weights, self.adj
        _check_count(n)
        # type() refuses a bool, an int subclass, with every other non-int
        if type(weights) is not tuple or len(weights) != n or not set(map(type, weights)) <= {int}:
            raise InputError(f"expected a tuple of {n} integer weights, got {weights!r}")
        if min(weights, default=0) < 0:
            raise InputError("weights must be nonnegative")
        if type(adj) is not tuple or len(adj) != n:
            raise InputError(f"expected a tuple of {n} adjacency masks, got {adj!r}")
        arcs = pairs = 0
        for v, row in enumerate(adj):
            if type(row) is not int or row < 0 or row >> n or row >> v & 1:
                raise InputError(f"adjacency of vertex {v} is no loopless mask in range: {row!r}")
            arcs += row.bit_count()
            down = row & ((1 << v) - 1)
            while down:
                u = down & -down
                pairs += adj[u.bit_length() - 1] >> v & 1
                down ^= u
        if arcs != 2 * pairs:
            raise InputError("adjacency is not symmetric")

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
        _check_count(n)
        try:
            w = (1,) * n if weights is None else tuple(weights)
            # operator.index reads a bool as 0 or 1
            if bool in map(type, w):
                raise TypeError("a bool is no weight")
            w = tuple(map(operator.index, w))
        except TypeError as err:
            raise InputError(f"weights must be integers: {err}") from None
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
        """Whether uv is an edge; an id outside 0..n-1, a bool or a
        non-int is an ``InputError``."""
        for x in (u, v):
            if type(x) is not int or not 0 <= x < self.n:
                raise InputError(f"no vertex id of a graph on {self.n} vertices: {x!r}")
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
    return _union(g.adj, u) & ~u


def _certificate(adj, host: int, low: int, side_b: int) -> tuple[int, int] | None:
    """The sides ``(side_a, side_b)`` of the component of g[host] holding
    the vertex s of the one-bit mask ``low`` when that component is
    complete bipartite, side_a holding s, else None.  ``side_b`` is the
    host neighbourhood of s, which the caller has read: nonzero, since a
    lone vertex is its own component ``(low, 0)`` and needs no check.

    side_a is the host neighbourhood of the smallest vertex of side_b.
    The component is complete bipartite exactly when every vertex of
    side_a has exactly side_b as its host neighbourhood and every vertex
    of side_b has exactly side_a.  Then no vertex is its own neighbour,
    so the sides are disjoint; each side is independent, every cross pair
    is an edge, and the union is closed under neighbourhoods, so it is
    the whole component.  A complete bipartite component passes from any
    of its vertices, because its sides are the neighbourhoods of s and of
    any vertex across.
    """
    first = side_b & -side_b
    side_a = adj[first.bit_length() - 1] & host
    # s sees side_b and first sees side_a by their definitions
    rest = side_b ^ first
    while rest:
        v = rest & -rest
        if adj[v.bit_length() - 1] & host != side_a:
            return None
        rest ^= v
    rest = side_a ^ low
    while rest:
        v = rest & -rest
        if adj[v.bit_length() - 1] & host != side_b:
            return None
        rest ^= v
    return side_a, side_b


def _all_certified(adj, host: int) -> bool:
    """Whether every component of host is complete bipartite, each
    certified by ``_certificate``; in a triangle-free graph, whether
    g[host] holds no induced P4."""
    while host:
        low = host & -host
        row = adj[low.bit_length() - 1] & host
        if not row:
            host ^= low  # a lone vertex
            continue
        sides = _certificate(adj, host, low, row)
        if sides is None:
            return False
        host &= ~(sides[0] | sides[1])
    return True


def components_with_certificates(
    g: Graph, host: int
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Decompose ``host`` and certify each component.

    Returns ``(certified, uncertified)``: the complete bipartite
    components as side pairs ``(side_a, side_b)``, side_a holding the
    smallest vertex, and the member masks of the others, each in
    smallest-vertex order.  A trivial component is ``(v, 0)``.

    Each component is certified from its smallest vertex
    (``_certificate``), and one that fails is collected by a plain
    breadth-first search.
    """
    g._check_host(host)
    adj = g.adj
    certified, uncertified = [], []
    rest = host
    while rest:
        start = rest & -rest
        row = adj[start.bit_length() - 1] & host
        sides = _certificate(adj, host, start, row) if row else (start, 0)
        if sides is not None:
            certified.append(sides)
            rest &= ~(sides[0] | sides[1])
            continue
        comp = frontier = start
        while frontier:
            frontier = _union(adj, frontier) & host & ~comp
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
        InputError: mask is no int mask over g's vertices.
        StructureViolation: the set is not independent, an internal fault;
            the least vertex with a chosen neighbour is named.
    """
    mask = g._check_host(mask)
    dependent = _union(g.adj, mask) & mask
    if dependent:
        v = (dependent & -dependent).bit_length() - 1
        raise StructureViolation(
            f"self-certification failed: vertex {v} has a chosen neighbor",
            ("dependent_set", mask),
        )
    chosen = tuple(bits(mask))
    return SolveResult(sum(map(g.weights.__getitem__, chosen)), chosen)
