"""Recognition of the supported graph class and P4-centered structure.

The solver works on triangle-free graphs that contain no two induced P4s
that are vertex-disjoint and mutually non-adjacent.  Membership is decided
directly from that definition: a triangle search first, then for every
induced P4 a search for a second P4 inside its anti-neighborhood (any two
independent P4s certify non-membership this way, because the second one
lies entirely at distance >= 2 from the first).  A connected triangle-free
graph without an induced P4 is complete bipartite, so paths are sought
only in the components without a certificate.  One front pass
(``_front``) searches for the least triangle and finds those components
together: a component that certifies complete bipartite holds no
triangle, and leaves the pass before any of its other vertices is
searched.

The membership scan keeps no path and visits few (see ``_p4_pair``):
the paths of a middle edge (b, c) are passed over when home minus N(b)
and N(c), which holds each of their anti-neighborhoods, holds no P4, so
on a crown the scan's time follows the edges, not the paths.  Paths are
plain ``(a, b, c, d)`` tuples, drawn lazily in ascending order by
``_canonical_p4s`` for the solver and the enumeration; an ``InducedP4``
is built only where a path leaves the package (a witness, an
enumeration).

Around a fixed induced P4 (a, b, c, d), triangle-freeness pins every
neighbor of the path to one of seven adjacency traces: {a}, {b}, {c}, {d},
{a,c}, {a,d}, {b,d}.  Any other trace contains two consecutive path
vertices and exhibits a triangle.  ``_trace_classes`` computes those seven
classes plus the anti-neighborhood as a plain tuple of masks, and all of
the branching machinery downstream is phrased in terms of them;
``neighborhood_partition`` checks a caller's path and host, the one place
they are checked, and wraps that kernel in a dataclass.  The classes of
the reversed path d-c-b-a are the same masks with a↔d, b↔c and ac↔bd
swapped, as the solver's {b, d} draw reads them.

Every public solver decides membership before it branches.  A refusal
is a plain witness in ints until the public call raises it, in its own
frame with no cause: ``_refusal`` (the one spelling, for the solvers, the
CLI's ``check`` and ``MembershipVerdict.violation()``) re-checks it with
``witness_holds`` and returns the ``ClassViolation``; a witness that does
not re-check is an internal fault, and so is a ``ClassViolation`` raised
in a member's block (``verified_member``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ClassViolation, InputError, StructureViolation
from .graph import Graph, _all_certified, _certificate, bits

__all__ = [
    "InducedP4",
    "NeighborhoodPartition",
    "MembershipVerdict",
    "find_triangle",
    "enumerate_induced_p4",
    "find_induced_p4",
    "uncertified_p4",
    "is_class_member",
    "witness_holds",
    "verified_member",
    "neighborhood_partition",
]


@dataclass(frozen=True)
class InducedP4:
    """An induced path on four vertices a-b-c-d.

    Enumeration emits each path once in canonical orientation (a < d);
    ``reverse()`` produces the other orientation when an operation needs
    the path read end-to-start.
    """

    a: int
    b: int
    c: int
    d: int

    @property
    def vertices(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    @property
    def mask(self) -> int:
        return 1 << self.a | 1 << self.b | 1 << self.c | 1 << self.d

    def reverse(self) -> "InducedP4":
        return InducedP4(self.d, self.c, self.b, self.a)


def _check_induced_p4(g: Graph, vs: tuple[int, int, int, int]) -> None:
    """Raise ``InputError`` unless ``vs`` induces the path a-b-c-d in g."""
    a, b, c, d = vs
    n = g.n
    # type(True) is bool, so a bool is refused with every non-int
    in_range = (
        type(a) is type(b) is type(c) is type(d) is int
        and 0 <= a < n and 0 <= b < n and 0 <= c < n and 0 <= d < n
    )
    if not in_range or len({a, b, c, d}) != 4:
        raise InputError(f"not four distinct vertices: {vs}")
    adj = g.adj
    path = adj[a] >> b & adj[b] >> c & adj[c] >> d & 1
    chords = (adj[a] >> c | adj[a] >> d | adj[b] >> d) & 1
    if not path or chords:
        raise InputError(f"{vs} does not induce a P4")


def find_triangle(g: Graph, host: int | None = None) -> tuple[int, int, int] | None:
    """Lexicographically least triangle (u, v, w), u < v < w, or None;
    the front pass's (``_front``)."""
    return _front(g.adj, g._check_host(host))[0]


def _holds_no_p4(adj, known: dict, mask: int) -> bool:
    """Whether g[mask] holds no P4, for a triangle-free g: fewer than 4
    vertices hold none, and a larger mask is certified once per ``known``,
    a dict from each mask tested to its answer."""
    if mask.bit_count() < 4:
        return True
    free = known.get(mask)
    if free is None:
        free = known[mask] = _all_certified(adj, mask)
    return free


def _p4_scan(g: Graph, host: int, known: dict | None = None):
    """Yield the canonical induced P4s of g[host] (each exactly once,
    a < d) as plain ``(a, b, c, d)`` tuples.  Given ``known``, on a
    triangle-free g, the paths of a middle edge (b, c) are passed over
    when host - N(b) - N(c) holds no P4 (``_holds_no_p4``).

    Iterates over ordered middle edges (b, c); for the canonical
    orientation only one of the two orders survives the a < d filter, so no
    deduplication is needed.  Yield order is scan order: ascending by
    (b, c, a, d).  Callers that hand a path on wrap it in ``InducedP4``.
    """
    adj = g.adj
    bs = host
    while bs:
        b_low = bs & -bs
        bs ^= b_low
        b = b_low.bit_length() - 1
        adj_b = adj[b] & host
        cs = adj_b
        while cs:
            c_low = cs & -cs
            cs ^= c_low
            c = c_low.bit_length() - 1
            adj_c = adj[c] & host
            a_cand = adj_b & ~adj_c & ~c_low
            d_cand = adj_c & ~adj_b & ~b_low
            # a canonical path needs a d above the least a
            if not a_cand or d_cand <= a_cand & -a_cand:
                continue
            if known is not None and _holds_no_p4(adj, known, host & ~(adj[b] | adj[c])):
                continue
            while a_cand:
                a_low = a_cand & -a_cand
                a_cand ^= a_low
                a = a_low.bit_length() - 1
                ds = d_cand & ~adj[a] & ~((a_low << 1) - 1)
                while ds:
                    d_low = ds & -ds
                    ds ^= d_low
                    yield (a, b, c, d_low.bit_length() - 1)


def _canonical_p4s(g: Graph, host: int):
    """Yield the induced P4s of g[host] as ``(a, b, c, d)`` tuples with
    a < d, in ascending tuple order: a, then b in N(a), c in N(b) - N[a],
    and d > a in N(c) - N(a) - N(b)."""
    adj = g.adj
    above = host  # the vertices above a, once a is taken off
    while above:
        a_low = above & -above
        above ^= a_low
        a = a_low.bit_length() - 1
        off_a = ~adj[a]
        d_off_a = above & off_a
        if not d_off_a:
            continue
        c_off_a = host & off_a & ~a_low
        bs = adj[a] & host
        while bs:
            b_low = bs & -bs
            bs ^= b_low
            b = b_low.bit_length() - 1
            adj_b = adj[b]
            cs = adj_b & c_off_a
            ds_off = d_off_a & ~adj_b
            while cs and ds_off:
                c_low = cs & -cs
                cs ^= c_low
                c = c_low.bit_length() - 1
                ds = adj[c] & ds_off
                while ds:
                    d_low = ds & -ds
                    ds ^= d_low
                    yield (a, b, c, d_low.bit_length() - 1)


def enumerate_induced_p4(g: Graph, host: int | None = None) -> list[InducedP4]:
    """All induced P4s of g[host], canonical (a < d), lexicographic order."""
    host = g._check_host(host)
    return [InducedP4(*t) for t in _canonical_p4s(g, host)]


def find_induced_p4(g: Graph, host: int | None = None) -> InducedP4 | None:
    """Some induced P4 of g[host], or None; deterministic, early exit."""
    host = g._check_host(host)
    t = next(_p4_scan(g, host), None)
    return None if t is None else InducedP4(*t)


def uncertified_p4(g: Graph, comp: int) -> InducedP4:
    """Explain why the connected component ``comp`` is not complete
    bipartite: an induced P4 inside it.

    A connected triangle-free graph that is not complete bipartite has an
    induced P4, so a component without a certificate has a triangle or a
    path.

    Raises:
        ClassViolation: the component contains a triangle (witness
            attached).
    """
    tri = find_triangle(g, comp)
    if tri is not None:
        raise ClassViolation("component contains a triangle", ("triangle", tri))
    return find_induced_p4(g, comp)


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of ``is_class_member`` with a witness for rejections.

    Exactly one of ``triangle`` / ``p4_pair`` is set when ``is_member`` is
    False: either three mutually adjacent vertices, or two induced P4s that
    are vertex-disjoint with no edges between them.
    """

    is_member: bool
    triangle: tuple[int, int, int] | None = None
    p4_pair: tuple[InducedP4, InducedP4] | None = None

    def __bool__(self) -> bool:
        """``if is_class_member(g):`` reads ``is_member``."""
        return self.is_member

    def violation(self) -> ClassViolation | None:
        """The refusal this verdict stands for, unchecked; None for a member."""
        if self.triangle is not None:
            return _refusal(None, ("triangle", self.triangle))
        if self.p4_pair is not None:
            return _refusal(None, ("p4_pair", tuple(p.vertices for p in self.p4_pair)))
        return None


_MEMBER = MembershipVerdict(True)  # every member's verdict, shared


def is_class_member(g: Graph) -> MembershipVerdict:
    """Decide membership in the supported class, with witnesses.

    The least triangle is searched first, in one pass that skips every
    component certified complete bipartite (see ``_front``); a triangle
    is refused when the pass reaches its least vertex.  Then, only in the
    components without a certificate (where every P4 lies), each induced
    P4 in scan order has its anti-neighborhood searched for a second P4;
    the two are disjoint and mutually non-adjacent, a genuine witness.
    Verdict and witness equal those of the same scan over the whole graph,
    though an anti-neighborhood that cannot hold a P4 is not searched (see
    ``_p4_pair``).  The verdict is built where its witness is found.
    """
    tri, home, _ = _front(g.adj, g.full_mask)
    if tri is not None:
        return MembershipVerdict(False, tri)
    pair = _p4_pair(g, home)
    if pair is None:
        return _MEMBER
    return MembershipVerdict(False, None, (InducedP4(*pair[0]), pair[1]))


def _front(adj, host: int):
    """One pass over the vertices of ``host`` in ascending order, the
    front step of membership: ``(triangle, home, side pairs)``.
    ``triangle`` is the lexicographically least triangle of g[host], and
    home and the pairs are then 0 and ``()``; else it is None, home is the
    union of the components without a complete-bipartite certificate, and
    the side pairs are the certified ones', as
    ``components_with_certificates(g, host)`` gives them.

    Each live vertex u is searched for a triangle whose least vertex is
    u: the least neighbour v above u with a neighbour among u's
    neighbours above u, and the least such neighbour w of v, which lies
    above v.  A vertex with no neighbour below it then tries the
    certificate (``graph._certificate``): it may be the least vertex of
    its component, and a certified component leaves the live set at once,
    so none of its vertices is searched or visited again.  A neighbour
    below u lies in u's component, which is then one whose least vertex
    failed the certificate.  Every triangle lies in a component without a
    certificate, whose every vertex is searched in order, so the first
    triangle found is the least.
    """
    certified = []
    done = 0  # the certified vertices
    live = host
    while live:
        low = live & -live
        live ^= low
        row = adj[low.bit_length() - 1] & host
        # live is every vertex above u less the certified components,
        # which hold no neighbour of u: cand is every neighbour above u
        m = cand = row & live
        while m:
            v_low = m & -m
            common = adj[v_low.bit_length() - 1] & cand
            if common:
                u, v = low.bit_length() - 1, v_low.bit_length() - 1
                return (u, v, (common & -common).bit_length() - 1), 0, ()
            m ^= v_low
        if row != cand:
            continue  # u has a neighbour below it
        sides = _certificate(adj, host, low, row) if row else (low, 0)
        if sides is not None:
            certified.append(sides)
            comp = sides[0] | sides[1]
            done |= comp
            live &= ~comp
    return None, host & ~done, tuple(certified)


def _membership(g: Graph) -> tuple[tuple | None, int, tuple[tuple[int, int], ...]]:
    """``(witness, home, side pairs)``: the refusal's witness in plain
    ints, as ``ClassViolation`` carries it, None for a member; home, the
    union of the components without a complete-bipartite certificate; and
    the certified ones' side pairs, as ``components_with_certificates(g,
    g.full_mask)`` gives them (home 0 and no pairs after a triangle).  The
    front pass (``_front``) gives all three, refusing a triangle on
    reaching its least vertex, and ``_p4_pair`` the pair.
    """
    tri, home, certified = _front(g.adj, g.full_mask)
    if tri is not None:
        return ("triangle", tri), 0, ()
    pair = _p4_pair(g, home)
    if pair is not None:
        return ("p4_pair", (pair[0], pair[1].vertices)), home, certified
    return None, home, certified


def _p4_pair(g: Graph, home: int) -> tuple[tuple, InducedP4] | None:
    """The first path of the triangle-free g[home] in scan order whose
    region, home minus its closed neighbourhood, holds a P4, with the P4
    found there, or None.  The scan keeps no path.  Every region lies in
    S = home - N(b) - N(c) of its middle edge (b, c), and holding no P4 is
    hereditary, so the scan passes over the paths of an edge whose S holds
    none, and tests the regions of the others' paths in scan order.  A
    mask is tested once per call, by certifying its components complete
    bipartite, and one of fewer than 4 vertices holds no P4.
    ``find_induced_p4`` runs only on the region that fails.  The pair is
    the full scan's: every region passed over holds no P4, so the first
    path in scan order whose region holds one is still searched, on that
    same region, and the search returns the same second path.
    """
    adj = g.adj
    known: dict[int, bool] = {}
    for t in _p4_scan(g, home, known):
        a, b, c, d = t
        # each path vertex is a neighbour of another, so this is home
        # minus the path's closed neighbourhood
        region = home & ~(adj[a] | adj[b] | adj[c] | adj[d])
        if not _holds_no_p4(adj, known, region):
            # a connected triangle-free part without a certificate holds a
            # P4, and the search finds the scan's first
            return t, find_induced_p4(g, region)
    return None


def _stays_member(adj, edges) -> bool:
    """Whether a member stays one when ``edges``, pairs of non-adjacent
    vertices, are added to it.  ``adj`` must be the adjacency of a class
    member, a precondition not checked; it is left as it is.

    Every forbidden pattern of the new graph uses a new edge.  A triangle
    of old edges would lie in the member.  Of two separated induced P4s,
    one has a new edge as a path edge: a path whose three edges are old
    is induced in the member too, which has no edge the new graph lacks,
    and two such paths, separated in the new graph, are separated in the
    member.  So each new edge (x, y) is tested for a triangle, and then
    only the induced P4s with a new path edge are drawn, that edge at an
    end (x-y-r-s, in both orientations) or in the middle (a-x-y-d).  Each
    has its region, the vertices off its closed neighbourhood, tested
    for a P4 by certification, exact on a triangle-free graph.
    """
    adj = list(adj)
    for x, y in edges:
        adj[x] |= 1 << y
        adj[y] |= 1 << x
    for x, y in edges:
        if adj[x] & adj[y]:
            return False
    full = (1 << len(adj)) - 1
    known: dict[int, bool] = {}
    for x, y in edges:
        # a path through x and y has its region off N(x) and N(y), and
        # holding no P4 is hereditary
        if _holds_no_p4(adj, known, full & ~(adj[x] | adj[y])):
            continue
        # no triangle, so a-x-y-d and x-y-r-s are induced once a, d and
        # s avoid the neighbours shown
        paths = [
            (a, x, y, d)
            for a in bits(adj[x] & ~(1 << y))
            for d in bits(adj[y] & ~(1 << x) & ~adj[a])
        ]
        for p, q in ((x, y), (y, x)):
            for r in bits(adj[q] & ~(1 << p)):
                paths += [(p, q, r, s) for s in bits(adj[r] & ~adj[p] & ~(1 << q))]
        for a, b, c, d in paths:
            region = full & ~(adj[a] | adj[b] | adj[c] | adj[d])
            if not _holds_no_p4(adj, known, region):
                return False
    return True


def witness_holds(g: Graph, witness) -> bool:
    """Re-check a refusal witness against ``g``.

    Accepts ``("triangle", (u, v, w))`` with three mutually adjacent
    vertices, and ``("p4_pair", (p, q))`` with two vertex tuples that each
    induce a P4 and are vertex-disjoint with no edge between them, on the
    adjacency masks; a malformed witness does not hold.
    """
    if not isinstance(witness, tuple) or len(witness) != 2:
        return False
    kind, body = witness
    adj, n = g.adj, g.n
    try:
        if kind == "triangle":
            u, v, w = body
            # g has no loops, so three adjacent pairs are three vertices
            return (
                type(u) is type(v) is type(w) is int
                and 0 <= u < n and 0 <= v < n and 0 <= w < n
                and adj[u] >> v & adj[v] >> w & adj[u] >> w & 1 == 1
            )
        if kind == "p4_pair":
            p, q = body
            _check_induced_p4(g, p)
            _check_induced_p4(g, q)
            (a, b, c, d), (w, x, y, z) = p, q
            # each vertex of q has a neighbour on q, so this is N[q]
            closed = adj[w] | adj[x] | adj[y] | adj[z]
            return not (1 << a | 1 << b | 1 << c | 1 << d) & closed
    except (TypeError, ValueError):
        return False
    return False


def _refusal(g: Graph | None, witness: tuple) -> ClassViolation:
    """The ``ClassViolation`` refusing g with the plain ``witness``, for
    the public call to raise, once ``witness_holds`` re-checks it against
    g (g None: unchecked, for ``MembershipVerdict.violation()``); one that
    does not hold raises an internal fault, the ``StructureViolation``
    ``("unchecked_witness", witness)``, from the refusal."""
    refusal = ClassViolation(
        "graph contains a triangle" if witness[0] == "triangle"
        else "an induced four-vertex path lies fully outside another's closed neighborhood",
        witness,
    )
    if g is None or witness_holds(g, witness):
        return refusal
    raise StructureViolation(
        f"refusal witness does not hold: {refusal}", ("unchecked_witness", witness)
    ) from refusal


class verified_member:
    """``with verified_member():`` guards a block run on a verified
    member, once the public call has raised any refusal itself: a
    ``ClassViolation`` raised in the block is an internal fault and leaves
    as a ``StructureViolation`` carrying the same witness; every other
    exception leaves as it is.

    Raises:
        StructureViolation: the block raised a ``ClassViolation``.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, err, tb) -> bool:
        if isinstance(err, ClassViolation):
            raise StructureViolation(f"class member refused: {err}", err.witness) from err
        return False


@dataclass(frozen=True)
class NeighborhoodPartition:
    """The seven trace classes around an induced P4, plus the far part.

    Each field is a bitmask over the host.  ``s_a`` holds the vertices
    adjacent to a only, ``s_ac`` those adjacent to exactly a and c, and so
    on; ``anti`` holds the host vertices with no neighbor on the path.
    """

    p: InducedP4
    s_a: int
    s_b: int
    s_c: int
    s_d: int
    s_ac: int
    s_ad: int
    s_bd: int
    anti: int


def _trace_classes(
    g: Graph, vs: tuple[int, int, int, int], host: int
) -> tuple[int, int, int, int, int, int, int, int]:
    """The masks ``(s_a, s_b, s_c, s_d, s_ac, s_ad, s_bd, anti)`` of the
    induced path ``vs`` = (a, b, c, d) of g[host], an int mask holding it:
    ``neighborhood_partition`` unwrapped, with only its triangle check."""
    a, b, c, d = vs
    path = 1 << a | 1 << b | 1 << c | 1 << d
    adj = g.adj
    live = host & ~path
    na, nb, nc, nd = adj[a] & live, adj[b] & live, adj[c] & live, adj[d] & live
    clash = na & nb | nb & nc | nc & nd
    if clash:
        # the least such vertex, with its first consecutive pair
        v = (clash & -clash).bit_length() - 1
        sides = (na, nb, nc, nd)
        i = next(i for i in range(3) if (sides[i] & sides[i + 1]) >> v & 1)
        raise ClassViolation(
            f"vertex {v} is adjacent to consecutive path vertices "
            f"{vs[i]} and {vs[i + 1]}",
            ("triangle", tuple(sorted((v, vs[i], vs[i + 1])))),
        )
    # no vertex meets two consecutive path vertices, so each of the seven
    # traces is fixed by the path vertices it can still share
    return (
        na & ~(nc | nd),
        nb & ~nd,
        nc & ~na,
        nd & ~(na | nb),
        na & nc,
        na & nd,
        nb & nd,
        live & ~(na | nb | nc | nd),
    )


def neighborhood_partition(
    g: Graph, p: InducedP4, host: int | None = None
) -> NeighborhoodPartition:
    """Partition the path's host neighbors into the seven trace classes.

    Args:
        g: the graph.
        p: an induced P4 of g whose vertices all lie in ``host``.
        host: live vertex mask (defaults to all of g).

    Raises:
        InputError: p is no ``InducedP4``, does not induce a P4 in g, or
            leaves the host, or host is not an int in range.
        ClassViolation: when some neighbor's trace includes two consecutive
            path vertices; the witness is the resulting triangle.
    """
    if not isinstance(p, InducedP4):
        raise InputError(f"expected an InducedP4, got {p!r}")
    host = g._check_host(host)
    _check_induced_p4(g, p.vertices)
    if p.mask & ~host:
        raise InputError("path vertices must lie inside the host")
    return NeighborhoodPartition(p, *_trace_classes(g, p.vertices, host))
