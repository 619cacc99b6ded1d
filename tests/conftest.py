"""Shared graph builders and exhaustive mini-oracles for the test suite.

Four of them serve only as references and inputs for the package's
checks: ``wis_by_enumeration`` is a second, independent oracle,
``oracle_wis_containing`` the optimum through a forced set,
``konig_optimum`` the bipartite optimum by a minimum cut, sharing no code
with the package's ``bipartite``, and ``gen_split_instance`` draws split
instances from the package's seeded PRNG.  They take their arguments
unchecked.
"""

from __future__ import annotations

from itertools import combinations

from p4p4free.constrained import _solve_containing
from p4p4free.graph import Graph, SolveResult, bits, certified_result, mask_of, neighborhood
from p4p4free.recognition import _trace_classes, is_class_member
from p4p4free.testkit import (
    XorShift64Star,
    _better,
    _blocks_from_pool,
    _random_weights,
    oracle_wis,
)

acceptance_report: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_report:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report:
            terminalreporter.write_line(line)


def path_graph(n: int, weights=None) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], weights)


def cycle_graph(n: int, weights=None) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges, weights)


def complete_graph(n: int, weights=None) -> Graph:
    return Graph.from_edges(n, list(combinations(range(n), 2)), weights)


def complete_bipartite(a: int, b: int, weights=None) -> Graph:
    """K_{a,b}: side one is 0..a-1, side two is a..a+b-1."""
    edges = [(u, a + v) for u in range(a) for v in range(b)]
    return Graph.from_edges(a + b, edges, weights)


def crown_graph(k: int, weights=None) -> Graph:
    """K_{k,k} minus a perfect matching: a_i = i and b_j = k + j are
    adjacent exactly when i != j."""
    edges = [(i, k + j) for i in range(k) for j in range(k) if i != j]
    return Graph.from_edges(2 * k, edges, weights)


def crown_optimum(g: Graph, k: int) -> int:
    """Closed-form optimum of ``crown_graph(k, ...)``: an independent set
    meeting both sides holds a_i and b_i only, so the optimum is the
    heavier side or the heaviest matched pair."""
    w = g.weights
    pair = max(w[i] + w[k + i] for i in range(k))
    return max(sum(w[:k]), sum(w[k:]), pair)


def blowup_of(base: Graph, s: int, seed: int) -> Graph:
    """Complete blow-up of ``base``: vertex i becomes the independent set
    i*s .. i*s+s-1, each base edge joins two classes completely, and the
    weights are seeded draws from 0..100 in vertex order."""
    rng = XorShift64Star(seed)
    edges = [
        (i * s + u, j * s + v)
        for i in range(base.n)
        for j in bits(base.adj[i])
        if i < j
        for u in range(s)
        for v in range(s)
    ]
    n = base.n * s
    return Graph.from_edges(n, edges, [rng.below(101) for _ in range(n)])


def blowup_graph(k: int, s: int, seed: int) -> Graph:
    """Complete blow-up of the cycle C_k.  For 5 <= k < 10 every induced
    P4 runs through four consecutive classes and no two are separated, so
    the graph is a class member."""
    return blowup_of(cycle_graph(k), s, seed)


def blowup_optimum(g: Graph, k: int) -> int:
    """Closed-form optimum of ``blowup_graph(k, s, ...)``: an independent
    set meets no two consecutive classes and may take whole classes, so it
    is the best summed class weight over the independent index sets of
    C_k."""
    s = g.n // k
    class_weight = [sum(g.weights[i * s : (i + 1) * s]) for i in range(k)]
    full = (1 << k) - 1
    return max(
        sum(class_weight[i] for i in bits(sub))
        for sub in range(1 << k)
        if not sub & ((sub << 1 | sub >> (k - 1)) & full)
    )


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def clebsch() -> Graph:
    """The Clebsch graph as the folded 5-cube: the 4-bit strings, adjacent
    when they differ in one bit or in all four."""
    edges = [(u, v) for u in range(16) for v in range(u + 1, 16) if (u ^ v).bit_count() in (1, 4)]
    return Graph.from_edges(16, edges)


def andrasfai_graph(k: int, seed: int) -> Graph:
    """Andrásfai(k): the Cayley graph on Z_{3k-1} whose connection set is
    the residues ≡ 1 (mod 3), so i ~ j when (j - i) mod (3k - 1) is 1
    (mod 3); weights are seeded draws from 0..100 in vertex order."""
    n = 3 * k - 1
    rng = XorShift64Star(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if (j - i) % n % 3 == 1]
    return Graph.from_edges(n, edges, [rng.below(101) for _ in range(n)])


def andrasfai_optimum(g: Graph, k: int) -> int:
    """Closed-form optimum of ``andrasfai_graph(k, ...)``.  Multiplying by
    k maps the graph onto the circular clique K_{(3k-1)/k}, where an
    independent set lies in k consecutive positions, so the optimum is the
    heaviest circular window of k positions with vertex v at position
    k * v mod (3k - 1); a window over consecutive ids is not one."""
    n = g.n
    at = [0] * n
    for v in range(n):
        at[k * v % n] = g.weights[v]
    return max(sum(at[(i + j) % n] for j in range(k)) for i in range(n))


# spine 0-1-2-3 with one extra vertex per neighbor class and a block
# {9,11} x {8,10} contacted partially from both sides: after the pair
# (4, 5) is committed and 6 is picked, 7 is still bi-partial to the
# surviving block, forcing the second phase through its branching path
INTERLOCKED = [
    (0, 1), (1, 2), (2, 3),
    (4, 1), (5, 3),
    (6, 1), (6, 9),
    (7, 3), (7, 8),
    (9, 8), (9, 10), (11, 8), (11, 10),
]


def wis_by_enumeration(g: Graph, host: int | None = None) -> SolveResult:
    """Second, independent oracle: visit every independent subset of the host.

    Plain in/out recursion over the vertex list, pruning a branch as soon
    as the subset stops being independent (equivalent to the full 2^k scan
    but affordable at k = 16).  Exists purely to cross-check ``oracle_wis``;
    same tie-break.
    """
    verts = list(bits(g.full_mask if host is None else host))
    adj = g.adj
    weights = g.weights
    best = [0, 0]

    def rec(i: int, mask: int, w: int) -> None:
        if i == len(verts):
            if _better((w, mask), (best[0], best[1])):
                best[0], best[1] = w, mask
            return
        v = verts[i]
        rec(i + 1, mask, w)
        if not adj[v] & mask:
            rec(i + 1, mask | (1 << v), w + weights[v])

    rec(0, 0, 0)
    return certified_result(g, best[1])


def oracle_wis_containing(g: Graph, forced, host: int | None = None) -> SolveResult:
    """Optimum among independent sets containing all of ``forced``.

    ``forced`` may be a bitmask or an iterable of vertex ids; it must be
    an independent set inside the host (unchecked).
    """
    forced_mask = forced if isinstance(forced, int) else mask_of(forced)
    if host is None:
        host = g.full_mask
    rest = host & ~forced_mask & ~neighborhood(g, forced_mask)
    sub = oracle_wis(g, rest)
    return certified_result(g, forced_mask | mask_of(sub.chosen))


def gen_split_instance(n: int, density: float, seed: int):
    """Generate (graph, independent_mask, cograph_mask) test instances.

    The second mask is an independent set, the third induces a disjoint
    union of singletons and complete bipartite blocks, and the whole graph
    is kept inside the supported class by accept/reject against the
    recognizer.  This is plumbing for exercising the split-instance solver
    directly, including partial side attachments that the clustered model
    only produces through recursion.  n may be 0.
    """
    rng = XorShift64Star(seed)
    if n == 0:
        return Graph.from_edges(0, []), 0, 0
    n_s = rng.below(max(1, n // 2) + 1)
    s_verts = list(range(n_s))
    t_verts = list(range(n_s, n))
    edges: list[tuple[int, int]] = []
    blocks = _blocks_from_pool(rng, t_verts, edges)
    weights = _random_weights(rng, n)

    def member(extra):
        return is_class_member(Graph.from_edges(n, edges + extra, weights)).is_member

    extra: list[tuple[int, int]] = []
    sides = [s for b in blocks for s in b] + [[t] for t in t_verts]
    for u in s_verts:
        for side in sides:
            if not rng.chance(density):
                continue
            k = len(side) if len(side) == 1 or rng.chance(0.5) else 1 + rng.below(len(side) - 1)
            cand = [(u, x) for x in side[:k]]
            if member(extra + cand):
                extra.extend(cand)
    g = Graph.from_edges(n, edges + extra, weights)
    return g, mask_of(s_verts), mask_of(t_verts)


def random_graph(seed: int, n: int, p: float, weighted: bool = True) -> Graph:
    rng = XorShift64Star(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.chance(p)]
    weights = [rng.below(101) for _ in range(n)] if weighted else None
    return Graph.from_edges(n, edges, weights)


def fuzz_graph(j: int) -> Graph:
    """Draw j of the package's non-member fuzz family."""
    return random_graph(900_000 + j, 6 + j % 11, 0.08 + (j % 22) * 0.01)


def triangle_free_graph(seed: int, n: int, p: float) -> Graph:
    """Random triangle-free graph: each pair u < v, in order, becomes an
    edge with chance p unless u and v already have a common neighbour.
    Odd cycles survive, so the graph need not be bipartite."""
    rng = XorShift64Star(seed)
    adj = [0] * n
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.chance(p) and not adj[u] & adj[v]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                edges.append((u, v))
    return Graph.from_edges(n, edges, [rng.below(101) for _ in range(n)])


def triangle_free_non_members(count: int, start: int = 0):
    """The first ``count`` draws of ``triangle_free_graph`` (seeds from
    610_000 + start, n 14-30, p 0.25-0.55) that ``is_class_member`` refuses,
    so each holds two separated induced P4s."""
    seed = 610_000 + start
    while count:
        g = triangle_free_graph(seed, 14 + seed % 17, 0.25 + seed % 7 * 0.05)
        seed += 1
        if not is_class_member(g).is_member:
            count -= 1
            yield g


def is_independent(g: Graph, mask: int) -> bool:
    return all(not g.adj[v] & mask for v in bits(mask))


def scan_triangles(g: Graph) -> list[tuple[int, int, int]]:
    return [
        t
        for t in combinations(range(g.n), 3)
        if g.adjacent(t[0], t[1]) and g.adjacent(t[0], t[2]) and g.adjacent(t[1], t[2])
    ]


def scan_p4s(g: Graph, host: int | None = None) -> set[tuple[int, int, int, int]]:
    """Canonical induced P4s (endpoint-smaller orientation) by 4-subset scan.

    Reads the subsets u < v < w < t in order, skipping only those that
    cannot induce a P4: every three vertices of a P4 span an edge, and the
    fourth has a neighbor among the other three.  A subset is a P4 exactly
    when its inner degrees are 1, 1, 2, 2.
    """
    if host is None:
        host = g.full_mask
    adj = [nbrs & host for nbrs in g.adj]
    found = set()

    def above(x: int) -> int:
        return host >> (x + 1) << (x + 1)

    for u in bits(host):
        for v in bits(above(u)):
            # {u, v, w} must span an edge
            ws = above(v) if adj[u] >> v & 1 else above(v) & (adj[u] | adj[v])
            for w in bits(ws):
                for t in bits(above(w) & (adj[u] | adj[v] | adj[w])):
                    quad = (u, v, w, t)
                    qmask = 1 << u | 1 << v | 1 << w | 1 << t
                    deg = {x: (adj[x] & qmask).bit_count() for x in quad}
                    if sorted(deg.values()) != [1, 1, 2, 2]:
                        continue
                    a, d = (x for x in quad if deg[x] == 1)
                    b = next(x for x in quad if deg[x] == 2 and adj[a] >> x & 1)
                    c = next(x for x in quad if deg[x] == 2 and x != b)
                    found.add((a, b, c, d))
    return found


def _induces_p4(g: Graph, quad: tuple[int, ...]) -> bool:
    inside = [(u, v) for u, v in combinations(quad, 2) if g.adjacent(u, v)]
    if len(inside) != 3:
        return False
    deg = {v: 0 for v in quad}
    for u, v in inside:
        deg[u] += 1
        deg[v] += 1
    return sorted(deg.values()) == [1, 1, 2, 2]


def scan_two_disjoint_p4s(g: Graph) -> bool:
    """8-subset scan: some octet splits into two non-adjacent induced P4s."""
    for octet in combinations(range(g.n), 8):
        for left in combinations(octet, 4):
            right = tuple(v for v in octet if v not in left)
            if any(g.adjacent(u, v) for u in left for v in right):
                continue
            if _induces_p4(g, left) and _induces_p4(g, right):
                return True
    return False


def scan_member(g: Graph) -> bool:
    return not scan_triangles(g) and not scan_two_disjoint_p4s(g)


def scan_verdict(g: Graph):
    """The recognizer's witness by exhaustive scans, None for a member: the
    least triangle, else the first P4 p in (b, c, a, d) order whose
    anti-neighbourhood holds a P4, paired with the least such q."""
    triangles = scan_triangles(g)
    if triangles:
        return ("triangle", triangles[0])
    paths = sorted(scan_p4s(g), key=lambda p: (p[1], p[2], p[0], p[3]))
    for p in paths:
        near = set(p) | {v for u in p for v in range(g.n) if g.adjacent(u, v)}
        far = [q for q in paths if not near & set(q)]
        if far:
            return ("p4_pair", (p, far[0]))
    return None


def verdict_witness(verdict):
    """A membership verdict in ``ClassViolation`` witness form, None for a
    member; ``scan_verdict`` answers in the same form."""
    if verdict.triangle is not None:
        return ("triangle", verdict.triangle)
    if verdict.p4_pair is not None:
        return ("p4_pair", tuple(p.vertices for p in verdict.p4_pair))
    return None


def two_coloring(g: Graph, mask: int) -> dict[int, int] | None:
    """BFS two-coloring of g[mask] as {vertex: 0 or 1}, or None."""
    color: dict[int, int] = {}
    for start in bits(mask):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in bits(g.adj[v] & mask):
                if w not in color:
                    color[w] = color[v] ^ 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return color


def two_colorable(g: Graph, mask: int) -> bool:
    """Whether g[mask] has a two-coloring."""
    return two_coloring(g, mask) is not None


def konig_optimum(g: Graph, mask: int) -> int:
    """Maximum weight of an independent set of the bipartite g[mask].

    By König's theorem it is the total weight minus a minimum weight
    vertex cover, which is a minimum cut of the network source → color 0
    → color 1 → sink: each vertex's arc carries its weight, each edge's
    arc is uncuttable.  The maximum flow grows along shortest augmenting
    paths (Edmonds–Karp)."""
    color = two_coloring(g, mask)
    assert color is not None, "g[mask] is not bipartite"
    source, sink = -1, -2
    total = sum(g.weights[v] for v in color)
    residual: dict[tuple[int, int], int] = {}
    out: dict[int, list[int]] = {source: [], sink: []}
    out.update((v, []) for v in color)

    def arc(u: int, v: int, cap: int) -> None:
        residual[u, v] = cap
        residual[v, u] = 0
        out[u].append(v)
        out[v].append(u)

    for v, side in color.items():
        if side == 0:
            arc(source, v, g.weights[v])
            for u in bits(g.adj[v] & mask):
                arc(v, u, total + 1)
        else:
            arc(v, sink, g.weights[v])
    flow = 0
    while True:
        parent = {source: source}
        queue = [source]
        for u in queue:
            for v in out[u]:
                if v not in parent and residual[u, v]:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return total - flow
        path, v = [], sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[e] for e in path)
        for u, v in path:
            residual[u, v] -= push
            residual[v, u] += push
        flow += push


def witness_checks(g: Graph, witness) -> bool:
    """A refusal witness re-checked by the scans above: a triangle, or two
    induced P4s that are vertex-disjoint with no edge between them."""
    kind, body = witness
    if kind == "triangle":
        return tuple(sorted(body)) in scan_triangles(g)
    if kind != "p4_pair":
        return False
    found = scan_p4s(g)
    p, q = (tuple(path) if path[0] < path[3] else tuple(reversed(path)) for path in body)
    return (
        p in found
        and q in found
        and not set(p) & set(q)
        and not any(g.adjacent(u, v) for u in p for v in q)
    )


def forced_pair_solvers(g: Graph):
    """``solve_containing_ac`` and ``solve_containing_bd`` on the member g,
    as ``(name, solve)`` pairs, with membership decided here once instead
    of on every call.  The {a, c} solve takes the path's trace classes
    into ``constrained._solve_containing``, which folds a and c in, and
    certifies its mask, as the public solver does once its membership
    guard has passed; the {b, d} solve is the {a, c} solve on the
    reversed path."""
    assert is_class_member(g).is_member

    def solve_ac(p):
        _, s_b, _, s_d, _, _, s_bd, anti = _trace_classes(g, p.vertices, g.full_mask)
        _, mask = _solve_containing(g, p.a, p.c, s_b, s_d, s_bd, anti, None, {}, None)
        return certified_result(g, mask)

    def solve_bd(p):
        return solve_ac(p.reverse())

    return (("solve_containing_ac", solve_ac), ("solve_containing_bd", solve_bd))
