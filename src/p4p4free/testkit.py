"""Reference oracles and instance generators for the CLI, the benchmark
and the demos; the test suite's own second oracle, forced-set oracle and
split-instance generator live in ``tests/conftest.py``.

Everything here is deliberately independent of the polynomial solver: the
oracles are exponential brute force with hard size guards, and the
generators only rely on the recognizer.  The clustered model decides each
edge batch it proposes by the recognizer's delta test, exact on a member,
and checks the graph it emits in full.  Reproducibility across runs (and
across reimplementations in other languages) is pinned by a tiny explicit
PRNG rather than anything platform-dependent.
"""

from __future__ import annotations

from .errors import GuardError, InputError, StructureViolation
from .graph import Graph, SolveResult, bits, certified_result
from .recognition import _stays_member, is_class_member

__all__ = [
    "XorShift64Star",
    "oracle_wis",
    "enumerate_maximal_is",
    "gen_instance",
]

_MASK64 = (1 << 64) - 1
_SEED_PAD = 0x9E3779B97F4A7C15  # substituted when a zero state is requested


class XorShift64Star:
    """xorshift64* with the (12, 25, 27) shift triple.

    One step is: x ^= x >> 12; x ^= x << 25; x ^= x >> 27 (all mod 2^64),
    then the output is state * 0x2545F4914F6CDD1D mod 2^64.  The zero state
    (which xorshift cannot leave) is replaced by a fixed odd constant.
    Test vectors are frozen in the test suite.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = (seed & _MASK64) or _SEED_PAD

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound); modulo bias is irrelevant at
        the bounds used here (<= a few hundred)."""
        if bound <= 0:
            raise InputError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def chance(self, p: float) -> bool:
        """True with probability ~p; always consumes one draw."""
        threshold = int(p * float(1 << 64))
        return self.next_u64() < threshold


def _lex_less(m1: int, m2: int) -> bool:
    """Ascending-tuple lexicographic order on vertex-set masks.

    The smaller set is the one owning the smallest vertex of the symmetric
    difference (this matches tuple comparison of the sorted vertex lists).
    """
    diff = m1 ^ m2
    if diff == 0:
        return False
    return diff & -diff & m1 != 0


def _better(cand: tuple[int, int], best: tuple[int, int]) -> bool:
    return cand[0] > best[0] or (cand[0] == best[0] and _lex_less(cand[1], best[1]))


# the guarded helpers recurse up to once per host vertex, so no guard goes
# above this: a larger host could exhaust Python's 1,000-frame recursion limit
_GUARD_CEILING = 500


def _check_guard(host: int, guard: int, what: str) -> None:
    # type(True) is bool, so a bool is refused with every non-int
    if type(guard) is not int:
        raise InputError(f"guard must be an int, got {guard!r}")
    if guard < 0:
        raise InputError(f"guard must be non-negative, got {guard}")
    size = host.bit_count()
    limit = min(guard, _GUARD_CEILING)
    if size > limit:
        raise GuardError(f"{what} called on {size} vertices (guard is {limit})")


def oracle_wis(g: Graph, host: int | None = None, guard: int = 30) -> SolveResult:
    """Exact maximum weight independent set by branching; exponential.

    Branches include/exclude on a maximum-degree vertex (ties to the
    smallest id), memoized on the host less its isolated vertices, which
    every branch and optimum keeps.  Among all optimal sets, the
    lexicographically least (as a sorted vertex tuple) is returned, so
    the witness is deterministic.

    Raises:
        GuardError: when the host exceeds ``guard`` vertices (default 30),
            or 500, the ceiling on its recursion depth, whatever the guard.
        InputError: when ``guard`` is not an int (a bool is not one) or
            is negative.
    """
    host = g._check_host(host)
    _check_guard(host, guard, "oracle_wis")
    adj = g.adj
    memo: dict[int, tuple[int, int]] = {0: (0, 0)}

    def rec(live: int) -> tuple[int, int]:
        best = memo.get(live)
        if best is not None:
            return best
        pick = pick_deg = isolated = ones = 0
        for v in bits(live):
            deg = (adj[v] & live).bit_count()
            if deg > pick_deg:
                pick, pick_deg = v, deg
            if deg == 0:
                isolated |= 1 << v
            elif deg == 1:
                ones |= 1 << v
        # the exclude branch keeps the neighbours that pick alone touched
        core = live & ~isolated
        best = memo.get(core)
        if best is None:
            bit = 1 << pick
            freed = adj[pick] & ones
            w_in, m_in = rec(core & ~adj[pick] & ~bit)
            w_out, m_out = rec(core & ~bit & ~freed)
            include = (w_in + g.weights[pick], m_in | bit)
            exclude = (w_out + g.weight_of(freed), m_out | freed)
            best = include if _better(include, exclude) else exclude
            memo[core] = best
        return best[0] + g.weight_of(isolated), best[1] | isolated

    _, mask = rec(host)
    return certified_result(g, mask)


def enumerate_maximal_is(
    g: Graph, host: int | None = None, guard: int = 20
) -> list[tuple[int, ...]]:
    """All maximal independent sets of g[host], sorted, each sorted.

    Bron-Kerbosch with pivoting over the non-adjacency relation;
    exponential output in the worst case, hence the guard (default 20),
    checked as ``oracle_wis`` checks its own.
    """
    host = g._check_host(host)
    _check_guard(host, guard, "enumerate_maximal_is")
    adj = g.adj
    nonadj = {v: host & ~adj[v] & ~(1 << v) for v in bits(host)}
    out: list[int] = []

    def extend(chosen: int, cand: int, excluded: int) -> None:
        if cand == 0 and excluded == 0:
            out.append(chosen)
            return
        pivot = -1
        pivot_score = -1
        for u in bits(cand | excluded):
            score = (cand & nonadj[u]).bit_count()
            if score > pivot_score:
                pivot, pivot_score = u, score
        for v in bits(cand & ~nonadj[pivot]):
            bit = 1 << v
            extend(chosen | bit, cand & nonadj[v], excluded & nonadj[v])
            cand &= ~bit
            excluded |= bit

    extend(0, host, 0)
    return sorted(tuple(bits(m)) for m in out)


# ---------------------------------------------------------------------------
# instance generation


def _random_weights(rng: XorShift64Star, n: int) -> list[int]:
    return [rng.below(101) for _ in range(n)]


def _blocks_from_pool(rng: XorShift64Star, pool: list[int], edges: list[tuple[int, int]]):
    """Partition ``pool`` into singletons and complete bipartite blocks.

    Returns a list of (side_x, side_y) vertex-list pairs for the nontrivial
    blocks; singletons are simply left edgeless.
    """
    blocks = []
    i = 0
    while i < len(pool):
        size = 1 + rng.below(min(4, len(pool) - i))
        chunk = pool[i : i + size]
        i += size
        if size == 1:
            continue
        cut = 1 + rng.below(size - 1)
        side_x, side_y = chunk[:cut], chunk[cut:]
        for u in side_x:
            for v in side_y:
                edges.append((u, v))
        blocks.append((side_x, side_y))
    return blocks


_CLASS_PINS = {
    "s_a": (0,),
    "s_b": (1,),
    "s_c": (2,),
    "s_d": (3,),
    "s_ac": (0, 2),
    "s_ad": (0, 3),
    "s_bd": (1, 3),
}
_CLASS_NAMES = tuple(_CLASS_PINS)


def _gen_clustered(n: int, density: float, seed: int) -> Graph:
    """Planted-structure generator; always emits a class member, and
    raises ``StructureViolation`` rather than return anything else.

    Layout: vertices 0..3 are a planted P4; a density-dependent handful of
    vertices joins the seven trace classes (pinned to their path vertices);
    the rest becomes singletons and complete bipartite blocks, which is
    exactly what the path's anti-neighborhood may look like.  Extra edges
    (side attachments, class-class edges) are then proposed in seeded
    batches, and a batch is kept only if the graph stays a member.  The
    planted structure is one (every induced P4 takes two vertices of the
    path 0-1-2-3, and every split of the path into two pairs has an edge
    across), so ``_stays_member`` decides each batch exactly on one
    adjacency list, and only the emitted graph is built and recognized in
    full.  Above 20 vertices only whole-side attachments to one
    distinguished block are proposed, unchecked, so large instances stay
    cheap to produce; when the recognizer refuses the result (at n 30-60,
    density 0.5, 53 of 600 seeds) every extra edge is dropped, and the
    planted structure alone is checked and returned.
    """
    rng = XorShift64Star(seed)
    if n < 4:
        return Graph.from_edges(n, [], _random_weights(rng, n))
    edges: list[tuple[int, int]] = [(0, 1), (1, 2), (2, 3)]
    rest = list(range(4, n))
    max_class = min(8, len(rest))
    n_class = 0 if density == 0 else (1 + rng.below(max_class) if max_class else 0)
    class_vertices = rest[:n_class]
    class_label = {}
    for u in class_vertices:
        label = _CLASS_NAMES[rng.below(7)]
        class_label[u] = label
        for p in _CLASS_PINS[label]:
            edges.append((u, p))
    blocks = _blocks_from_pool(rng, rest[n_class:], edges)

    def build(extra: list[tuple[int, int]]) -> Graph:
        return Graph.from_edges(n, edges + extra, weights)

    weights = [0] * n  # structure first; real weights drawn at the end
    extra: list[tuple[int, int]] = []
    if blocks and class_vertices:
        if n <= 20:
            adj = list(build([]).adj)  # the member so far

            def keep(cand: list[tuple[int, int]]) -> None:
                if _stays_member(adj, cand):
                    extra.extend(cand)
                    for u, v in cand:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u

            sides = [s for b in blocks for s in b]
            for u in class_vertices:
                for side in sides:
                    if not rng.chance(density):
                        continue
                    if rng.chance(0.5) and len(side) > 1:
                        k = 1 + rng.below(len(side) - 1)
                        target = side[:k]  # partial attachment
                    else:
                        target = side  # universal attachment
                    keep([(u, x) for x in target])
            for i, u in enumerate(class_vertices):
                for v in class_vertices[i + 1 :]:
                    if set(class_label[u]) & set(class_label[v]) != {"s", "_"}:
                        continue  # shared path letter would close a triangle
                    if not rng.chance(density):
                        continue
                    keep([(u, v)])
        else:
            side = blocks[0][0]
            for u in class_vertices:
                if rng.chance(density):
                    extra.extend((u, x) for x in side)
    weights[:] = _random_weights(rng, n)
    for g in (build(kept) for kept in (extra, [])):
        if is_class_member(g).is_member:
            return g
    raise StructureViolation(
        f"clustered model built no member (n={n}, density={density}, seed={seed})",
        ("clustered_non_member", (n, density, seed)),
    )


_REJECTION_ATTEMPTS = 1000


def _gen_rejection(n: int, density: float, seed: int) -> Graph:
    """Random bipartite graphs, resampled until the recognizer accepts.

    Bipartite means triangle-free for free; only the no-two-independent-P4s
    condition needs resampling.

    Raises:
        InputError: no member in ``_REJECTION_ATTEMPTS`` draws.
    """
    rng = XorShift64Star(seed)
    for _ in range(_REJECTION_ATTEMPTS):
        side = [rng.chance(0.5) for _ in range(n)]
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if side[u] != side[v] and rng.chance(density)
        ]
        g = Graph.from_edges(n, edges, _random_weights(rng, n))
        if is_class_member(g).is_member:
            return g
    raise InputError(
        f"rejection model found no member in {_REJECTION_ATTEMPTS} attempts"
        f" (n={n}, density={density}, seed={seed})"
    )


def _check_draw(n, density, seed) -> None:
    """Refuse generator arguments of the wrong type or out of range."""
    if type(n) is not int or n < 1:
        raise InputError(f"n must be an int of at least 1, got {n!r}")
    if type(density) not in (int, float) or not 0.0 <= density <= 1.0:
        raise InputError(f"density must be a number in [0, 1], got {density!r}")
    if type(seed) is not int:
        raise InputError(f"seed must be an int, got {seed!r}")


def gen_instance(model: str, n: int, density: float, seed: int) -> Graph:
    """Generate a class-member instance with weights uniform in [0, 100].

    Args:
        model: "clustered" (planted P4 + trace classes + complete bipartite
            blocks) or "rejection" (random bipartite, resampled).
        n: vertex count.
        density: edge/attachment probability in [0, 1].
        seed: PRNG seed; output is a pure function of all four arguments.

    Raises:
        InputError: n or seed is not an int (a bool is not one), density
            is not an int or float, n or density is out of range, the
            model is unknown, or the rejection model drew 1000 non-members
            in a row (at n 30, density 0.5, seed 7 it does; at n 40-60,
            density 0.9 it finds a member).
        StructureViolation: the clustered model built no member, even
            without its extra edges; an internal fault.
    """
    _check_draw(n, density, seed)
    if model == "clustered":
        return _gen_clustered(n, density, seed)
    if model == "rejection":
        return _gen_rejection(n, density, seed)
    raise InputError(f"unknown model {model!r} (expected clustered or rejection)")
