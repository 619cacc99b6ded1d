"""Checks written apart from the package's solver.

Everything here reads only ``g.n``, ``g.adj`` (neighbour bitmasks) and
``g.weights``, and shares no code with ``p4p4free``: the exact optimum
comes from component splitting plus maximum-degree branching with a memo,
and class membership from a triangle scan and a search for a second
induced P4 in each path's anti-neighbourhood.  A check returns an error
string, or None when the output passes.
"""

from __future__ import annotations

from corpus import Rng


def _vertices(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _component(adj, live: int, start: int) -> int:
    comp = frontier = 1 << start
    while frontier:
        grow = 0
        for v in _vertices(frontier):
            grow |= adj[v]
        frontier = grow & live & ~comp
        comp |= frontier
    return comp


def optimum_weight(g) -> int:
    """Maximum weight of an independent set of g, by exhaustive branching."""
    adj, weights = g.adj, g.weights
    memo: dict[int, int] = {}

    def best(live: int) -> int:
        total = 0
        while live:
            comp = _component(adj, live, (live & -live).bit_length() - 1)
            live &= ~comp
            total += best_connected(comp)
        return total

    def best_connected(comp: int) -> int:
        if comp & (comp - 1) == 0:
            return weights[comp.bit_length() - 1]
        got = memo.get(comp)
        if got is not None:
            return got
        pick, pick_deg = -1, -1
        for v in _vertices(comp):
            deg = (adj[v] & comp).bit_count()
            if deg > pick_deg:
                pick, pick_deg = v, deg
        bit = 1 << pick
        got = max(
            weights[pick] + best(comp & ~adj[pick] & ~bit), best(comp & ~bit)
        )
        memo[comp] = got
        return got

    return best((1 << g.n) - 1)


def check_answer(g, weight: int, chosen, optimum: int) -> str | None:
    """The set is independent, its weight re-sums, and it is optimal."""
    mask = 0
    for v in chosen:
        if not 0 <= v < g.n or mask >> v & 1:
            return f"bad vertex list {chosen}"
        mask |= 1 << v
    for v in chosen:
        if g.adj[v] & mask:
            return f"vertex {v} has a chosen neighbour"
    if sum(g.weights[v] for v in chosen) != weight:
        return "reported weight is not the sum of the chosen weights"
    if weight != optimum:
        return f"weight {weight} but the optimum is {optimum}"
    return None


def two_colourable(g, mask: int) -> bool:
    colour: dict[int, int] = {}
    for start in _vertices(mask):
        if start in colour:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in _vertices(g.adj[v] & mask):
                if w not in colour:
                    colour[w] = colour[v] ^ 1
                    stack.append(w)
                elif colour[w] == colour[v]:
                    return False
    return True


def greedy_maximal_sets(g, rng: Rng, count: int) -> list[int]:
    """Maximal independent sets grown greedily in seeded random orders."""
    out = []
    order = list(range(g.n))
    for _ in range(count):
        rng.shuffle(order)
        mask = 0
        for v in order:
            if not g.adj[v] & mask:
                mask |= 1 << v
        out.append(mask)
    return out


def all_maximal_sets(g):
    """Every maximal independent set of g (Bron-Kerbosch on the complement,
    with a pivot)."""
    full = (1 << g.n) - 1
    non_adj = [full & ~g.adj[v] & ~(1 << v) for v in range(g.n)]

    def extend(chosen: int, cand: int, seen: int):
        if not cand and not seen:
            yield chosen
            return
        pivot = max(_vertices(cand | seen), key=lambda u: (cand & non_adj[u]).bit_count())
        for v in _vertices(cand & ~non_adj[pivot]):
            yield from extend(chosen | 1 << v, cand & non_adj[v], seen & non_adj[v])
            cand &= ~(1 << v)
            seen |= 1 << v

    yield from extend(0, full, 0)


def check_cover(g, members, sets) -> str | None:
    """Every member induces a bipartite graph and each set lies in one."""
    for m in members:
        if m < 0 or m >> g.n or not two_colourable(g, m):
            return f"cover member {m:#x} is not a bipartite vertex set"
    ordered = sorted(members, key=int.bit_count, reverse=True)
    for s in sets:
        if not any(s & ~m == 0 for m in ordered):
            return f"independent set {s:#x} lies in no cover member"
    return None


def _induced_p4(g, quad) -> bool:
    if len(set(quad)) != 4 or not all(0 <= v < g.n for v in quad):
        return False
    a, b, c, d = quad
    adj = g.adj
    path = adj[a] >> b & 1 and adj[b] >> c & 1 and adj[c] >> d & 1
    chords = adj[a] >> c & 1 or adj[a] >> d & 1 or adj[b] >> d & 1
    return bool(path) and not chords


def check_witness(g, witness) -> str | None:
    """A triangle, or two induced P4s that are disjoint and non-adjacent."""
    if not isinstance(witness, tuple) or len(witness) != 2:
        return f"malformed witness {witness!r}"
    kind, body = witness
    if kind == "triangle":
        u, v, w = body
        ok = (
            len({u, v, w}) == 3
            and all(0 <= x < g.n for x in (u, v, w))
            and g.adj[u] >> v & 1
            and g.adj[v] >> w & 1
            and g.adj[u] >> w & 1
        )
        return None if ok else f"{body} is not a triangle"
    if kind == "p4_pair":
        p, q = (tuple(getattr(x, "vertices", x)) for x in body)
        if not (_induced_p4(g, p) and _induced_p4(g, q)):
            return f"{p} or {q} is not an induced P4"
        pm = sum(1 << v for v in p)
        if any(v in p for v in q) or any(g.adj[v] & pm for v in q):
            return f"{p} and {q} touch"
        return None
    return f"witness kind {kind!r} is neither a triangle nor a P4 pair"


def _has_p4(g, host: int) -> bool:
    adj = g.adj
    for b in _vertices(host):
        for c in _vertices(adj[b] & host):
            ends_a = adj[b] & ~adj[c] & host & ~(1 << c)
            ends_d = adj[c] & ~adj[b] & host & ~(1 << b)
            for a in _vertices(ends_a):
                if ends_d & ~adj[a]:
                    return True
    return False


def is_non_member(g) -> bool:
    """True when g has a triangle or two separated induced P4s."""
    adj = g.adj
    for u in range(g.n):
        for v in _vertices(adj[u] >> (u + 1) << (u + 1)):
            if adj[u] & adj[v]:
                return True
    full = (1 << g.n) - 1
    for b in range(g.n):
        for c in _vertices(adj[b]):
            for a in _vertices(adj[b] & ~adj[c] & ~(1 << c)):
                for d in _vertices(adj[c] & ~adj[b] & ~adj[a] & ~(1 << b)):
                    path = 1 << a | 1 << b | 1 << c | 1 << d
                    near = adj[a] | adj[b] | adj[c] | adj[d] | path
                    if _has_p4(g, full & ~near):
                        return True
    return False
