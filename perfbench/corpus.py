"""Seeded inputs for the benchmark workloads.

The in-class workloads take their graph structures from ``gen_instance``
with fixed parameters and fixed generator seeds, then let the workload
seed relabel the vertices and redraw the weights.  Relabelled graphs are
new inputs (different masks, different path order, different optimum), but
they are isomorphic to the design's structures, so the work a pass does
barely moves with the seed.  Fresh structures per seed would make one
pass's time vary by about a quarter between seeds, because per-graph solve
time is heavy-tailed; see README.md.

The refusal workload takes fixed random graphs that lie outside the
class and lets the seed redraw their weights; see ``refuse_corpus``.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


class Rng:
    """xorshift64* (shift triple 12, 25, 27): the generator behind the
    package's test graphs, kept here so fixed inputs stay fixed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = (seed & _MASK64) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, bound: int) -> int:
        return self.next_u64() % bound

    def chance(self, p: float) -> bool:
        return self.next_u64() < int(p * float(1 << 64))

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def mix(*parts: int) -> int:
    """One 64-bit seed from several integers (splitmix64 finaliser)."""
    h = 0
    for p in parts:
        h = (h ^ (p & _MASK64)) + 0x9E3779B97F4A7C15 & _MASK64
        h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK64
        h ^= h >> 31
    return h


def edge_list(g) -> list[tuple[int, int]]:
    out = []
    for u in range(g.n):
        rest = g.adj[u] >> (u + 1)
        v = u + 1
        while rest:
            if rest & 1:
                out.append((u, v))
            rest >>= 1
            v += 1
    return out


def relabel(Graph, g, rng: Rng):
    """g with vertices permuted and weights redrawn uniformly in [0, 100]."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    weights = [0] * g.n
    for v in range(g.n):
        weights[perm[v]] = rng.below(101)
    return Graph.from_edges(
        g.n, [(perm[u], perm[v]) for u, v in edge_list(g)], weights
    )


# Structures of the in-class workloads: (n, density, generator seed).
# scale: forty of the clustered graphs gen_instance makes at density 0.5
# from seeds 700_000 + i, with n = 45 + 75 i // 39 for i < 40 and
# 45 + 75 (i - 40) // 39 above.  Of the first eighty, these are the ones
# that solved in 0.01 to 0.15 s on the reference box: the lighter ones hold
# a handful of paths and show nothing, and the heaviest (up to 2.5 s each)
# would each take a sizeable share of a round on their own.
SCALE_DESIGN = tuple(
    (n, 0.5, 700_000 + i)
    for i, n in (
        (1, 46), (2, 48), (5, 54), (6, 56), (8, 60), (10, 64), (14, 71),
        (16, 75), (17, 77), (18, 79), (19, 81), (20, 83), (25, 93), (27, 96),
        (29, 100), (30, 102), (31, 104), (32, 106), (34, 110), (39, 120),
        (40, 45), (43, 50), (44, 52), (46, 56), (47, 58), (49, 62), (53, 70),
        (55, 73), (56, 75), (57, 77), (58, 79), (59, 81), (61, 85), (63, 89),
        (66, 95), (68, 98), (70, 102), (72, 106), (77, 116), (78, 118),
    )
)
# branchy: ten structures per density 0.3, 0.5, 0.7 and 0.9 from seeds
# 800_000 + i with n = 14 + i % 7 and density index i // 7 % 4 (i < 112):
# the first ten per density that solved in 8 to 70 ms on the reference box.
# Below 21 vertices the generator proposes partial attachments and
# class-class edges, which is what makes these graphs branch.
BRANCHY_DESIGN = tuple(
    (n, d, 800_000 + i)
    for i, n, d in (
        (0, 14, 0.3), (1, 15, 0.3), (2, 16, 0.3), (5, 19, 0.3), (8, 15, 0.5),
        (9, 16, 0.5), (11, 18, 0.5), (13, 20, 0.5), (14, 14, 0.7), (15, 15, 0.7),
        (16, 16, 0.7), (18, 18, 0.7), (21, 14, 0.9), (24, 17, 0.9), (26, 19, 0.9),
        (29, 15, 0.3), (31, 17, 0.3), (34, 20, 0.3), (35, 14, 0.5), (36, 15, 0.5),
        (37, 16, 0.5), (38, 17, 0.5), (39, 18, 0.5), (40, 19, 0.5), (42, 14, 0.7),
        (44, 16, 0.7), (45, 17, 0.7), (49, 14, 0.9), (50, 15, 0.9), (51, 16, 0.9),
        (52, 17, 0.9), (54, 19, 0.9), (56, 14, 0.3), (57, 15, 0.3), (58, 16, 0.3),
        (70, 14, 0.7), (73, 17, 0.7), (78, 15, 0.9), (79, 16, 0.9), (98, 14, 0.7),
    )
)


def member_corpus(p4, design, seed: int, round_no: int) -> list:
    """The design's structures through ``gen_instance``, then relabelled."""
    rng = Rng(mix(seed, round_no, 1))
    return [
        relabel(p4.Graph, p4.gen_instance("clustered", n, d, s), rng)
        for n, d, s in design
    ]


def random_graph(Graph, seed: int, n: int, p: float):
    """G(n, p) with weights in [0, 100], drawn as the test suite draws it."""
    rng = Rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.chance(p)]
    return Graph.from_edges(n, edges, [rng.below(101) for _ in range(n)])


# Random graphs of the package's fuzz family on which ``solve`` fails today,
# as (seed, n, p) of ``random_graph``, with the failure each one shows.
# Every refusal round holds them, with these weights, whatever the workload
# seed.
FAILING = (
    (900_106, 16, 0.22, "side_split_blocks"),
    (900_032, 16, 0.18, "side_split_blocks"),
    (900_072, 12, 0.14, "side_split_blocks"),
    (900_260, 13, 0.26, "side_split_blocks"),
    (2858, 18, 0.14, "unexpected_p4"),
    (950_479, 20, 0.12, "unexpected_p4"),
    (951_730, 19, 0.12, "unexpected_p4"),
)

REFUSE_DRAWS = 3000


def refuse_corpus(p4, is_non_member, seed: int, round_no: int) -> list:
    """The non-members among 3,000 fuzz graphs, then ``FAILING``.

    The fuzz graphs are ``random_graph(900_000 + j, 6 + j % 11,
    0.08 + (j % 22) * 0.01)`` for j < 3000, the family the package was first
    fuzzed on; the ones ``is_non_member`` proves outside the class are
    kept, about 1,690, and their weights are redrawn from the workload seed
    and the round.  A refusal's work and outcome depend on the structure
    only (no outcome changed under three weight draws of all of them), so
    every round does the same work and fails on the same graphs.
    """
    rng = Rng(mix(seed, round_no, 2))
    out = []
    for j in range(REFUSE_DRAWS):
        g = random_graph(p4.Graph, 900_000 + j, 6 + j % 11, 0.08 + (j % 22) * 0.01)
        if is_non_member(g):
            out.append(p4.Graph(g.n, tuple(rng.below(101) for _ in range(g.n)), g.adj))
    out += [random_graph(p4.Graph, s, n, p) for s, n, p, _ in FAILING]
    return out
