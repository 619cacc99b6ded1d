"""Split-instance dispatcher: base shapes, branching order, oracle battles.

``split_solver._solve_raw`` is driven directly on hosts ``S | T`` with S
independent and G[T] a disjoint union of singletons and complete
bipartite blocks; it walks the host into a leaf list, which
``split_solver._heaviest_leaf`` weighs into ``(weight, mask)``, and
assumes a class member.
"""

from __future__ import annotations

import random

import pytest
from conftest import (
    blowup_graph,
    complete_bipartite,
    gen_split_instance,
    is_independent,
    oracle_wis_containing,
    scan_p4s,
    triangle_free_graph,
    witness_checks,
)

from p4p4free import solve, solve_with_cover, solver, split_solver
from p4p4free.constrained import solve_containing_ac, solve_containing_bd
from p4p4free.errors import ClassViolation, StructureViolation
from p4p4free.graph import Graph, bits, components_with_certificates, mask_of
from p4p4free.recognition import (
    InducedP4,
    _membership,
    enumerate_induced_p4,
    find_induced_p4,
)
from p4p4free.testkit import enumerate_maximal_is, gen_instance, oracle_wis

# two disjoint copies of the induced path s-t-s-t; not a class member
TWO_PATHS = Graph.from_edges(8, [(2, 0), (2, 1), (3, 0), (6, 4), (6, 5), (7, 4)])


def walk(g: Graph, s_mask: int, t_mask: int) -> list[int]:
    """The leaves of the host ``S | T``'s walk, in walk order."""
    leaves: list[int] = []
    host = s_mask | t_mask
    assert split_solver._solve_raw(g, s_mask, t_mask, host, 0, 0, leaves, {}, 0, None) is None
    return leaves


def solve_raw(g: Graph, s_mask: int, t_mask: int) -> tuple[int, int]:
    return split_solver._heaviest_leaf(g, walk(g, s_mask, t_mask))


def split(g: Graph, s, t) -> tuple[int, int]:
    return solve_raw(g, mask_of(s), mask_of(t))


class TestInstanceValidation:
    def test_rejects_path_shaped_block_part(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(StructureViolation) as exc:
            split(g, [], [0, 1, 2, 3])
        assert exc.value.witness == ("incomplete_block", g.full_mask)

    def test_rejects_host_outside_both_parts(self):
        g = complete_bipartite(2, 3)
        with pytest.raises(StructureViolation) as exc:
            split_solver._solve_raw(g, 0, 0b11, g.full_mask, 0, 0, None, {}, 0, None)
        assert exc.value.witness == ("split_parts", 0b11100)

    def test_rejects_parts_that_overlap_in_the_host(self):
        # vertex 0 lies in both parts; outside the host an overlap is
        # harmless
        g = complete_bipartite(2, 3)
        raw = split_solver._solve_raw
        with pytest.raises(StructureViolation) as exc:
            raw(g, mask_of([0, 4]), g.full_mask, mask_of([0, 2, 3]), 0, 0, None, {}, 0, None)
        assert exc.value.witness == ("split_parts", 0b1)
        host = mask_of([1, 2, 3])
        leaves: list[int] = []
        raw(g, 0b1, g.full_mask, host, 0, 0, leaves, {}, 0, None)
        assert split_solver._heaviest_leaf(g, leaves) == (2, mask_of([2, 3]))


class TestContactHits:
    """How a vertex meets a certified block: bi-partial only when it meets
    one side, but not all of it; both sides is a triangle."""

    def _k23_plus(self, extra_edges):
        # K_{2,3} on 0..4, probe vertex 5
        edges = [(u, 2 + v) for u in range(2) for v in range(3)] + extra_edges
        g = Graph.from_edges(6, edges)
        (sides,), _ = components_with_certificates(g, mask_of(range(5)))
        return g, sides

    def test_universal_to_a_side(self):
        g, sides = self._k23_plus([(5, 0), (5, 1)])
        assert sides[0] == mask_of([0, 1])
        assert split_solver._bipartial_blocks(g, 5, (sides,)) == []
        # and the other side met wholly, from another probe
        g, sides = self._k23_plus([(5, 2), (5, 3), (5, 4)])
        assert split_solver._bipartial_blocks(g, 5, (sides,)) == []

    def test_partial_into_a_side(self):
        g, sides = self._k23_plus([(5, 2)])
        assert split_solver._bipartial_blocks(g, 5, (sides,)) == [sides]
        # every block met partly is listed, in the order handed
        g, sides = self._k23_plus([(5, 0)])
        assert split_solver._bipartial_blocks(g, 5, (sides, sides)) == [sides, sides]

    def test_no_contact(self):
        g, sides = self._k23_plus([])
        assert split_solver._bipartial_blocks(g, 5, (sides,)) == []
        assert split_solver._bipartial_blocks(g, 5, ()) == []

    def test_both_sides_is_a_violation_with_triangle(self):
        g, sides = self._k23_plus([(5, 0), (5, 2)])
        with pytest.raises(ClassViolation) as exc:
            split_solver._bipartial_blocks(g, 5, (sides,))
        kind, (u, v, w) = exc.value.witness
        assert kind == "triangle"
        assert g.adjacent(u, v) and g.adjacent(u, w) and g.adjacent(v, w)

    def test_trivial_component_contact_is_universal(self):
        g = Graph.from_edges(2, [(0, 1)])
        (sides,), _ = components_with_certificates(g, mask_of([0]))
        assert sides == (1, 0)
        assert split_solver._bipartial_blocks(g, 1, (sides,)) == []
        assert split_solver._bipartial_blocks(g, 0, ((2, 0),)) == []


class TestBaseShapes:
    def test_block_part_only(self):
        g = complete_bipartite(2, 3)
        assert split(g, [], range(5)) == (3, mask_of([2, 3, 4]))

    def test_universal_attachment_to_an_edge(self):
        # s (weight 5) covers one endpoint of a single edge (weights 1, 1)
        g = Graph.from_edges(3, [(0, 1), (2, 0)], [1, 1, 5])
        assert split(g, [2], [0, 1]) == (6, mask_of([1, 2]))

    def test_empty_instance(self):
        g = Graph.from_edges(1, [])
        assert split(g, [], []) == (0, 0)

    def test_isolated_independent_part(self):
        g = Graph.from_edges(3, [], [7, 1, 2])
        assert split(g, [0, 1], [2])[0] == 10


class TestBranchingShapes:
    def test_attachments_on_both_sides_of_one_block(self):
        # K_{2,2} with one cover vertex per side: component is not complete
        # bipartite and must split on a side choice
        edges = [(0, 2), (0, 3), (1, 2), (1, 3), (4, 0), (4, 1), (5, 2), (5, 3)]
        g = Graph.from_edges(6, edges)
        assert split(g, [4, 5], [0, 1, 2, 3])[0] == oracle_wis(g).weight == 3

    def test_vertex_tying_two_singletons(self):
        # s3-t0-s2-t1 is an induced path; branching must recover optimum 2
        g = Graph.from_edges(4, [(2, 0), (2, 1), (3, 0)])
        assert split(g, [2, 3], [0, 1])[0] == oracle_wis(g).weight == 2

    def test_partial_attachment_branches(self):
        # bi-partial contact into one side of K_{2,2}
        edges = [(0, 2), (0, 3), (1, 2), (1, 3), (4, 0)]
        g = Graph.from_edges(5, edges, [1, 1, 1, 1, 5])
        assert split(g, [4], [0, 1, 2, 3])[0] == oracle_wis(g).weight == 7

    def test_weights_pull_the_side_choice(self):
        edges = [(0, 2), (0, 3), (1, 2), (1, 3), (4, 0), (4, 1), (5, 2), (5, 3)]
        for weights in ([9, 9, 1, 1, 1, 1], [1, 1, 1, 1, 9, 9], [1, 1, 9, 9, 5, 1]):
            g = Graph.from_edges(6, edges, weights)
            assert split(g, [4, 5], [0, 1, 2, 3])[0] == oracle_wis(g).weight

    @pytest.mark.parametrize(
        "weights, best, chosen",
        [
            ([1] * 10, 5, [0, 3, 5, 6, 9]),
            ([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], 22, [0, 4, 5, 6, 9]),
        ],
    )
    def test_second_bipartial_region_is_branched_one_level_down(
        self, monkeypatch, weights, best, chosen
    ):
        # 0 is bi-partial to the block {4; 2, 3} and is picked; once N(0)
        # is gone, 1 is still bi-partial to the block {7; 5, 6}, a second
        # region that the depth-1 hosts keep whole and branch on at depth 2
        edges = [(2, 4), (3, 4), (5, 7), (6, 7), (8, 9)]
        edges += [(0, 2), (0, 8), (1, 2), (1, 3), (1, 5)]
        g = Graph.from_edges(10, edges, weights)
        original = split_solver._solve_raw
        branched: dict[int, list[int]] = {}

        def recording(g_, s_mask, t_mask, host, depth, *rest):
            branched.setdefault(depth, []).append(host)
            return original(g_, s_mask, t_mask, host, depth, *rest)

        monkeypatch.setattr(split_solver, "_solve_raw", recording)
        s_mask, t_mask = 0b11, mask_of(range(2, 10))
        leaves = walk(g, s_mask, t_mask)
        assert split_solver._heaviest_leaf(g, leaves) == (best, mask_of(chosen))
        assert oracle_wis(g).weight == best
        for maximal in enumerate_maximal_is(g):
            assert any(mask_of(maximal) & ~leaf == 0 for leaf in leaves), maximal
        # kept without the block, kept without N(hp) for hp in {3, 4}, and
        # the host without the pick: nothing is split along {5, 6, 7}
        kept = g.full_mask & ~g.adj[0]
        prime = mask_of([2, 3, 4])
        assert branched[1] == [
            kept & ~prime,
            kept & ~g.adj[3],
            kept & ~g.adj[4],
            g.full_mask & ~1,
        ]
        # the first host's uncertified component {1, 5, 6, 7} branches
        # around 1 on the block {7; 5, 6}
        comp = mask_of([1, 5, 6, 7])
        kept_1 = comp & ~g.adj[1]
        assert branched[2][:4] == [
            kept_1 & ~mask_of([5, 6, 7]),
            kept_1 & ~g.adj[6],
            kept_1 & ~g.adj[7],
            comp & ~(1 << 1),
        ]

    def test_without_a_bipartial_vertex_nothing_is_branched(self):
        # 4 meets the block {0, 1; 2, 3} wholly on one side
        g = Graph.from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3), (4, 0), (4, 1)])
        members = components_with_certificates(g, mask_of(range(4)))[0]
        branch = split_solver.branch_via_bipartial
        assert branch(g, g.full_mask, 1 << 4, members) is None


class TestBadComponentDispatch:
    """``_bad_comp_hosts`` asks ``branch_via_bipartial`` exactly once per
    call and counts contacts only when it answers None."""

    @pytest.mark.parametrize(
        "edges, s, t, keep, drop",
        [
            # multi-contact: 2 ties the singletons 0 and 1, so it is picked
            ([(2, 0), (2, 1), (3, 0)], [2, 3], [0, 1], 0b1100, 0b1011),
            # split block: 4 meets side {0, 1} wholly, 5 side {2, 3}, so
            # the branch keeps side {0, 1} or drops it
            (
                [(0, 2), (0, 3), (1, 2), (1, 3), (4, 0), (4, 1), (5, 2), (5, 3)],
                [4, 5],
                [0, 1, 2, 3],
                0b100011,
                0b111100,
            ),
        ],
        ids=["multi-contact", "split-block"],
    )
    def test_bipartial_branch_declines_once_per_call(
        self, monkeypatch, edges, s, t, keep, drop
    ):
        bad_comp_hosts = split_solver._bad_comp_hosts
        branch = split_solver.branch_via_bipartial
        calls, answers = [], []

        def recording_hosts(*args):
            calls.append((args[2], bad_comp_hosts(*args)))
            return calls[-1][1]

        def counting_branch(*args):
            answers.append(branch(*args))
            return answers[-1]

        monkeypatch.setattr(split_solver, "_bad_comp_hosts", recording_hosts)
        monkeypatch.setattr(split_solver, "branch_via_bipartial", counting_branch)
        g = Graph.from_edges(len(s) + len(t), edges)
        assert split(g, s, t)[0] == oracle_wis(g).weight
        assert calls == [(g.full_mask, (keep, drop))]
        assert answers == [None]

    def test_a_tie_keeps_the_earliest_branch(self):
        # the multi-contact case above, with unit weights: the kept host
        # {2, 3} and the dropped host {0, 1, 3} both weigh 2, and the
        # earlier, kept, one wins
        g = Graph.from_edges(4, [(2, 0), (2, 1), (3, 0)])
        assert split(g, [2, 3], [0, 1]) == (2, 0b1100)

    def test_every_call_asks_the_bipartial_branch_once(self, monkeypatch):
        bad_comp_hosts = split_solver._bad_comp_hosts
        branch = split_solver.branch_via_bipartial
        counts = {"bad_comp": 0, "branch": 0, "declined": 0}

        def counting_hosts(*args):
            counts["bad_comp"] += 1
            return bad_comp_hosts(*args)

        def counting_branch(*args):
            counts["branch"] += 1
            out = branch(*args)
            counts["declined"] += out is None
            return out

        monkeypatch.setattr(split_solver, "_bad_comp_hosts", counting_hosts)
        monkeypatch.setattr(split_solver, "branch_via_bipartial", counting_branch)
        for seed in range(200):
            n, density = 6 + seed % 9, 0.3 + seed % 5 * 0.15
            g, s_mask, t_mask = gen_split_instance(n, density, seed)
            assert solve_raw(g, s_mask, t_mask)[0] == oracle_wis(g).weight, seed
        assert counts["bad_comp"] == counts["branch"] > 100
        assert 0 < counts["declined"] < counts["branch"]


def _blocks_under(contacts: list[list[int]]) -> tuple[Graph, int, tuple]:
    """Blocks {x, x'}-{y} under S vertices: S vertex s is 0..len(contacts)-1
    and meets the x of each block listed in ``contacts[s]``, so it is
    bi-partial to those blocks.  Returns the graph, S and the side pairs of
    the blocks."""
    ns = len(contacts)
    k = 1 + max(i for blocks in contacts for i in blocks)
    edges = []
    for i in range(k):
        x = ns + 3 * i
        edges += [(x, x + 2), (x + 1, x + 2)]
    for s, blocks in enumerate(contacts):
        edges += [(s, ns + 3 * i) for i in blocks]
    g = Graph.from_edges(ns + 3 * k, edges)
    s_mask = (1 << ns) - 1
    return g, s_mask, components_with_certificates(g, g.full_mask & ~s_mask)[0]


class TestStructureFaults:
    """The branching's structural claims fail loudly on hosts outside the
    class: each raises a ``StructureViolation`` with its witness."""

    def test_a_single_contact_component_without_a_split_block(self):
        # 0 meets the whole side {1} of the edge 1-2, and nothing else
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(StructureViolation) as exc:
            split_solver._bad_comp_hosts(g, 0b1, 0b111, ((0b10, 0b100),))
        assert str(exc.value) == (
            "single-contact component should split across exactly one block"
        )
        assert exc.value.witness == ("side_split_blocks", ())

    def test_two_bipartial_regions_beside_the_chosen_block(self):
        # each block has its own bi-partial S vertex: the rule branches
        # around 0 alone and leaves the other two blocks to its hosts; the
        # host is three separated P4s, which the dispatcher refuses as
        # uncertified components before any branch
        g, s_mask, members = _blocks_under([[0], [1], [2]])
        hosts = split_solver.branch_via_bipartial(g, g.full_mask, s_mask, members)
        kept = g.full_mask & ~g.adj[0]
        prime = mask_of([3, 4, 5])
        assert hosts == [kept & ~prime, kept & ~g.adj[4], kept & ~g.adj[5], g.full_mask & ~1]
        with pytest.raises(StructureViolation) as exc:
            solve_raw(g, s_mask, g.full_mask & ~s_mask)
        assert exc.value.witness == (
            "uncertified_components",
            (mask_of([0, 3, 4, 5]), mask_of([1, 6, 7, 8]), mask_of([2, 9, 10, 11])),
        )

    def test_a_branching_order_without_a_sink(self):
        # 0 and 1 are each bi-partial to two blocks, and dropping N(0) or
        # N(1) leaves the other so: neither is a sink
        g, s_mask, members = _blocks_under([[0, 1], [2, 3]])
        with pytest.raises(StructureViolation) as exc:
            split_solver.branch_via_bipartial(g, g.full_mask, s_mask, members)
        assert str(exc.value) == "branching order has no sink"
        assert exc.value.witness == ("order_cycle", (0, 1))


def _side_pairs_in_order(pairs) -> list[tuple[int, int]]:
    """Side pairs oriented and ordered as ``components_with_certificates``
    gives them: side_a holds the smallest vertex, blocks by it."""
    pairs = [(a, b) if a & -a < b & -b else (b, a) for a, b in pairs]
    return sorted(pairs, key=lambda sides: sides[0] & -sides[0])


@pytest.fixture(scope="module")
def rule_calls():
    """Every call of the three branching rules, ``(rule, args, hosts)``,
    while the recursion solves split instances, covers clustered graphs of
    the benchmark's ``branchy`` design (n 14-20, density 0.3-0.9), and
    solves a triangle-free member through each pair of each path, which
    reaches the branch on a region that still holds a path."""
    calls = []

    def recorder(rule):
        def recording(*args):
            calls.append((rule, args, rule(*args)))
            return calls[-1][2]

        return recording

    with pytest.MonkeyPatch.context() as m:
        for name in ("_bad_comp_hosts", "_path_hosts", "branch_via_bipartial"):
            m.setattr(split_solver, name, recorder(getattr(split_solver, name)))
        for seed in range(60):
            solve_raw(*gen_split_instance(6 + seed % 9, 0.3 + seed % 5 * 0.15, seed))
        for i in range(0, 112, 4):
            density = (0.3, 0.5, 0.7, 0.9)[i // 7 % 4]
            solve_with_cover(gen_instance("clustered", 14 + i % 7, density, 800_000 + i))
        g = triangle_free_graph(1_031_684, 14, 0.35)
        for p in enumerate_induced_p4(g):
            solve_containing_ac(g, p)
            solve_containing_bd(g, p)
    return calls


class TestHandedBlocks:
    """The branching rules read the block part they are handed: a block
    restricted to a vertex set stays one block while both sides keep a
    vertex, and otherwise leaves singletons."""

    def test_a_restricted_block_part_is_the_part_decomposed_afresh(self, rule_calls):
        parts = {}
        for seed in range(80):
            g, _, t_mask = gen_split_instance(6 + seed % 9, 0.3 + seed % 5 * 0.15, seed)
            parts[id(g), t_mask] = g, t_mask
        for _, args, _ in rule_calls:
            g, members = args[0], args[-1]
            t_mask = mask_of(v for a, b in members for v in bits(a | b))
            assert components_with_certificates(g, t_mask) == (members, ())
            parts[id(g), t_mask] = g, t_mask
        rng = random.Random(5)
        checked = 0
        for g, t_mask in parts.values():
            members = components_with_certificates(g, t_mask)[0]
            keeps = [~g.adj[v] for v in range(g.n)] + [rng.getrandbits(g.n) for _ in range(8)]
            for keep in keeps:
                certified, uncertified = components_with_certificates(g, t_mask & keep)
                assert uncertified == ()
                want = [(a, b) for a, b in certified if b]
                left = [(a & keep, b & keep) for a, b in members if a & keep and b & keep]
                assert _side_pairs_in_order(left) == want
                checked += bool(want)
        assert len(parts) > 300 and checked > 3000

    def test_the_rules_never_decompose(self, monkeypatch, rule_calls):
        def unreachable(*args):
            raise AssertionError("a branching rule decomposed a block part")

        monkeypatch.setattr(split_solver, "components_with_certificates", unreachable)
        monkeypatch.setattr(split_solver, "_certified_members", unreachable)
        seen = {"bad_comp": 0, "path": 0, "declined": 0, "sink": 0, "single_block": 0}
        for rule, args, hosts in rule_calls:
            assert rule(*args) == hosts
            if rule is split_solver._bad_comp_hosts:
                seen["bad_comp"] += 1
                continue
            if rule is split_solver._path_hosts:
                seen["path"] += 1
                continue
            g, host, active, members = args
            found = [split_solver._bipartial_blocks(g, v, members) for v in bits(active & host)]
            if hosts is None:
                seen["declined"] += 1
            elif max(map(len, found)) >= 2:
                seen["sink"] += 1
            else:
                seen["single_block"] += 1
        assert min(seen.values()) > 0, seen


class TestForbiddenShapesSurface:
    def test_two_broken_components_raise_with_path_pair(self):
        g = TWO_PATHS
        with pytest.raises(StructureViolation) as exc:
            split(g, [2, 3, 6, 7], [0, 1, 4, 5])
        kind, (p, q) = exc.value.witness
        assert kind == "uncertified_components"
        assert p & q == 0
        assert scan_p4s(g, p) and scan_p4s(g, q)

    def test_contact_on_both_sides_of_an_edge_is_a_triangle(self):
        g = Graph.from_edges(3, [(0, 1), (2, 0), (2, 1)])
        with pytest.raises(ClassViolation) as exc:
            split(g, [2], [0, 1])
        assert exc.value.witness == ("triangle", (0, 1, 2))

    def test_internal_failure_on_a_non_member_is_refused_with_a_witness(
        self, monkeypatch
    ):
        # no natural split host is known to fail this way, so the
        # dispatcher is made to fail under a public solver that reaches it
        def broken(*args):
            raise StructureViolation("broken", ("side_split_blocks", ()))

        monkeypatch.setattr(split_solver, "_solve_raw", broken)
        g = TWO_PATHS
        with pytest.raises(ClassViolation) as exc:
            solve_containing_ac(g, InducedP4(3, 0, 2, 1))
        assert witness_checks(g, exc.value.witness)

    def test_refusal_inside_the_branching_of_a_member_is_an_internal_fault(
        self, monkeypatch
    ):
        def refusing(*args):
            raise ClassViolation("bogus", ("triangle", (0, 1, 2)))

        monkeypatch.setattr(split_solver, "_solve_raw", refusing)
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(StructureViolation) as exc:
            solve_containing_ac(g, InducedP4(0, 1, 2, 3))
        assert exc.value.witness == ("triangle", (0, 1, 2))


class TestDepthBudget:
    def test_overrun_on_a_member_is_a_structure_violation(self):
        g = complete_bipartite(2, 3)
        depth = g.n + 9
        with pytest.raises(StructureViolation) as exc:
            split_solver._solve_raw(g, 0, g.full_mask, g.full_mask, depth, 0, None, {}, 0, None)
        assert exc.value.witness == ("depth_budget", depth)

    def test_overrun_on_a_non_member_is_refused_with_a_witness(self, monkeypatch):
        original = split_solver._solve_raw

        def deep(g, s_mask, t_mask, host, depth, *rest):
            return original(g, s_mask, t_mask, host, depth + g.n + 9, *rest)

        monkeypatch.setattr(split_solver, "_solve_raw", deep)
        g = TWO_PATHS
        with pytest.raises(ClassViolation) as exc:
            solve_containing_ac(g, InducedP4(3, 0, 2, 1))
        assert witness_checks(g, exc.value.witness)


class TestBipartialLemma:
    def test_a_bipartial_vertex_leaves_an_induced_path(self):
        # v meets a1 but not a2 on one side of a block and nothing of the
        # other side, so v-a1-b-a2 is induced for any b of that side: a
        # path-free region has no bi-partial vertex
        seen = 0
        for seed in range(300):
            n = 6 + seed % 9
            g, s_mask, t_mask = gen_split_instance(n, 0.3 + seed % 5 * 0.15, seed)
            members = components_with_certificates(g, t_mask)[0]
            for v in bits(s_mask):
                for a, b in split_solver._bipartial_blocks(g, v, members):
                    seen += 1
                    assert find_induced_p4(g, 1 << v | a | b) is not None, seed
                    assert find_induced_p4(g, s_mask | t_mask) is not None, seed
        assert seen > 50


class TestBranchingOrder:
    def test_sink_branch_matches_the_oracle_on_two_stars(self):
        # blocks {0;1,2} and {3;4,5}; vertex 7 is bi-partial to both, so the
        # branch vertex is a sink of the branching order
        edges = [(0, 1), (0, 2), (3, 4), (3, 5), (7, 1), (7, 4)]
        for weights in ([1] * 8, [1, 4, 4, 1, 4, 4, 2, 9], [5, 1, 1, 5, 1, 1, 3, 1]):
            g = Graph.from_edges(8, edges, weights)
            weight, mask = split(g, [6, 7], range(6))
            assert weight == oracle_wis(g).weight, weights
            assert is_independent(g, mask)


class TestOracleBattle:
    def test_five_hundred_generated_instances(self):
        for seed in range(500):
            n = 6 + seed % 11
            g, s_mask, t_mask = gen_split_instance(n, 0.3 + (seed % 5) * 0.15, seed)
            weight, mask = solve_raw(g, s_mask, t_mask)
            want = oracle_wis(g)
            assert weight == want.weight == g.weight_of(mask), (seed, n, want)
            assert is_independent(g, mask)

    def test_deterministic(self):
        g, s_mask, t_mask = gen_split_instance(14, 0.6, 3)
        assert solve_raw(g, s_mask, t_mask) == solve_raw(g, s_mask, t_mask)


class TestLeafRecording:
    def test_every_maximal_set_lies_in_a_leaf(self):
        for seed in range(100):
            g, s_mask, t_mask = gen_split_instance(11, 0.5, seed)
            leaves = walk(g, s_mask, t_mask)
            assert leaves
            for chosen in enumerate_maximal_is(g):
                m = mask_of(chosen)
                assert any(m & ~leaf == 0 for leaf in leaves), (seed, chosen)

    def test_leaves_decompose_into_certified_blocks(self):
        for seed in range(40):
            g, s_mask, t_mask = gen_split_instance(11, 0.5, seed)
            for leaf in walk(g, s_mask, t_mask):
                assert not components_with_certificates(g, leaf)[1]


class TestSideFoldMemo:
    """The memo of a host's uncertified components lives for one cover
    walk or one solved forced pair, and the per-call checks run on a hit
    as on a miss."""

    @staticmethod
    def hit(monkeypatch, memo, host):
        # a second call on ``host`` must not decompose or certify it again
        assert host in memo

        def unreachable(*args):
            raise AssertionError("a memoised host was decomposed again")

        monkeypatch.setattr(split_solver, "components_with_certificates", unreachable)
        monkeypatch.setattr(split_solver, "_all_certified", unreachable)

    def test_out_of_parts_host_raises_on_a_hit(self, monkeypatch):
        g = complete_bipartite(2, 3)
        memo: dict = {}
        raw = split_solver._solve_raw
        leaves: list[int] = []
        raw(g, 0, g.full_mask, g.full_mask, 0, 0, leaves, memo, 0, None)
        assert split_solver._heaviest_leaf(g, leaves) == (3, 0b11100)
        self.hit(monkeypatch, memo, g.full_mask)
        with pytest.raises(StructureViolation) as exc:
            raw(g, 0, 0b11, g.full_mask, 0, 0, None, memo, 0, None)
        assert exc.value.witness == ("split_parts", 0b11100)

    def test_depth_budget_raises_on_a_hit(self, monkeypatch):
        g = complete_bipartite(2, 3)
        memo: dict = {}
        raw = split_solver._solve_raw
        raw(g, 0, g.full_mask, g.full_mask, 0, 0, [], memo, 0, None)
        self.hit(monkeypatch, memo, g.full_mask)
        depth = g.n + 9
        with pytest.raises(StructureViolation) as exc:
            raw(g, 0, g.full_mask, g.full_mask, depth, 0, None, memo, 0, None)
        assert exc.value.witness == ("depth_budget", depth)

    def test_two_uncertified_components_raise_on_a_hit(self, monkeypatch):
        g = TWO_PATHS
        s_mask, t_mask = mask_of([2, 3, 6, 7]), mask_of([0, 1, 4, 5])
        memo: dict = {}
        witnesses = []
        for call in range(2):
            if call:
                self.hit(monkeypatch, memo, g.full_mask)
            with pytest.raises(StructureViolation) as exc:
                split_solver._solve_raw(g, s_mask, t_mask, g.full_mask, 0, 0, None, memo, 0, None)
            witnesses.append(exc.value.witness)
        assert witnesses[0] == witnesses[1]
        assert witnesses[1][0] == "uncertified_components"

    def test_certified_host_records_its_leaf_on_a_hit(self, monkeypatch):
        # the walk weighs nothing: its memo keeps a certified host's
        # (empty) uncertified components alone
        g = complete_bipartite(2, 3)
        memo: dict = {}
        host = mask_of([0, 2, 3])
        raw = split_solver._solve_raw
        for call, ambient in enumerate((0, 0b10)):
            if call:
                self.hit(monkeypatch, memo, host)
            leaves: list[int] = []
            assert raw(g, 0, g.full_mask, host, 0, ambient, leaves, memo, 0, None) is None
            assert leaves == [ambient | host]
            assert memo == {host: ()}

    def test_a_leaf_walk_hit_runs_every_check(self, monkeypatch):
        # the depth budget, the stray parts and the uncertified count are
        # checked on a hit as on a miss, and raise before any leaf is
        # recorded
        raw = split_solver._solve_raw
        g = complete_bipartite(2, 3)
        memo: dict = {}
        leaves: list[int] = []
        raw(g, 0, g.full_mask, g.full_mask, 0, 0, leaves, memo, 0, None)
        paths = TWO_PATHS
        s_mask, t_mask = mask_of([2, 3, 6, 7]), mask_of([0, 1, 4, 5])
        paths_memo: dict = {}
        with pytest.raises(StructureViolation):
            raw(paths, s_mask, t_mask, paths.full_mask, 0, 0, [], paths_memo, 0, None)
        self.hit(monkeypatch, memo, g.full_mask)
        self.hit(monkeypatch, paths_memo, paths.full_mask)
        depth = g.n + 9
        for args, witness in (
            ((g, 0, g.full_mask, g.full_mask, depth), ("depth_budget", depth)),
            ((g, 0, 0b11, g.full_mask, 0), ("split_parts", 0b11100)),
        ):
            with pytest.raises(StructureViolation) as exc:
                raw(*args, 0, leaves, memo, 0, None)
            assert exc.value.witness == witness
        with pytest.raises(StructureViolation) as exc:
            raw(paths, s_mask, t_mask, paths.full_mask, 0, 0, leaves, paths_memo, 0, None)
        assert exc.value.witness == ("uncertified_components", (0b1111, 0b11110000))
        assert leaves == [g.full_mask]

    def test_uncertified_block_part_is_never_memoised(self):
        # nothing keeps a block part: its certificate fails on every call
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])  # a P4 and a singleton
        witnesses = []
        for _ in range(2):
            with pytest.raises(StructureViolation) as exc:
                split_solver._certified_members(g, g.full_mask)
            witnesses.append(exc.value.witness)
        assert witnesses[0] == witnesses[1] == ("incomplete_block", 0b1111)

    @pytest.mark.parametrize("kind", ["clustered", "c7_blowup"])
    def test_the_memo_holds_hosts_only(self, monkeypatch, kind):
        if kind == "clustered":
            draws = (gen_instance("clustered", 18, 0.6, s) for s in range(810_000, 810_100))
            g = next(g for g in draws if len(enumerate_induced_p4(g)) > 1)
        else:
            g = blowup_graph(7, 3, seed=703)
        # a cover call's walk reaches every layer that could write a memo,
        # and keeps one for all of its pairs: each key is a host inside
        # home, and its value the host's uncertified components alone
        witness, home, _ = _membership(g)
        assert witness is None and home
        memos: dict = {}
        raw, walk = split_solver._solve_raw, solver._walk
        walking = False

        def recording(g, s_mask, t_mask, host, depth, ambient, leaves, memo, active, opt):
            if walking:
                memos[id(memo)] = memo
            return raw(g, s_mask, t_mask, host, depth, ambient, leaves, memo, active, opt)

        def flagged(g, home):
            # the walk is a cover call's last pass
            nonlocal walking
            walking = True
            return walk(g, home)

        monkeypatch.setattr(split_solver, "_solve_raw", recording)
        monkeypatch.setattr(solver, "_walk", flagged)
        result, _ = solve_with_cover(g)
        monkeypatch.undo()
        assert result == solve(g)
        (memo,) = memos.values()
        assert memo
        for key, value in memo.items():
            assert type(key) is int and key >= 0 and key & ~home == 0
            assert type(value) is tuple
            assert all(type(c) is int and c and c & ~key == 0 for c in value)

    def test_no_entry_outlives_its_call(self):
        # two graphs on one adjacency with different weights, solved back
        # to back: an entry kept from the first would carry its weights
        # into the second
        checked = 0
        for seed in range(6):
            base = gen_instance("clustered", 14, 0.6, 800_000 + seed)
            paths = enumerate_induced_p4(base)
            if not paths:
                continue
            p = paths[0]
            forced = (1 << p.a) | (1 << p.c)
            for weights in (base.weights, base.weights[::-1], base.weights):
                g = Graph(base.n, weights, base.adj)
                want = oracle_wis(g).weight
                assert solve(g).weight == want
                assert solve_with_cover(g)[0].weight == want
                got = solve_containing_ac(g, p).weight
                assert got == oracle_wis_containing(g, forced).weight
                checked += 1
        assert checked >= 9
