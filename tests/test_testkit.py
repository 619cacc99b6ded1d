"""Oracles, PRNG reproducibility, and instance generators."""

from __future__ import annotations

import pytest
from conftest import (
    complete_graph,
    cycle_graph,
    gen_split_instance,
    is_independent,
    oracle_wis_containing,
    path_graph,
    random_graph,
    wis_by_enumeration,
)

from p4p4free import testkit
from p4p4free.errors import GuardError, InputError, StructureViolation
from p4p4free.graph import Graph, SolveResult, bits, mask_of
from p4p4free.recognition import enumerate_induced_p4, is_class_member
from p4p4free.testkit import XorShift64Star, enumerate_maximal_is, gen_instance, oracle_wis


class TestPrng:
    def test_frozen_vectors_seed_1(self):
        rng = XorShift64Star(1)
        assert [rng.next_u64() for _ in range(5)] == [
            5180492295206395165,
            12380297144915551517,
            13389498078930870103,
            5599127315341312413,
            1036278371763004928,
        ]

    def test_frozen_vectors_seed_42(self):
        rng = XorShift64Star(42)
        assert [rng.next_u64() for _ in range(3)] == [
            6255019084209693600,
            14430073426741505498,
            14575455857230217846,
        ]

    def test_zero_state_is_padded(self):
        assert XorShift64Star(0).next_u64() == 973819730272012410
        assert XorShift64Star(1 << 64).next_u64() == 973819730272012410

    def test_below_range(self):
        rng = XorShift64Star(7)
        draws = [rng.below(10) for _ in range(200)]
        assert all(0 <= d < 10 for d in draws)
        assert len(set(draws)) > 3

    def test_below_rejects_nonpositive_bound(self):
        with pytest.raises(InputError):
            XorShift64Star(7).below(0)

    def test_chance_extremes(self):
        rng = XorShift64Star(7)
        assert not any(rng.chance(0.0) for _ in range(50))
        assert all(rng.chance(1.0) for _ in range(50))


def _matching(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(0, n, 2)])


class TestOracle:
    def test_edgeless_graph_takes_everything(self):
        g = Graph.from_edges(3, [], [1, 2, 3])
        res = oracle_wis(g)
        assert res.weight == 6 and res.chosen == (0, 1, 2)

    def test_triangle_takes_heaviest_vertex(self):
        g = complete_graph(3, [4, 9, 2])
        res = oracle_wis(g)
        assert res.weight == 9 and res.chosen == (1,)

    def test_unit_path_six(self):
        assert oracle_wis(path_graph(6)).weight == 3

    def test_lexicographically_least_witness(self):
        res = oracle_wis(cycle_graph(5))
        assert res.weight == 2 and res.chosen == (0, 2)

    def test_host_restriction(self):
        g = path_graph(4, [10, 1, 1, 10])
        assert oracle_wis(g, mask_of([1, 2])).weight == 1

    @pytest.mark.parametrize(
        "oracle, guard, message",
        [
            (oracle_wis, "3", "guard must be an int"),
            (oracle_wis, 1.5, "guard must be an int"),
            (oracle_wis, True, "guard must be an int"),
            (oracle_wis, -1, "guard must be non-negative"),
            (enumerate_maximal_is, None, "guard must be an int"),
            (enumerate_maximal_is, False, "guard must be an int"),
        ],
        ids=["str", "float", "bool", "negative", "none", "false"],
    )
    def test_a_guard_that_is_no_non_negative_int_is_an_input_error(
        self, oracle, guard, message
    ):
        with pytest.raises(InputError, match=message):
            oracle(path_graph(3), guard=guard)

    def test_guard_fires_and_is_overridable(self):
        g = Graph.from_edges(31, [])
        with pytest.raises(GuardError):
            oracle_wis(g)
        assert oracle_wis(g, guard=31).weight == 31

    def test_a_host_above_the_recursion_ceiling_is_a_guard_error(self):
        # a perfect matching recursed past Python's limit; 500 vertices is
        # the ceiling, which no guard raises
        matching = Graph.from_edges(2400, [(v, v + 1) for v in range(0, 2400, 2)])
        with pytest.raises(GuardError, match=r"2400 vertices \(guard is 500\)"):
            oracle_wis(matching, guard=3000)
        with pytest.raises(GuardError, match=r"502 vertices \(guard is 500\)"):
            oracle_wis(matching, mask_of(range(502)), guard=3000)
        # a clique at the ceiling recurses once per vertex, on one branch
        assert oracle_wis(complete_graph(500), guard=500) == SolveResult(1, (0,))

    @pytest.mark.parametrize("sparse", [_matching, path_graph], ids=["matching", "path"])
    def test_a_sparse_host_makes_one_degree_scan_per_vertex(self, monkeypatch, sparse):
        # isolated vertices stay out of the memo key, so the hosts of the
        # branches fall back on memoized ones: one scan per memoized host
        scans = []

        def counting(mask):
            scans.append(mask)
            return bits(mask)

        monkeypatch.setattr(testkit, "bits", counting)
        assert oracle_wis(sparse(24)).weight == 12
        assert len(scans) <= 24 + 1

    @pytest.mark.parametrize("sparse", [_matching, path_graph], ids=["matching", "path"])
    def test_a_sparse_host_at_the_ceiling(self, sparse):
        assert oracle_wis(sparse(400), guard=500).weight == 200

    @pytest.mark.parametrize("seed", range(40))
    def test_two_independent_methods_agree(self, seed):
        n = 4 + seed % 13  # up to 16 vertices
        g = random_graph(seed, n, 0.3)
        a = oracle_wis(g)
        b = wis_by_enumeration(g)
        assert a == b  # weight and witness, including the tie-break

    def test_more_cross_checks_at_sixteen(self):
        for seed in range(160):
            g = random_graph(1000 + seed, 4 + seed % 13, 0.35)
            assert oracle_wis(g).weight == wis_by_enumeration(g).weight

    def test_result_is_always_independent(self):
        for seed in range(20):
            g = random_graph(seed, 12, 0.4)
            res = oracle_wis(g)
            assert is_independent(g, mask_of(res.chosen))
            assert res.weight == sum(g.weights[v] for v in res.chosen)


class TestOracleContaining:
    def test_forced_endpoints_of_path(self):
        g = path_graph(4)
        assert oracle_wis_containing(g, [0, 2]).weight == 2

    def test_forced_pair_on_longer_path(self):
        res = oracle_wis_containing(path_graph(5), [0, 2])
        assert res.weight == 3 and res.chosen == (0, 2, 4)

    def test_matches_filtered_enumeration(self):
        # force vertex 0 and compare against a filtered subset scan
        for seed in range(25):
            g = random_graph(seed, 10, 0.3)
            res = oracle_wis_containing(g, [0])
            best = -1
            for code in range(1 << 10):
                if code & 1 and is_independent(g, code):
                    best = max(best, g.weight_of(code))
            assert res.weight == best
            assert 0 in res.chosen


class TestEnumerateMaximal:
    def test_path_four(self):
        g = path_graph(4)
        assert enumerate_maximal_is(g) == [(0, 2), (0, 3), (1, 3)]

    def test_triangle_gives_singletons(self):
        assert enumerate_maximal_is(complete_graph(3)) == [(0,), (1,), (2,)]

    def test_c5_gives_five_pairs(self):
        got = enumerate_maximal_is(cycle_graph(5))
        assert len(got) == 5
        assert all(len(s) == 2 for s in got)

    def test_guard(self):
        with pytest.raises(GuardError):
            enumerate_maximal_is(Graph.from_edges(21, []))

    def test_a_host_above_the_recursion_ceiling_is_a_guard_error(self):
        # an edgeless graph recurses once per vertex; 500 vertices is the
        # ceiling, which no guard raises
        g = Graph.from_edges(1200, [])
        with pytest.raises(GuardError, match=r"1200 vertices \(guard is 500\)"):
            enumerate_maximal_is(g, guard=2000)
        with pytest.raises(GuardError, match=r"501 vertices \(guard is 500\)"):
            enumerate_maximal_is(g, mask_of(range(501)), guard=2000)
        assert enumerate_maximal_is(g, mask_of(range(500)), guard=500) == [
            tuple(range(500))
        ]

    def test_sets_are_maximal_unique_and_sorted(self):
        for seed in range(20):
            g = random_graph(seed, 10, 0.3)
            got = enumerate_maximal_is(g)
            assert got == sorted(got)
            assert len(set(got)) == len(got)
            for s in got:
                m = mask_of(s)
                assert is_independent(g, m)
                for v in range(10):
                    if m >> v & 1:
                        continue
                    assert g.adj[v] & m  # no addable vertex

    def test_every_maximal_set_is_found(self):
        for seed in range(10):
            g = random_graph(seed, 9, 0.3)
            got = set(enumerate_maximal_is(g))
            for code in range(1 << 9):
                if not is_independent(g, code):
                    continue
                maximal = all(
                    g.adj[v] & code for v in range(9) if not code >> v & 1
                )
                if maximal:
                    assert tuple(bits(code)) in got


class TestGenerators:
    def test_deterministic_per_parameters(self):
        for seed in (0, 5, 11):
            for model in ("clustered", "rejection"):
                a = gen_instance(model, 14, 0.4, seed)
                b = gen_instance(model, 14, 0.4, seed)
                assert a == b

    def test_every_output_is_a_class_member(self):
        for seed in range(40):
            for model in ("clustered", "rejection"):
                g = gen_instance(model, 4 + seed % 13, 0.5, seed)
                assert is_class_member(g).is_member

    def test_rejection_without_a_member_raises(self):
        # 1000 draws, none a member: an error, not a graph of another model
        with pytest.raises(InputError) as info:
            gen_instance("rejection", 30, 0.5, 7)
        message = str(info.value)
        for part in ("rejection", "1000 attempts", "n=30", "density=0.5"):
            assert part in message

    def test_clustered_drops_refused_attachments(self, monkeypatch):
        # at n = 60 the unchecked attachments of seed 9 leave two separated
        # paths, so the graph keeps the planted edges alone
        g = gen_instance("clustered", 60, 0.5, 9)
        assert is_class_member(g).is_member
        checked = []

        def recording(h):
            checked.append(h)
            return is_class_member(h)

        monkeypatch.setattr(testkit, "is_class_member", recording)
        assert gen_instance("clustered", 60, 0.5, 9) == g
        full, planted = checked
        assert not is_class_member(full).is_member
        assert planted == g and set(planted.edges()) < set(full.edges())

    @pytest.mark.parametrize("n", [14, 30])
    def test_clustered_without_a_member_raises(self, monkeypatch, n):
        # a recognizer that refuses everything refuses the final graph and
        # the planted structure (below 21 vertices the proposed edges are
        # decided by the delta test, which does not call it)
        refused = is_class_member(complete_graph(3))
        monkeypatch.setattr(testkit, "is_class_member", lambda g: refused)
        with pytest.raises(StructureViolation) as info:
            gen_instance("clustered", n, 0.5, 7)
        message = str(info.value)
        for part in ("clustered", f"n={n}", "density=0.5", "seed=7"):
            assert part in message
        assert info.value.witness == ("clustered_non_member", (n, 0.5, 7))

    def test_weights_in_range(self):
        g = gen_instance("clustered", 25, 0.5, 3)
        assert all(0 <= w <= 100 for w in g.weights)

    def test_density_zero_clustered_is_plain_disjoint_union(self):
        from p4p4free.graph import components_with_certificates

        g = gen_instance("clustered", 14, 0.0, 7)
        _, uncertified = components_with_certificates(g, g.full_mask)
        assert len(uncertified) == 1  # exactly the planted path
        assert len(enumerate_induced_p4(g, uncertified[0])) == 1

    def test_small_sizes(self):
        for n in (1, 2, 3, 4):
            g = gen_instance("clustered", n, 0.5, 1)
            assert g.n == n and is_class_member(g).is_member

    def test_large_clustered_instances_stay_members(self):
        for n in (30, 45, 60):
            g = gen_instance("clustered", n, 0.5, 9)
            assert is_class_member(g).is_member

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            gen_instance("clustered", 0, 0.5, 1)
        with pytest.raises(InputError):
            gen_instance("clustered", 5, 1.5, 1)
        with pytest.raises(InputError):
            gen_instance("clustered", 5, -0.1, 1)
        with pytest.raises(InputError):
            gen_instance("mystery", 5, 0.5, 1)

    @pytest.mark.parametrize(
        "n, density, seed, message",
        [
            ("5", 0.5, 1, "n must be an int"),
            (5.0, 0.5, 1, "n must be an int"),
            (True, 0.5, 1, "n must be an int"),
            (5, "0.5", 1, "density must be a number"),
            (5, None, 1, "density must be a number"),
            (5, True, 1, "density must be a number"),
            (5, 0.5, 1.0, "seed must be an int"),
            (5, 0.5, "1", "seed must be an int"),
            (5, 0.5, False, "seed must be an int"),
            (5, 1.5, 1, "density must be a number"),
            (5, -0.5, 1, "density must be a number"),
        ],
        ids=[
            "str-n", "float-n", "bool-n", "str-density", "none-density",
            "bool-density", "float-seed", "str-seed", "bool-seed",
            "high-density", "negative-density",
        ],
    )
    def test_parameters_of_the_wrong_type_are_input_errors(self, n, density, seed, message):
        for model in ("clustered", "rejection"):
            with pytest.raises(InputError, match=message):
                gen_instance(model, n, density, seed)

    def test_no_self_loops_or_asymmetry(self):
        for seed in range(10):
            g = gen_instance("clustered", 16, 0.6, seed)
            for v in range(g.n):
                assert not g.adj[v] >> v & 1
                for u in bits(g.adj[v]):
                    assert g.adj[u] >> v & 1

    def test_split_instances_expose_the_two_parts(self):
        from p4p4free.graph import components_with_certificates

        interesting = 0
        for seed in range(30):
            g, s_mask, t_mask = gen_split_instance(12, 0.5, seed)
            assert s_mask & t_mask == 0
            assert s_mask | t_mask == g.full_mask
            assert is_independent(g, s_mask)
            assert is_class_member(g).is_member
            certified, uncertified = components_with_certificates(g, t_mask)
            assert not uncertified
            if any(side_b for _, side_b in certified):
                interesting += 1
        assert interesting > 10

    def test_an_empty_split_instance(self):
        assert gen_split_instance(0, 0.5, 1) == (Graph.from_edges(0, []), 0, 0)
