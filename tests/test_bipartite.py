"""Base-case solver: hosts whose nontrivial components are complete bipartite."""

from __future__ import annotations

import pytest
from conftest import (
    blowup_graph,
    blowup_optimum,
    complete_bipartite,
    complete_graph,
    crown_graph,
    crown_optimum,
    cycle_graph,
    path_graph,
    triangle_free_graph,
    two_colorable,
    wis_by_enumeration,
)

from p4p4free.errors import ClassViolation, StructureViolation
from p4p4free.graph import Graph, bits, mask_of
from p4p4free.bipartite import lp_bound, solve_cb_components
from p4p4free.testkit import XorShift64Star, gen_instance, oracle_wis


def test_single_edge_picks_heavier_endpoint():
    g = Graph.from_edges(2, [(0, 1)], [5, 7])
    res = solve_cb_components(g)
    assert res.weight == 7
    assert res.chosen == (1,)


def test_k23_picks_heavier_side():
    g = complete_bipartite(2, 3, [4, 4, 3, 3, 3])
    res = solve_cb_components(g)
    assert res.weight == 9
    assert res.chosen == (2, 3, 4)


def test_star_plus_isolated_vertex():
    # K_{1,2} with center weight 2, leaves 1,1; plus an isolated 6
    g = Graph.from_edges(4, [(0, 1), (0, 2)], [2, 1, 1, 6])
    res = solve_cb_components(g)
    assert res.weight == 8
    assert 3 in res.chosen


def test_side_tie_goes_to_side_with_smallest_vertex():
    g = Graph.from_edges(3, [(0, 1), (0, 2)], [2, 1, 1])
    assert solve_cb_components(g).chosen == (0,)


def test_empty_host_is_weight_zero():
    g = path_graph(3)
    res = solve_cb_components(g, 0)
    assert res.weight == 0 and res.chosen == ()


@pytest.mark.parametrize("a", range(1, 6))
@pytest.mark.parametrize("b", range(1, 6))
def test_matches_enumeration_on_complete_bipartite_shapes(a, b):
    rng = XorShift64Star(1000 * a + b)
    for _ in range(4):
        weights = [rng.below(101) for _ in range(a + b)]
        g = complete_bipartite(a, b, weights)
        assert solve_cb_components(g).weight == wis_by_enumeration(g).weight


def test_adding_isolated_vertex_adds_its_weight():
    g = complete_bipartite(2, 3, [4, 4, 3, 3, 3])
    base = solve_cb_components(g).weight
    edges = list(g.edges())
    grown = Graph.from_edges(6, edges, [4, 4, 3, 3, 3, 17])
    assert solve_cb_components(grown).weight == base + 17


def test_multiple_components_sum_up():
    # two disjoint edges plus a singleton
    g = Graph.from_edges(5, [(0, 1), (2, 3)], [1, 9, 5, 5, 2])
    res = solve_cb_components(g)
    assert res.weight == 9 + 5 + 2
    assert res.chosen == (1, 2, 4)


def test_path_component_raises_structure_violation():
    g = path_graph(4)
    with pytest.raises(StructureViolation) as exc:
        solve_cb_components(g)
    assert exc.value.witness[0] == "incomplete_component"


def test_separated_paths_are_refused_with_a_checked_witness():
    g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    with pytest.raises(ClassViolation) as exc:
        solve_cb_components(g)
    assert exc.value.witness == ("p4_pair", ((0, 1, 2, 3), (4, 5, 6, 7)))


def test_non_member_is_refused_even_when_its_host_would_solve():
    g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
    with pytest.raises(ClassViolation) as exc:
        solve_cb_components(g, mask_of([0, 1]))
    assert exc.value.witness == ("triangle", (2, 3, 4))


def test_triangle_component_raises_class_violation():
    g = complete_graph(3)
    with pytest.raises(ClassViolation) as exc:
        solve_cb_components(g)
    kind, triangle = exc.value.witness
    assert kind == "triangle" and triangle == (0, 1, 2)


def test_deterministic_across_runs():
    g = complete_bipartite(3, 3, [2, 2, 2, 3, 3, 0])
    assert solve_cb_components(g) == solve_cb_components(g)


class TestLpBound:
    """``lp_bound`` is the floor of the Nemhauser–Trotter LP value: the
    optimum on a bipartite host, at least the optimum on any host."""

    @pytest.mark.parametrize("k", range(2, 13))
    def test_equals_the_optimum_on_crowns(self, k):
        rng = XorShift64Star(2_000 + k)
        g = crown_graph(k, [rng.below(101) for _ in range(2 * k)])
        assert lp_bound(g, g.full_mask) == oracle_wis(g).weight == crown_optimum(g, k)

    def test_equals_the_optimum_on_rejection_members(self):
        for i in range(30):
            g = gen_instance("rejection", 6 + i % 13, 0.3 + 0.05 * (i % 9), 3_000 + i)
            assert two_colorable(g, g.full_mask)
            assert lp_bound(g, g.full_mask) == oracle_wis(g).weight, i

    def test_bounds_the_optimum_on_clustered_members(self):
        for i in range(40):
            g = gen_instance("clustered", 8 + i % 11, 0.3 + 0.05 * (i % 9), 4_000 + i)
            assert lp_bound(g, g.full_mask) >= oracle_wis(g).weight, i

    def test_bounds_the_optimum_on_blowups_and_is_loose_on_some(self):
        loose = 0
        for k, s in [(5, 2), (5, 3), (5, 4), (5, 6), (7, 2), (7, 3), (7, 4)]:
            g = blowup_graph(k, s, seed=100 * k + s)
            optimum = blowup_optimum(g, k)
            bound = lp_bound(g, g.full_mask)
            assert bound >= optimum
            loose += bound > optimum
        assert loose >= 1

    @staticmethod
    def _half_integral_lp(g: Graph, host: int) -> int:
        """Twice the LP value of g[host], by exhaustion.

        By Nemhauser–Trotter the LP has an optimum in {0, ½, 1}^host.  With
        the vertices at 1 an independent set I, their neighbours are at 0,
        and every other vertex can sit at ½, which weights do not penalise:
        twice the value is the best 2·w(I) + w(host minus N[I])."""
        best = 0
        verts = list(bits(host))
        for k in range(1 << len(verts)):
            chosen = mask_of(v for i, v in enumerate(verts) if k >> i & 1)
            if any(g.adj[v] & chosen for v in bits(chosen)):
                continue
            closed = chosen
            for v in bits(chosen):
                closed |= g.adj[v]
            best = max(best, 2 * g.weight_of(chosen) + g.weight_of(host & ~closed))
        return best

    def test_is_the_lp_floor_off_bipartite_hosts(self):
        # a maximum below the true one would pass a plain ">= optimum" check
        rng = XorShift64Star(5_151)
        graphs = []
        for n in (5, 7, 9):
            for _ in range(4):
                graphs.append(cycle_graph(n, [rng.below(101) for _ in range(n)]))
        graphs += [blowup_graph(k, s, seed=100 * k + s) for k, s in [(5, 1), (7, 1)]]
        seed = 6_000
        while len(graphs) < 44:
            g = triangle_free_graph(seed, 7 + seed % 3, 0.35)
            seed += 1
            if not two_colorable(g, g.full_mask):
                graphs.append(g)
        cases = [(g, g.full_mask) for g in graphs]
        # random hosts of at most 9 vertices holding an odd cycle, in small
        # C5/C7 blow-ups
        for k, s in [(5, 2), (5, 3), (7, 2)]:
            g = blowup_graph(k, s, seed=100 * k + s)
            hosts = 0
            while hosts < 20:
                host = rng.below(1 << g.n)
                if host.bit_count() <= 9 and not two_colorable(g, host):
                    cases.append((g, host))
                    hosts += 1
        loose = 0
        for g, host in cases:
            bound = lp_bound(g, host)
            assert bound == self._half_integral_lp(g, host) // 2, (g, host)
            loose += bound > oracle_wis(g, host).weight
        assert loose >= 10

    def test_empty_host_is_zero(self):
        g = path_graph(5, [3, 1, 4, 1, 5])
        assert lp_bound(g, 0) == 0
        assert lp_bound(Graph.from_edges(0, []), 0) == 0

    def test_reads_only_the_host(self):
        # on the whole path 0-1-2-3-4 the optimum is {0, 2, 4} = 12; on
        # {1, 2, 3} alone it is {1, 3} = 18
        g = path_graph(5, [3, 9, 4, 9, 5])
        assert lp_bound(g, g.full_mask) == 18
        assert lp_bound(g, mask_of([1, 2, 3])) == 18
        assert lp_bound(g, mask_of([0, 2, 4])) == 12
        assert lp_bound(g, mask_of([2, 3, 4])) == 9
        rng = XorShift64Star(77)
        g = crown_graph(8, [rng.below(101) for _ in range(16)])
        for _ in range(20):
            host = rng.below(1 << g.n)
            assert lp_bound(g, host) == oracle_wis(g, host).weight

    def test_long_path_without_recursion(self):
        rng = XorShift64Star(2_000)
        weights = [rng.below(101) for _ in range(2_000)]
        g = path_graph(2_000, weights)
        take = skip = 0  # best sets of the prefix with / without its last vertex
        for w in weights:
            take, skip = skip + w, max(take, skip)
        assert lp_bound(g, g.full_mask) == max(take, skip)
