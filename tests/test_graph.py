"""Vertex-set primitives, component decomposition, and certificates."""

from __future__ import annotations

import pytest
from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_independent,
    path_graph,
    random_graph,
    two_colorable,
)

from p4p4free.errors import InputError
from p4p4free.graph import (
    Graph,
    bits,
    certified_result,
    components_with_certificates,
    mask_of,
    neighborhood,
)
import p4p4free as p4
from p4p4free import recognition, testkit
from p4p4free.testkit import XorShift64Star


def test_bits_yields_ascending_ids():
    assert list(bits(0b101101)) == [0, 2, 3, 5]
    assert list(bits(0)) == []


def test_mask_of_round_trips():
    assert mask_of([5, 0, 3]) == 0b101001
    assert tuple(bits(mask_of(range(4)))) == (0, 1, 2, 3)


class TestGraphConstruction:
    def test_default_weights_are_unit(self):
        g = path_graph(3)
        assert g.weights == (1, 1, 1)

    def test_duplicate_and_reversed_edges_collapse(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
        assert list(g.edges()) == [(0, 1)]

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(InputError, match="vertex count must be nonnegative"):
            Graph.from_edges(-1, [])

    @pytest.mark.parametrize(
        "n", ["3", None, 2.5, True], ids=["str", "none", "float", "bool"]
    )
    def test_rejects_a_vertex_count_that_is_no_int(self, n):
        with pytest.raises(InputError, match="vertex count must be an int"):
            Graph.from_edges(n, [])

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph.from_edges(2, [(1, 1)])

    @pytest.mark.parametrize(
        "edge",
        [(0, 1.0), (0,), (0, 1, 2), 5, "01", (True, 0), (0, False)],
        ids=["float", "one", "three", "int", "str", "bool_first", "bool_second"],
    )
    def test_rejects_an_edge_that_is_not_a_pair_of_integers(self, edge):
        with pytest.raises(InputError, match="is no integer pair"):
            Graph.from_edges(2, [edge])

    def test_rejects_negative_weight(self):
        with pytest.raises(InputError):
            Graph.from_edges(1, [], [-3])

    @pytest.mark.parametrize(
        "weights",
        [[0.4, 0.6], ["3", "07"], [float("nan"), 1], [True, 5], [2, False]],
        ids=["float", "str", "nan", "bool_true", "bool_false"],
    )
    def test_rejects_weights_that_are_not_integers(self, weights):
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 1)], weights)

    def test_accepts_any_other_integer_type(self):
        # operator.index still reads every integer type but bool
        class Id:
            def __init__(self, v):
                self.v = v

            def __index__(self):
                return self.v

        g = Graph.from_edges(3, [(Id(1), Id(2))], [Id(1), 5, Id(0)])
        assert list(g.edges()) == [(1, 2)]
        assert g.weights == (1, 5, 0)
        assert all(type(w) is int for w in g.weights)

    def test_rejects_weight_count_mismatch(self):
        with pytest.raises(InputError):
            Graph.from_edges(2, [], [1])

    def test_adjacency_is_symmetric(self):
        g = random_graph(9, 10, 0.4)
        for u in range(10):
            for v in range(10):
                assert g.adjacent(u, v) == g.adjacent(v, u)


P4 = p4.InducedP4(0, 1, 2, 3)

# the public entries that take a host, each as a call (g, host)
HOST_ENTRIES = {
    "neighborhood": neighborhood,
    "components_with_certificates": components_with_certificates,
    "find_triangle": p4.find_triangle,
    "enumerate_induced_p4": p4.enumerate_induced_p4,
    "find_induced_p4": p4.find_induced_p4,
    "uncertified_p4": recognition.uncertified_p4,
    "neighborhood_partition": lambda g, h: p4.neighborhood_partition(g, P4, h),
    "solve_containing_ac": lambda g, h: p4.solve_containing_ac(g, P4, h),
    "solve_containing_bd": lambda g, h: p4.solve_containing_bd(g, P4, h),
    "solve_cb_components": p4.solve_cb_components,
    "cb_weight_mask": p4.cb_weight_mask,
    "oracle_wis": p4.oracle_wis,
    "wis_by_enumeration": testkit.wis_by_enumeration,
    "oracle_wis_containing": lambda g, h: p4.oracle_wis_containing(g, [0], h),
    "enumerate_maximal_is": p4.enumerate_maximal_is,
}


class TestCheckHost:
    def test_none_is_the_full_mask(self):
        g = path_graph(5)
        assert g._check_host(None) == g._check_host() == g.full_mask

    @pytest.mark.parametrize("host", [0, 0b10101, 0b11111])
    def test_a_mask_in_range_comes_back(self, host):
        assert path_graph(5)._check_host(host) == host

    @pytest.mark.parametrize("host", [-1, 1 << 5, 0b111111])
    def test_out_of_range_is_an_input_error(self, host):
        with pytest.raises(InputError):
            path_graph(5)._check_host(host)

    # a float or a string fails the range check with a bare TypeError, and
    # True would pass as the mask 1, so any type but int is refused first
    @pytest.mark.parametrize("host", [1.5, 2.0, True, False, "3", 0b11111 + 0j])
    def test_a_host_that_is_no_int_is_an_input_error(self, host):
        with pytest.raises(InputError, match="host mask must be an int"):
            path_graph(5)._check_host(host)

    # every public entry that takes a host, called with one of each kind
    # refused above on a class member, where nothing else refuses first
    @pytest.mark.parametrize("host", [1.5, 2.0, True, "3"])
    @pytest.mark.parametrize("name", sorted(HOST_ENTRIES))
    def test_every_public_entry_refuses_a_host_that_is_no_int(self, name, host):
        with pytest.raises(InputError, match="host mask must be an int"):
            HOST_ENTRIES[name](path_graph(5), host)


class TestNeighborhoods:
    def test_path_endpoint(self):
        g = path_graph(4)
        assert neighborhood(g, mask_of([0])) == mask_of([1])

    def test_path_middle_pair_excludes_itself(self):
        g = path_graph(4)
        assert neighborhood(g, mask_of([1, 2])) == mask_of([0, 3])

    def test_out_of_range_rejected(self):
        g = path_graph(3)
        with pytest.raises(InputError):
            neighborhood(g, 1 << 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_partition_into_set_neighbors_and_rest(self, seed):
        """N(u) misses u and holds every outside vertex with a neighbour in u."""
        g = random_graph(seed, 12, 0.3)
        u = mask_of(v for v in range(12) if (seed >> v) & 1) or 1
        nb = neighborhood(g, u)
        assert u & nb == 0
        # against a direct pairwise scan
        expected = mask_of(
            w
            for w in range(12)
            if not (u >> w) & 1 and any(g.adjacent(w, x) for x in bits(u))
        )
        assert nb == expected


class TestComponents:
    def test_k23_single_certified_component(self):
        g = complete_bipartite(2, 3)
        certified, uncertified = components_with_certificates(g, g.full_mask)
        assert uncertified == ()
        assert len(certified) == 1
        side_a, side_b = certified[0]
        assert {side_a.bit_count(), side_b.bit_count()} == {2, 3}
        assert side_a == mask_of([0, 1])  # the side holding vertex 0 comes first

    def test_path_component_has_no_certificate(self):
        g = path_graph(4)
        assert components_with_certificates(g, g.full_mask) == ((), (g.full_mask,))

    def test_isolated_vertices_are_trivial(self):
        g = Graph.from_edges(3, [])
        certified, uncertified = components_with_certificates(g, g.full_mask)
        assert certified == ((0b1, 0), (0b10, 0), (0b100, 0))
        assert uncertified == ()

    def test_components_are_a_partition_in_smallest_vertex_order(self):
        uncertified_seen = 0
        for seed in range(15):
            g = random_graph(seed, 11, 0.15)
            certified, uncertified = components_with_certificates(g, g.full_mask)
            uncertified_seen += len(uncertified)
            union = 0
            for comps in ([a | b for a, b in certified], uncertified):
                prev_low = -1
                for comp in comps:
                    assert comp & union == 0
                    union |= comp
                    low = (comp & -comp).bit_length() - 1
                    assert low > prev_low
                    prev_low = low
            assert union == g.full_mask
        assert uncertified_seen

    def test_rerunning_on_a_component_returns_it(self):
        g = random_graph(3, 11, 0.15)
        certified, uncertified = components_with_certificates(g, g.full_mask)
        assert uncertified
        for side_a, side_b in certified:
            again = components_with_certificates(g, side_a | side_b)
            assert again == (((side_a, side_b),), ())
        for comp in uncertified:
            assert components_with_certificates(g, comp) == ((), (comp,))

    def test_certificates_are_sound(self):
        """Whenever sides are reported, completeness and independence hold."""
        for seed in range(25):
            g = random_graph(seed, 10, 0.25)
            for side_a, side_b in components_with_certificates(g, g.full_mask)[0]:
                comp = side_a | side_b
                assert side_a & side_b == 0
                assert comp & -comp & side_a  # side_a holds the smallest vertex
                for u in bits(side_a):
                    for v in bits(side_b):
                        assert g.adjacent(u, v)
                for side in (side_a, side_b):
                    assert is_independent(g, side)

    @staticmethod
    def _blocks_plus_noise(seed: int) -> Graph:
        """Random complete bipartite blocks, some broken by extra edges."""
        rng = XorShift64Star(seed)
        edges, n = [], 0
        for _ in range(4):
            a, b = 1 + rng.below(3), 1 + rng.below(3)
            edges += [(n + i, n + a + j) for i in range(a) for j in range(b)]
            n += a + b
        for _ in range(rng.below(4)):
            u, v = rng.below(n), rng.below(n)
            if u != v:
                edges.append((u, v))
        return Graph.from_edges(n, edges)

    def test_certificates_are_complete(self):
        """Every complete bipartite component gets its certificate."""
        certified = rejected = 0
        for seed in range(80):
            g = self._blocks_plus_noise(700 + seed)
            found, uncertified = components_with_certificates(g, g.full_mask)
            sides_of = {a | b: (a, b) for a, b in found}
            for comp in [*sides_of, *uncertified]:
                members = list(bits(comp))
                if len(members) < 2 or not two_colorable(g, comp):
                    continue
                # a complete bipartite component splits into the smallest
                # vertex's neighbours and the rest, every cross pair adjacent
                opposite = g.adj[members[0]] & comp
                side = comp & ~opposite
                if all(g.adjacent(u, v) for u in bits(side) for v in bits(opposite)):
                    assert sides_of.get(comp) == (side, opposite), (seed, members)
                    certified += len(members) > 2
                else:
                    assert comp in uncertified, (seed, members)
                    rejected += 1
        assert certified >= 100 and rejected >= 30

    @staticmethod
    def _reference(g: Graph, host: int):
        """``components_with_certificates`` by a BFS two-colouring of each
        component from its smallest vertex, certified by an explicit check
        that every cross pair is adjacent and each side is independent."""
        certified, uncertified = [], []
        seen = 0
        for s in bits(host):
            if seen >> s & 1:
                continue
            colour = {s: 0}
            queue = [s]
            for v in queue:
                for w in bits(g.adj[v] & host):
                    if w not in colour:
                        colour[w] = colour[v] ^ 1
                        queue.append(w)
            comp = mask_of(colour)
            seen |= comp
            side_a = mask_of(v for v, c in colour.items() if c == 0)
            side_b = comp & ~side_a
            if (
                all(g.adjacent(u, v) for u in bits(side_a) for v in bits(side_b))
                and is_independent(g, side_a)
                and is_independent(g, side_b)
            ):
                certified.append((side_a, side_b))
            else:
                uncertified.append(comp)
        return tuple(certified), tuple(uncertified)

    def test_random_hosts_match_the_reference(self):
        """On hosts that cut through complete bipartite blocks, and on
        blocks missing one cross edge or holding one edge inside a side,
        the result equals the reference, order included."""
        rng = XorShift64Star(4_242)
        certified = uncertified = 0
        graphs = [random_graph(5_000 + seed, 12, 0.2) for seed in range(20)]
        graphs += [self._blocks_plus_noise(800 + seed) for seed in range(40)]
        for a in range(1, 5):
            for b in range(1, 5):
                base = list(complete_bipartite(a, b).edges())
                graphs.append(Graph.from_edges(a + b, base))
                graphs.append(Graph.from_edges(a + b, base[1:]))  # one cross edge gone
                if a > 1:
                    graphs.append(Graph.from_edges(a + b, [*base, (0, a - 1)]))
                if b > 1:
                    graphs.append(Graph.from_edges(a + b, [*base, (a, a + b - 1)]))
        for g in graphs:
            hosts = [g.full_mask] + [rng.below(1 << g.n) for _ in range(25)]
            for host in hosts:
                expected = self._reference(g, host)
                assert components_with_certificates(g, host) == expected, (g, host)
                certified += sum(1 for _, b in expected[0] if b)
                uncertified += len(expected[1])
        assert certified >= 1_000 and uncertified >= 300

    def test_odd_cycle_is_uncertified(self):
        g = cycle_graph(5)
        assert components_with_certificates(g, g.full_mask) == ((), (g.full_mask,))

    def test_nontrivial_filter(self):
        g = Graph.from_edges(3, [(0, 1)])
        certified, _ = components_with_certificates(g, g.full_mask)
        assert [a | b for a, b in certified if b] == [mask_of([0, 1])]


class TestCertifiedResult:
    def test_recomputes_weight(self):
        g = path_graph(4, [10, 1, 1, 10])
        res = certified_result(g, mask_of([0, 3]))
        assert res.weight == 20
        assert res.chosen == (0, 3)

    def test_rejects_dependent_set(self):
        g = path_graph(4)
        with pytest.raises(RuntimeError, match="self-certification"):
            certified_result(g, mask_of([0, 1]))

    def test_triangle_weight_sums(self):
        g = complete_graph(3, [4, 9, 2])
        assert g.weight_of(mask_of([1])) == 9
