"""Triangle search, induced-P4 enumeration, class membership, traces."""

from __future__ import annotations

import tracemalloc
from collections import Counter

import pytest
from conftest import (
    andrasfai_graph,
    blowup_graph,
    complete_graph,
    crown_graph,
    cycle_graph,
    fuzz_graph,
    is_independent,
    path_graph,
    petersen,
    random_graph,
    scan_member,
    scan_p4s,
    scan_triangles,
    scan_verdict,
    triangle_free_graph,
    triangle_free_non_members,
    verdict_witness,
)

from p4p4free import bipartite, cli, constrained, solver
from p4p4free.bipartite import solve_cb_components
from p4p4free.constrained import solve_containing_ac
from p4p4free.errors import ClassViolation, InputError, StructureViolation
from p4p4free.graph import (
    Graph,
    bits,
    components_with_certificates,
    mask_of,
    neighborhood,
)
from p4p4free import recognition
from p4p4free.recognition import (
    InducedP4,
    MembershipVerdict,
    NeighborhoodPartition,
    _canonical_p4s,
    _membership,
    _stays_member,
    enumerate_induced_p4,
    find_induced_p4,
    find_triangle,
    is_class_member,
    neighborhood_partition,
    uncertified_p4,
    witness_holds,
)
from p4p4free.solver import solve, solve_with_cover
from p4p4free.testkit import XorShift64Star, gen_instance


class TestFindTriangle:
    def test_k3(self):
        assert find_triangle(complete_graph(3)) == (0, 1, 2)

    def test_c5_has_none(self):
        assert find_triangle(cycle_graph(5)) is None

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_three_subset_scan(self, seed):
        g = random_graph(seed, 12, 0.25)
        scans = scan_triangles(g)
        got = find_triangle(g)
        if scans:
            assert got == min(scans)  # lexicographically least witness
        else:
            assert got is None

    def test_host_restriction(self):
        g = complete_graph(4)
        assert find_triangle(g, mask_of([0, 1])) is None
        assert find_triangle(g, mask_of([1, 2, 3])) == (1, 2, 3)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_hosts_agree_with_restricted_scan(self, seed):
        g = random_graph(seed, 12, 0.3)
        host = XorShift64Star(seed).below(1 << g.n)
        inside = [t for t in scan_triangles(g) if all(host >> v & 1 for v in t)]
        assert find_triangle(g, host) == (min(inside) if inside else None)

    @pytest.mark.parametrize("host", [1 << 5, -1])
    def test_out_of_range_host_is_an_input_error(self, host):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(InputError):
            find_triangle(g, host)


class TestInducedP4Type:
    def test_vertices_and_mask(self):
        p = InducedP4(0, 1, 2, 3)
        assert p.vertices == (0, 1, 2, 3)
        assert p.mask == mask_of([0, 1, 2, 3])

    # a path is validated where it is used: neighborhood_partition, the
    # forced-pair solvers and witness_holds share one check
    def test_rejects_chords(self):
        g = cycle_graph(4)
        with pytest.raises(InputError):
            neighborhood_partition(g, InducedP4(0, 1, 2, 3))

    def test_rejects_missing_edge(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError):
            neighborhood_partition(g, InducedP4(0, 1, 2, 3))

    def test_rejects_a_bool_id(self):
        # False and True index as 0 and 1, which would make a genuine path
        g = path_graph(4)
        with pytest.raises(InputError):
            neighborhood_partition(g, InducedP4(False, True, 2, 3))

    def test_reverse_swaps_orientation(self):
        p = InducedP4(0, 1, 2, 3)
        assert p.reverse().vertices == (3, 2, 1, 0)
        assert p.reverse().mask == p.mask


class TestEnumerateP4:
    def test_path_has_exactly_one(self):
        got = enumerate_induced_p4(path_graph(4))
        assert [p.vertices for p in got] == [(0, 1, 2, 3)]

    def test_c5_has_exactly_five(self):
        assert len(enumerate_induced_p4(cycle_graph(5))) == 5

    def test_canonical_orientation_and_order(self):
        for seed in range(25):
            g = random_graph(seed, 10, 0.3)
            got = enumerate_induced_p4(g)
            assert all(p.a < p.d for p in got)
            keys = [p.vertices for p in got]
            assert keys == sorted(keys)

    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_four_subset_scan(self, seed):
        g = random_graph(seed, 10, 0.3)
        assert {p.vertices for p in enumerate_induced_p4(g)} == scan_p4s(g)

    def test_equals_the_sorted_four_subset_scan_on_the_fuzz_members(self):
        members = 0
        for j in range(600):
            g = fuzz_graph(j)
            if not is_class_member(g).is_member:
                continue
            members += 1
            home = _membership(g)[1]
            for host in (g.full_mask, home):
                got = [p.vertices for p in enumerate_induced_p4(g, host)]
                assert got == sorted(scan_p4s(g, host)), j
        assert members >= 200

    def test_host_restriction(self):
        g = path_graph(5)
        inside = enumerate_induced_p4(g, mask_of([0, 1, 2, 3]))
        assert [p.vertices for p in inside] == [(0, 1, 2, 3)]

    @pytest.mark.parametrize("g", [path_graph(4), cycle_graph(5), petersen()])
    def test_find_without_a_host_searches_the_whole_graph(self, g):
        first = min(enumerate_induced_p4(g), key=lambda p: (p.b, p.c, p.a, p.d))
        assert find_induced_p4(g) == find_induced_p4(g, None) == first
        assert find_induced_p4(g, g.full_mask) == first

    def test_find_first_matches_enumeration(self):
        rng = XorShift64Star(15)
        for seed in range(15):
            g = random_graph(seed, 10, 0.3)
            for host in (g.full_mask, rng.below(1 << g.n), rng.below(1 << g.n)):
                all_p4s = enumerate_induced_p4(g, host)
                # the scan yields paths in (b, c, a, d) order
                first = min(all_p4s, key=lambda p: (p.b, p.c, p.a, p.d), default=None)
                assert find_induced_p4(g, host) == first


class TestMembership:
    def test_two_far_apart_paths_rejected(self):
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        verdict = is_class_member(g)
        assert not verdict.is_member
        p, q = verdict.p4_pair
        assert p.mask & q.mask == 0
        assert all(not g.adjacent(u, v) for u in p.vertices for v in q.vertices)

    def test_c5_accepted(self):
        assert is_class_member(cycle_graph(5)).is_member

    def test_triangle_rejected_with_witness(self):
        verdict = is_class_member(complete_graph(3))
        assert not verdict.is_member
        assert verdict.triangle == (0, 1, 2)

    def test_a_verdict_is_truthy_exactly_for_a_member(self):
        separated = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        assert not is_class_member(complete_graph(3))
        assert not is_class_member(separated)
        assert is_class_member(cycle_graph(5))

    def test_petersen_matches_exhaustive_scan(self):
        g = petersen()
        assert is_class_member(g).is_member == scan_member(g)

    @pytest.mark.parametrize("seed", range(60))
    def test_agrees_with_exhaustive_scan_on_random_graphs(self, seed):
        n = 8 + seed % 5
        g = random_graph(seed, n, 0.2 + (seed % 3) * 0.15)
        assert is_class_member(g).is_member == scan_member(g)

    def test_witness_matches_the_scan_on_fuzz_draws(self):
        for j in range(600):
            g = fuzz_graph(j)
            assert verdict_witness(is_class_member(g)) == scan_verdict(g), j

    def test_witness_when_complete_bipartite_blocks_come_first(self):
        # two K_{2,3} on 0-4 and 5-9, then two separated paths on 10-17
        blocks = [(s + i, s + j) for s in (0, 5) for i in range(2) for j in (2, 3, 4)]
        paths = [(v, v + 1) for s in (10, 14) for v in range(s, s + 3)]
        g = Graph.from_edges(18, blocks + paths)
        want = ("p4_pair", ((10, 11, 12, 13), (14, 15, 16, 17)))
        assert verdict_witness(is_class_member(g)) == scan_verdict(g) == want

    @pytest.mark.parametrize("i", range(6))
    def test_clustered_members_agree_with_the_full_scan(self, i):
        g = gen_instance("clustered", 45 + 15 * i, 0.5, 700_000 + i)
        assert is_class_member(g).is_member
        assert scan_verdict(g) is None

    def test_witnesses_are_genuine(self):
        for seed in range(40):
            g = random_graph(seed, 9, 0.3)
            verdict = is_class_member(g)
            if verdict.is_member:
                continue
            if verdict.triangle is not None:
                u, v, w = verdict.triangle
                assert g.adjacent(u, v) and g.adjacent(u, w) and g.adjacent(v, w)
            else:
                p, q = verdict.p4_pair
                assert p.mask & q.mask == 0
                assert all(
                    not g.adjacent(u, v) for u in p.vertices for v in q.vertices
                )


def _region(g: Graph, home: int, t) -> int:
    """Home minus the closed neighbourhood of the path t."""
    a, b, c, d = t
    return home & ~(g.adj[a] | g.adj[b] | g.adj[c] | g.adj[d] | mask_of(t))


def _reference_membership(g: Graph):
    """The membership scan without its region memo, size skip or edge
    skip: every path of home, in scan order, has its region searched.
    Returns the witness in ``verdict_witness`` form (None for a member)
    and, on a member, home's paths in ascending tuple order, from the
    four-subset scan."""
    tri = find_triangle(g)
    if tri is not None:
        return ("triangle", tri), ()
    home = sum(components_with_certificates(g, g.full_mask)[1])  # disjoint masks
    paths = sorted(scan_p4s(g, home))
    for t in sorted(paths, key=lambda t: (t[1], t[2], t[0], t[3])):
        q = find_induced_p4(g, _region(g, home, t))
        if q is not None:
            return ("p4_pair", (t, q.vertices)), ()
    return None, tuple(paths)


def _verdict_and_paths(g: Graph):
    """``_reference_membership``'s form of ``_membership``, with home's
    paths drawn from ``_canonical_p4s`` on a member."""
    witness, home, _ = _membership(g)
    paths = tuple(_canonical_p4s(g, home)) if witness is None else ()
    return witness, paths


def _middle_edges(g: Graph, home: int):
    """The ordered edges (b, c) of g[home], ascending, with a neighbour
    of b off c, and a neighbour of c off b above the least of those: the
    middles the scan walks."""
    adj = [m & home for m in g.adj]
    edges = []
    for b in bits(home):
        for c in bits(adj[b]):
            a_cand = adj[b] & ~adj[c] & ~(1 << c)
            d_cand = adj[c] & ~adj[b] & ~(1 << b)
            if a_cand and max(bits(d_cand), default=-1) > min(bits(a_cand)):
                edges.append((b, c))
    return edges


REGION_GRAPHS = {
    "rejection_14": lambda: gen_instance("rejection", 14, 0.6, 2),
    "crown_9": lambda: crown_graph(9),
    "clustered_30": lambda: gen_instance("clustered", 30, 0.5, 11),
}


class TestMembershipRegions:
    def test_verdict_and_paths_equal_the_unmemoised_scan_on_fuzz_draws(self):
        for j in range(600):
            g = fuzz_graph(j)
            assert _verdict_and_paths(g) == _reference_membership(g), j

    def test_verdict_equals_the_unmemoised_scan_on_triangle_free_graphs(self):
        graphs = list(triangle_free_non_members(120, start=5_000))
        graphs += [triangle_free_graph(seed, 12 + seed % 9, 0.2) for seed in range(60)]
        for i, g in enumerate(graphs):
            assert _verdict_and_paths(g) == _reference_membership(g), i

    @pytest.mark.parametrize("name", sorted(REGION_GRAPHS) + ["non_members"])
    def test_each_region_of_four_or_more_is_searched_once(self, monkeypatch, name):
        # each middle edge's S, home minus N(b) and N(c), is certified
        # first; only an edge whose S holds a path has its paths' regions
        # certified, in (a, d) order, and only a region that holds a path
        # is searched for one, which ends the scan.  A mask of fewer than
        # 4 vertices is never certified, and no mask twice
        graphs = [REGION_GRAPHS[name]()] if name in REGION_GRAPHS else list(
            triangle_free_non_members(20, start=9_000)
        )
        certified, searched = [], []
        certify, find = recognition._all_certified, recognition.find_induced_p4

        def certifying(adj, host):
            certified.append(host)
            return certify(adj, host)

        def counting(g, host):
            searched.append(host)
            return find(g, host)

        monkeypatch.setattr(recognition, "_all_certified", certifying)
        monkeypatch.setattr(recognition, "find_induced_p4", counting)
        for g in graphs:
            certified.clear()
            searched.clear()
            home = sum(components_with_certificates(g, g.full_mask)[1])  # disjoint masks
            paths = scan_p4s(g, home)
            want, refusing, known = [], [], {}

            def holds_a_path(mask):
                if mask.bit_count() < 4:
                    return False
                if mask not in known:
                    want.append(mask)
                    known[mask] = find(g, mask) is not None
                return known[mask]

            for b, c in _middle_edges(g, home):
                if not holds_a_path(home & ~(g.adj[b] | g.adj[c])):
                    continue
                for t in sorted(t for t in paths if t[1:3] == (b, c)):
                    region = _region(g, home, t)
                    if holds_a_path(region):
                        refusing.append(region)
                        break
                if refusing:
                    break
            assert is_class_member(g).is_member == (not refusing)
            assert certified == want
            assert searched == refusing

    @pytest.mark.parametrize("entry", [is_class_member, solve])
    def test_the_front_step_keeps_no_paths(self, entry):
        # crown_graph(60) has 205,320 induced P4s; a front step that kept
        # them as tuples peaked at about 17 MiB
        g = crown_graph(60)
        tracemalloc.start()
        try:
            entry(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("name", sorted(REGION_GRAPHS))
    def test_canonical_paths_are_tuples_in_ascending_order(self, name):
        g = REGION_GRAPHS[name]()
        witness, home, _ = _membership(g)
        paths = list(_canonical_p4s(g, home))
        assert witness is None and paths
        assert all(type(t) is tuple for t in paths)
        assert paths == sorted(scan_p4s(g, home))


def _least_triangle(g: Graph):
    """The lexicographically least triangle, by a search over every
    vertex u and each neighbour v above it, for a common neighbour above
    v."""
    for u in range(g.n):
        above = g.adj[u] >> (u + 1) << (u + 1)
        for v in bits(above):
            ws = g.adj[v] & above >> (v + 1) << (v + 1)
            if ws:
                return (u, v, (ws & -ws).bit_length() - 1)
    return None


def _two_pass_membership(g: Graph):
    """``_membership`` by two passes over every vertex: a triangle search
    (``_least_triangle``), then ``components_with_certificates(g,
    g.full_mask)``, then every path of home in scan order has its region
    searched."""
    tri = _least_triangle(g)
    if tri is not None:
        return ("triangle", tri), 0, ()
    certified, uncertified = components_with_certificates(g, g.full_mask)
    home = sum(uncertified)  # disjoint masks
    for t in recognition._p4_scan(g, home):
        q = find_induced_p4(g, _region(g, home, t))
        if q is not None:
            return ("p4_pair", (t, q.vertices)), home, certified
    return None, home, certified


def _scattered_parts(seed: int) -> Graph:
    """Up to five parts (a complete bipartite graph, a path, a cycle, a
    triangle with a pendant, a lone vertex), each chosen at random, on
    vertex ids shuffled so that the parts interleave."""
    rng = XorShift64Star(seed)
    parts = []
    for _ in range(1 + rng.below(5)):
        kind, k = rng.below(5), 2 + rng.below(4)
        if kind == 0:
            a = 1 + rng.below(3)
            parts.append((a + k, [(i, j) for i in range(a) for j in range(a, a + k)]))
        elif kind == 1:
            parts.append((k + 2, [(i, i + 1) for i in range(k + 1)]))
        elif kind == 2:
            parts.append((k + 3, [(i, (i + 1) % (k + 3)) for i in range(k + 3)]))
        elif kind == 3:
            parts.append((4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
        else:
            parts.append((1, []))
    n = sum(size for size, _ in parts)
    ids = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        ids[i], ids[j] = ids[j], ids[i]
    edges, base = [], 0
    for size, part in parts:
        edges += [(ids[base + u], ids[base + v]) for u, v in part]
        base += size
    return Graph.from_edges(n, edges)


# layouts for the front pass, each named for what it puts in the pass's way
FRONT_LAYOUTS = {
    # a star on 0-2 and the lone vertex 3 come before the triangle 4-5-6
    "triangle_above_certified": Graph.from_edges(
        8, [(0, 1), (0, 2), (4, 5), (4, 6), (5, 6), (6, 7)]
    ),
    # K_{2,2} on the even ids 0-6 beside the path 1-3-5-7
    "interleaved_components": Graph.from_edges(
        8, [(0, 2), (0, 6), (4, 2), (4, 6), (1, 3), (3, 5), (5, 7)]
    ),
    # the path 0-3-1-4-2: 1 and 2 have no neighbour below them, yet lie in
    # the component that 0 fails to certify, and 3 and 4 have one
    "uncertified_without_lower_neighbours": Graph.from_edges(
        5, [(0, 3), (3, 1), (1, 4), (4, 2)]
    ),
    # the component of 0 holds the triangle 5-6-7, that of 1 the least
    # triangle 2-3-4
    "lower_component_later_triangle": Graph.from_edges(
        8, [(0, 5), (5, 6), (6, 7), (5, 7), (1, 2), (2, 3), (3, 4), (2, 4)]
    ),
}


class TestFrontPass:
    @pytest.mark.parametrize("name", sorted(FRONT_LAYOUTS))
    def test_layouts_equal_the_two_passes(self, name):
        g = FRONT_LAYOUTS[name]
        assert _membership(g) == _two_pass_membership(g)

    def test_layout_outcomes(self):
        # what each layout is for, so that a layout stays one
        got = {name: _membership(g) for name, g in FRONT_LAYOUTS.items()}
        assert got["triangle_above_certified"][0] == ("triangle", (4, 5, 6))
        witness, home, certified = got["interleaved_components"]
        assert witness is None and home == mask_of([1, 3, 5, 7])
        assert certified == ((mask_of([0, 4]), mask_of([2, 6])),)
        assert got["uncertified_without_lower_neighbours"][1:] == (0b11111, ())
        assert got["lower_component_later_triangle"][0] == ("triangle", (2, 3, 4))

    def test_random_graphs_equal_the_two_passes(self):
        # 10,000 seeded draws: sparse and denser random graphs, triangle-
        # free ones, and interleaved parts; they reach triangles, separated
        # paths, members with paths and graphs without any
        seen = Counter()
        for seed in range(2_500):
            n = seed % 41
            graphs = (
                random_graph(3_000_000 + seed, n, 0.02 + (seed % 7) * 0.02, weighted=False),
                random_graph(3_100_000 + seed, n % 16, 0.1 + (seed % 5) * 0.08, weighted=False),
                triangle_free_graph(3_200_000 + seed, n, 0.04 + (seed % 6) * 0.03),
                _scattered_parts(3_300_000 + seed),
            )
            for i, g in enumerate(graphs):
                got = _membership(g)
                assert got == _two_pass_membership(g), (seed, i)
                witness, home, _ = got
                seen[witness[0] if witness else "home" if home else "no_home"] += 1
        assert set(seen) == {"triangle", "p4_pair", "home", "no_home"}, seen


def _with_small_parts(g: Graph) -> Graph:
    """g beside a path on three vertices, an edge and a lone vertex, none
    of which holds a P4: a maximal triangle-free g gains non-edges that
    close no triangle."""
    n = g.n
    extra = [(n, n + 1), (n + 1, n + 2), (n + 3, n + 4)]
    return Graph.from_edges(n + 6, [*g.edges(), *extra])


def _delta_members(family: str):
    """Seeded class members of one family, for the delta test."""
    if family == "clustered":
        for n in range(4, 21):
            for density in (0.1, 0.5, 0.9):
                yield gen_instance("clustered", n, density, 910_000 + n)
    elif family == "triangle_free":
        for seed in range(120):
            g = triangle_free_graph(920_000 + seed, 8 + seed % 13, 0.12 + seed % 4 * 0.06)
            if is_class_member(g).is_member:
                yield g
    elif family == "blowups":
        for k in (5, 7):
            for s in (1, 2, 3):
                yield _with_small_parts(blowup_graph(k, s, seed=930_000 + 10 * k + s))
    else:
        for k in range(4, 11):
            yield _with_small_parts(andrasfai_graph(k, 940_000 + k))


def _delta_batches(g: Graph, seed: int):
    """Seeded batches of 1-4 non-edges of g, eight of each kind: drawn at
    random; pairwise vertex-disjoint; led by a pair at distance two, which
    closes a triangle; led by a pair joining two components."""
    rng = XorShift64Star(seed)
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.adj[u] >> v & 1]
    certified, uncertified = components_with_certificates(g, g.full_mask)
    comps = [a | b for a, b in certified] + list(uncertified)
    leads = {
        "random": non_edges,
        "disjoint": non_edges,
        "triangle": [(u, v) for u, v in non_edges if g.adj[u] & g.adj[v]],
        "joining": [
            (u, v) for u, v in non_edges if not any(c >> u & c >> v & 1 for c in comps)
        ],
    }
    for kind, pool in leads.items():
        for _ in range(8 if pool else 0):
            batch = [pool[rng.below(len(pool))]]
            for _ in range(rng.below(4)):
                u, v = non_edges[rng.below(len(non_edges))]
                used = {x for e in batch for x in e}
                if (u, v) in batch or kind == "disjoint" and used & {u, v}:
                    continue
                batch.append((u, v))
            yield kind, batch


# each graph holds the path 0-1-2-3; the batch makes a second induced
# P4 separated from it, with its new edge at an end, in the middle or
# closing a triangle, or the batch leaves a member
DELTA_CASES = {
    "end_edge": (8, [(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)], [(4, 5)], False),
    "middle_edge": (8, [(0, 1), (1, 2), (2, 3), (4, 5), (6, 7)], [(5, 6)], False),
    "triangle": (6, [(0, 1), (1, 2), (2, 3), (4, 5)], [(0, 2)], False),
    "two_new_edges": (8, [(0, 1), (1, 2), (2, 3), (4, 5)], [(5, 6), (6, 7)], False),
    "member": (8, [(0, 1), (1, 2), (2, 3), (4, 5), (6, 7)], [(3, 4), (5, 6)], True),
}


class TestStaysMember:
    @pytest.mark.parametrize("name", sorted(DELTA_CASES))
    def test_each_way_a_batch_can_break_a_member(self, name):
        n, edges, batch, want = DELTA_CASES[name]
        g = Graph.from_edges(n, edges)
        grown = Graph.from_edges(n, edges + batch)
        assert is_class_member(g).is_member
        assert is_class_member(grown).is_member == want
        assert _stays_member(g.adj, batch) == want

    @pytest.mark.parametrize("family", ["clustered", "triangle_free", "blowups", "andrasfai"])
    def test_agrees_with_full_recognition(self, family):
        answers = Counter()
        for i, g in enumerate(_delta_members(family)):
            assert is_class_member(g).is_member
            for kind, batch in _delta_batches(g, 950_000 + i):
                adj = list(g.adj)
                got = _stays_member(adj, batch)
                grown = Graph.from_edges(g.n, [*g.edges(), *batch])
                assert got == is_class_member(grown).is_member, (family, i, batch)
                assert adj == list(g.adj)
                answers[kind, got] += 1
        assert answers["triangle", False] and not answers["triangle", True]
        assert answers["joining", True] and answers["joining", False]


TWO_PATHS = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
NEAR_MISS_GRAPHS = {
    "triangle": lambda: Graph.from_edges(4, [(0, 1), (1, 3), (0, 3), (2, 3)]),
    "two_paths": lambda: Graph.from_edges(8, TWO_PATHS),
    "chord_0_2": lambda: Graph.from_edges(8, TWO_PATHS + [(0, 2)]),
    "edge_1_6": lambda: Graph.from_edges(8, TWO_PATHS + [(1, 6)]),
    "path_8": lambda: path_graph(8),
}


class TestWitnessHolds:
    def test_genuine_witnesses_hold(self):
        two_paths = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        assert witness_holds(two_paths, ("p4_pair", ((3, 2, 1, 0), (4, 5, 6, 7))))
        assert witness_holds(complete_graph(3), ("triangle", (2, 0, 1)))

    def test_touching_paths_fail(self):
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])
        assert not witness_holds(g, ("p4_pair", ((0, 1, 2, 3), (4, 5, 6, 7))))

    @pytest.mark.parametrize(
        "witness",
        [
            ("triangle", (0, 1, 2)),
            ("triangle", (0, 1)),
            ("triangle", (0, 1, 9)),
            ("p4_pair", ((0, 1, 2, 3),)),
            ("unexpected_p4", (0, 1, 2, 3)),
            ("side_split_blocks", ()),
            None,
        ],
    )
    def test_malformed_or_false_witnesses_fail(self, witness):
        assert not witness_holds(path_graph(4), witness)

    # near misses: each witness is one step from a genuine one on its
    # graph (NEAR_MISS_GRAPHS), and must not re-check
    @pytest.mark.parametrize(
        "graph, witness",
        [
            # a triangle 0-1-3 (3 is n - 1) with a pendant 2 on 3
            ("triangle", ("triangle", (0, 1, 3))),
            ("two_paths", ("p4_pair", ((0, 1, 2, 3), (4, 5, 6, 7)))),
        ],
    )
    def test_near_miss_graphs_hold_their_genuine_witness(self, graph, witness):
        assert witness_holds(NEAR_MISS_GRAPHS[graph](), witness)

    @pytest.mark.parametrize(
        "graph, witness",
        [
            ("triangle", ("triangle", (0, 1, 1))),
            ("triangle", ("triangle", (3, 3, 0))),
            ("triangle", ("triangle", (-1, 0, 1))),
            ("triangle", ("triangle", (0, 1, 4))),
            ("triangle", ("triangle", (0, 1, 2))),
            ("triangle", ("triangle", (2, 3, 0))),
            ("triangle", ("triangle", (0, 1, 3.0))),
            ("triangle", ("triangle", (0, "1", 3))),
            ("triangle", ("triangle", (0, 1, None))),
            ("triangle", ("triangle", (True, 0, 3))),
            ("triangle", ("triangle", (0, True, 3))),
            ("triangle", ("triangle", (0, 1))),
            ("triangle", ("triangle", (0, 1, 3, 2))),
            ("triangle", ("triangle", 3)),
            ("triangle", ("triangle", (0, 1, 3), "extra")),
            ("chord_0_2", ("p4_pair", ((0, 1, 2, 3), (4, 5, 6, 7)))),
            ("two_paths", ("p4_pair", ((0, 2, 1, 3), (4, 5, 6, 7)))),
            ("two_paths", ("p4_pair", ((0, 1, 2, 3), (4, 5, 7, 6)))),
            ("path_8", ("p4_pair", ((0, 1, 2, 3), (3, 4, 5, 6)))),
            ("two_paths", ("p4_pair", ((0, 1, 2, 3), (3, 2, 1, 0)))),
            ("edge_1_6", ("p4_pair", ((0, 1, 2, 3), (4, 5, 6, 7)))),
            ("edge_1_6", ("p4_pair", ((4, 5, 6, 7), (0, 1, 2, 3)))),
            ("two_paths", ("p4_pair", ((0, 1, 2), (4, 5, 6, 7)))),
            ("two_paths", ("p4_pair", ((0, 1, 2, 3), (4, 5, 6)))),
            ("two_paths", ("p4_pair", ((0, 1, 2, 3, 4), (4, 5, 6, 7)))),
            ("two_paths", ("p4_pair", ((0, 1, 2, 3), (4, 5, 6, 7, 0)))),
            ("two_paths", ("p4_pair", ((0, 1, 2, 3.0), (4, 5, 6, 7)))),
            ("two_paths", ("p4_pair", ((0, 1, 2, 3), ("4", 5, 6, 7)))),
            ("two_paths", ("p4_pair", ((0, 1, 2, 3), (4, 5, 6, None)))),
            ("two_paths", ("p4_pair", ((False, True, 2, 3), (4, 5, 6, 7)))),
            ("two_paths", ("p4_pair", ((4, 5, 6, 7), (False, True, 2, 3)))),
            ("two_paths", ("p4_pair", ((0, 1, 2, 3), (4, 5, 6, 8)))),
            ("two_paths", ("p4_pair", ((-1, 1, 2, 3), (4, 5, 6, 7)))),
            ("two_paths", ("p4_pair", ((0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 2, 3)))),
            ("two_paths", ("p4_pair", (0, 1, 2, 3))),
            ("two_paths", ("p4_pair", None)),
        ],
    )
    def test_near_misses_fail(self, graph, witness):
        assert not witness_holds(NEAR_MISS_GRAPHS[graph](), witness)

    def test_agrees_with_the_recognizer_on_random_graphs(self):
        for seed in range(40):
            g = random_graph(seed, 12, 0.25)
            verdict = is_class_member(g)
            if verdict.triangle is not None:
                assert witness_holds(g, ("triangle", verdict.triangle))
            elif verdict.p4_pair is not None:
                p, q = verdict.p4_pair
                assert witness_holds(g, ("p4_pair", (p.vertices, q.vertices)))


# each public solver with the first call its guarded block makes, looked
# up in its module at call time: patching that call shows whether the
# block ran, and raises inside it
GUARDED = {
    "solve": (solver, "side_selection", solve),
    "solve_with_cover": (solver, "side_selection", solve_with_cover),
    "solve_cb_components": (bipartite, "cb_weight_mask", solve_cb_components),
    "solve_containing_ac": (
        constrained,
        "neighborhood_partition",
        lambda g: solve_containing_ac(g, InducedP4(0, 1, 2, 3)),
    ),
}
# non-members in which 0-1-2-3 is an induced P4
GUARD_NON_MEMBERS = {
    "triangle": lambda: Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4)]),
    "p4_pair": lambda: Graph.from_edges(8, TWO_PATHS),
}


def _raising(err):
    def raise_it(*args, **kwargs):
        raise err

    return raise_it


class TestVerifiedMember:
    @pytest.mark.parametrize("kind", sorted(GUARD_NON_MEMBERS))
    @pytest.mark.parametrize("entry", sorted(GUARDED))
    def test_a_non_member_is_refused_before_the_block(self, monkeypatch, entry, kind):
        module, inner, call = GUARDED[entry]
        monkeypatch.setattr(module, inner, _raising(AssertionError("the block ran")))
        g = GUARD_NON_MEMBERS[kind]()
        with pytest.raises(ClassViolation) as info:
            call(g)
        refusal = info.value
        assert type(refusal) is ClassViolation
        assert refusal.witness[0] == kind and witness_holds(g, refusal.witness)
        assert refusal.__cause__ is None and refusal.__suppress_context__

    @pytest.mark.parametrize("entry", sorted(GUARDED))
    def test_an_input_error_in_the_block_leaves_unwrapped(self, monkeypatch, entry):
        module, inner, call = GUARDED[entry]
        err = InputError("inside the block")
        monkeypatch.setattr(module, inner, _raising(err))
        with pytest.raises(InputError) as info:
            call(path_graph(4))
        assert info.value is err

    @pytest.mark.parametrize("entry", sorted(GUARDED))
    def test_a_refusal_in_the_block_is_an_internal_fault(self, monkeypatch, entry):
        module, inner, call = GUARDED[entry]
        bogus = ClassViolation("bogus", ("triangle", (0, 1, 2)))
        monkeypatch.setattr(module, inner, _raising(bogus))
        with pytest.raises(StructureViolation) as info:
            call(path_graph(4))
        assert str(info.value) == "class member refused: bogus"
        assert info.value.witness == bogus.witness
        assert info.value.__cause__ is bogus

    def _check(self, monkeypatch, tmp_path, g, emit):
        path = tmp_path / "g.wis"
        path.write_text(cli.format_graph(g))
        monkeypatch.setattr(cli, "_emit", emit)
        return cli.run(["check", str(path)])

    @pytest.mark.parametrize("kind", sorted(GUARD_NON_MEMBERS))
    def test_check_refuses_a_non_member_before_the_block(
        self, monkeypatch, tmp_path, capsys, kind
    ):
        emitted = []
        emit = cli._emit

        def recording(args, text_lines, payload):
            emitted.append(text_lines[0])
            emit(args, text_lines, payload)

        g = GUARD_NON_MEMBERS[kind]()
        assert self._check(monkeypatch, tmp_path, g, recording) == 0
        assert emitted == ["NOT_MEMBER"]
        assert f"witness {kind}" in capsys.readouterr().out

    def test_check_lets_an_input_error_in_the_block_leave(
        self, monkeypatch, tmp_path, capsys
    ):
        emit = _raising(InputError("inside the block"))
        assert self._check(monkeypatch, tmp_path, path_graph(4), emit) == 3
        assert capsys.readouterr().err == "error: inside the block\n"

    def test_check_turns_a_refusal_in_the_block_into_an_internal_fault(
        self, monkeypatch, tmp_path, capsys
    ):
        emit = _raising(ClassViolation("bogus", ("triangle", (0, 1, 2))))
        assert self._check(monkeypatch, tmp_path, path_graph(4), emit) == 1
        err = capsys.readouterr().err
        assert err == "internal error: class member refused: bogus\n"


class TestOneRefusal:
    """A refusal is a plain witness until the public call raises it: each
    refuser raises the one ``ClassViolation`` that ``_refusal`` spells,
    its witness re-checked, and no verdict object lies on the way."""

    def test_every_refuser_raises_the_verdicts_refusal_on_fuzz_draws(
        self, tmp_path, capsys
    ):
        kinds = Counter()
        path = tmp_path / "g.wis"
        for j in range(600):
            g = fuzz_graph(j)
            want = is_class_member(g).violation()
            if want is None:
                continue
            kinds[want.witness[0]] += 1
            for call in (solve, solve_with_cover, solve_cb_components):
                with pytest.raises(ClassViolation) as info:
                    call(g)
                refusal = info.value
                assert type(refusal) is ClassViolation
                assert (str(refusal), refusal.witness) == (str(want), want.witness), j
                assert witness_holds(g, refusal.witness)
                assert refusal.__cause__ is None and refusal.__suppress_context__
            path.write_text(cli.format_graph(g))
            assert cli.run(["solve", str(path)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert err[0] == f"class violation: {want}" and len(err) == 2, j
            assert cli.run(["check", str(path)]) == 0
            assert capsys.readouterr().out.splitlines() == ["NOT_MEMBER", err[1]], j
        assert kinds["triangle"] and kinds["p4_pair"], kinds

    def test_the_solvers_build_no_verdict(self, monkeypatch):
        member = path_graph(4)
        solved = solve(member)
        refusals = {kind: make() for kind, make in GUARD_NON_MEMBERS.items()}
        wants = {kind: is_class_member(g).violation() for kind, g in refusals.items()}
        bogus = MembershipVerdict(False, (0, 1, 2)).violation()

        def no_verdict(*args, **kwargs):
            raise AssertionError("a MembershipVerdict was built")

        monkeypatch.setattr(recognition, "MembershipVerdict", no_verdict)
        for call in (solve, solve_with_cover):
            for kind, g in refusals.items():
                with pytest.raises(ClassViolation) as info:
                    call(g)
                refusal, want = info.value, wants[kind]
                assert (str(refusal), refusal.witness) == (str(want), want.witness)
                assert witness_holds(g, refusal.witness)
            got = solve(member) if call is solve else solve_with_cover(member)[0]
            assert (got.weight, got.chosen) == (solved.weight, solved.chosen)
        # 0, 1, 2 is a path of the member, not a triangle
        monkeypatch.setattr(recognition, "_front", lambda adj, host: ((0, 1, 2), 0, ()))
        for call in (solve, solve_with_cover):
            with pytest.raises(StructureViolation) as info:
                call(member)
            assert info.value.witness == ("unchecked_witness", bogus.witness)
            cause = info.value.__cause__
            assert type(cause) is ClassViolation
            assert (str(cause), cause.witness) == (str(bogus), bogus.witness)


class TestUncertifiedP4:
    def test_path_component_yields_a_path(self):
        g = path_graph(5)
        p = uncertified_p4(g, g.full_mask)
        assert p.vertices in scan_p4s(g) or p.reverse().vertices in scan_p4s(g)

    def test_triangle_is_a_violation(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        with pytest.raises(ClassViolation) as exc:
            uncertified_p4(g, g.full_mask)
        assert exc.value.witness == ("triangle", (0, 1, 2))


class TestNeighborhoodPartition:
    def test_single_far_endpoint_attachment(self):
        # x = 4 adjacent to both path endpoints' inner anchors a and c
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 2)])
        part = neighborhood_partition(g, InducedP4(0, 1, 2, 3))
        assert part.s_ac == mask_of([4])
        assert (
            part.s_a | part.s_b | part.s_c | part.s_d | part.s_ad | part.s_bd
        ) == 0
        assert part.anti == 0

    def test_path_extension_lands_in_s_d(self):
        g = path_graph(5)
        part = neighborhood_partition(g, InducedP4(0, 1, 2, 3))
        assert part.s_d == mask_of([4])
        assert part.anti == 0

    def test_adjacent_pair_trace_is_a_violation(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1)])
        with pytest.raises(ClassViolation) as exc:
            neighborhood_partition(g, InducedP4(0, 1, 2, 3))
        kind, triangle = exc.value.witness
        assert kind == "triangle"
        assert triangle == (0, 1, 4)

    def test_sets_partition_the_host(self):
        checked = 0
        for seed in range(40):
            g = random_graph(seed, 10, 0.25)
            if not is_class_member(g).is_member:
                continue
            for p in enumerate_induced_p4(g):
                part = neighborhood_partition(g, p)
                groups = [
                    p.mask,
                    part.s_a,
                    part.s_b,
                    part.s_c,
                    part.s_d,
                    part.s_ac,
                    part.s_ad,
                    part.s_bd,
                    part.anti,
                ]
                union = 0
                for m in groups:
                    assert union & m == 0
                    union |= m
                assert union == g.full_mask
                assert part.anti == g.full_mask & ~p.mask & ~neighborhood(g, p.mask)
                checked += 1
        assert checked > 20

    def test_traces_match_their_class(self):
        a_bit, b_bit, c_bit, d_bit = range(4)
        for seed in range(40):
            g = random_graph(seed, 10, 0.25)
            if not is_class_member(g).is_member:
                continue
            for p in enumerate_induced_p4(g):
                part = neighborhood_partition(g, p)
                pv = p.vertices
                expected = {
                    part.s_a: (True, False, False, False),
                    part.s_b: (False, True, False, False),
                    part.s_c: (False, False, True, False),
                    part.s_d: (False, False, False, True),
                    part.s_ac: (True, False, True, False),
                    part.s_ad: (True, False, False, True),
                    part.s_bd: (False, True, False, True),
                }
                for group, trace in expected.items():
                    for v in bits(group):
                        assert tuple(g.adjacent(v, x) for x in pv) == trace

    def test_independence_facts_inside_classes(self):
        """b-side and d-side class unions stay independent (no triangles)."""
        for seed in range(40):
            g = random_graph(seed, 10, 0.25)
            if not is_class_member(g).is_member:
                continue
            for p in enumerate_induced_p4(g):
                part = neighborhood_partition(g, p)
                assert is_independent(g, part.s_b | part.s_bd)
                assert is_independent(g, part.s_d | part.s_bd)
                assert is_independent(g, part.s_b)
                assert is_independent(g, part.s_c)

    @pytest.mark.parametrize(
        "g",
        [gen_instance("clustered", 14, 0.6, 800_000 + seed) for seed in range(4)]
        + [gen_instance("rejection", 12, 0.6, seed) for seed in (2, 6)]
        + [blowup_graph(7, 2, seed=702), crown_graph(5)],
    )
    def test_reverse_equals_the_reversed_paths_partition(self, g):
        # in the whole graph and in home, the union of its uncertified
        # components, where the solver partitions
        home = sum(components_with_certificates(g, g.full_mask)[1])  # disjoint masks
        paths = enumerate_induced_p4(g)
        assert paths
        for host in (g.full_mask, home):
            for p in paths:
                part = neighborhood_partition(g, p, host)
                s_a, s_b, s_c, s_d, s_ac, s_ad, s_bd, anti = _fields(part)
                # a and d swap, b and c, ac and bd; ad and anti stay
                rev = _fields(neighborhood_partition(g, p.reverse(), host))
                assert rev == (s_d, s_c, s_b, s_a, s_bd, s_ad, s_ac, anti)

    def test_host_restriction(self):
        g = path_graph(5)
        part = neighborhood_partition(
            g, InducedP4(0, 1, 2, 3), host=mask_of([0, 1, 2, 3])
        )
        assert part.s_d == 0
        assert part.anti == 0

    def test_non_path_is_refused_before_any_trace(self):
        # 0-1 is no edge, so the tuple is no path; read as one, vertex 4
        # would give the false triangle witness (0, 1, 4)
        g = Graph.from_edges(5, [(0, 2), (2, 3), (4, 0), (4, 1)])
        assert is_class_member(g).is_member
        with pytest.raises(InputError):
            neighborhood_partition(g, InducedP4(0, 1, 2, 3))

    @pytest.mark.parametrize("vs", [(-1, 0, 1, 2), (0, 1, 0, 2), (0, 1, 2, 0)])
    def test_negative_or_repeated_ids_are_input_errors(self, vs):
        g = path_graph(5)
        with pytest.raises(InputError):
            neighborhood_partition(g, InducedP4(*vs))

    @pytest.mark.parametrize("vs", [(False, 1, 2, 3), (True, 2, 3, 4), (0, 1.0, 2, 3)])
    def test_ids_that_are_not_ints_are_input_errors(self, vs):
        g = path_graph(5)
        with pytest.raises(InputError):
            neighborhood_partition(g, InducedP4(*vs))


def _outcome(call):
    """What ``call()`` returns, or the type, message and witness of the
    error it raises."""
    try:
        return call()
    except (InputError, ClassViolation) as err:
        return type(err), str(err), getattr(err, "witness", None)


def _fields(part) -> tuple[int, ...]:
    return (
        part.s_a, part.s_b, part.s_c, part.s_d,
        part.s_ac, part.s_ad, part.s_bd, part.anti,
    )


class TestTraceClasses:
    """The solver's unchecked kernel against the public partition that
    checks its input and wraps it."""

    def test_masks_equal_the_partition_and_its_reverse(self):
        rng = XorShift64Star(2525)
        checked = 0
        for seed in range(60):
            g = random_graph(seed, 8 + seed % 7, 0.2 + 0.05 * (seed % 4))
            for p in enumerate_induced_p4(g)[:12]:
                # the full graph, then random hosts that hold the path
                hosts = (g.full_mask, *(rng.below(1 << g.n) | p.mask for _ in range(3)))
                for host in hosts:
                    try:
                        part = neighborhood_partition(g, p, host)
                    except ClassViolation:
                        continue
                    classes = recognition._trace_classes(g, p.vertices, host)
                    assert classes == _fields(part)
                    s_a, s_b, s_c, s_d, s_ac, s_ad, s_bd, anti = classes
                    rev = (s_d, s_c, s_b, s_a, s_bd, s_ad, s_ac, anti)
                    assert rev == _fields(neighborhood_partition(g, p.reverse(), host))
                    assert rev == recognition._trace_classes(
                        g, p.reverse().vertices, host
                    )
                    checked += 1
        assert checked > 1000

    def test_the_partition_checks_what_the_kernel_trusts(self):
        # each graph's paths, in both orientations, and random four-vertex
        # tuples, in random hosts with and without the tuple: the partition
        # refuses non-paths and paths leaving the host, and on a path
        # inside its host it equals the unchecked kernel, triangle clashes
        # included
        rng = XorShift64Star(2626)
        kinds = {"clash": 0, "non-path": 0, "off-host": 0, "classes": 0}
        for seed in range(60):
            g = random_graph(seed, 9, 0.3)
            paths = enumerate_induced_p4(g)[:6]
            tuples = [p.vertices for p in paths] + [p.reverse().vertices for p in paths]
            tuples += [tuple(rng.below(g.n) for _ in range(4)) for _ in range(6)]
            for vs in tuples:
                a, b, c, d = vs
                is_path = (
                    len(set(vs)) == 4
                    and g.adjacent(a, b) and g.adjacent(b, c) and g.adjacent(c, d)
                    and not (g.adjacent(a, c) or g.adjacent(a, d) or g.adjacent(b, d))
                )
                hosts = (None, rng.below(1 << g.n), rng.below(1 << g.n) | mask_of(vs))
                for host in hosts:
                    got = _outcome(lambda: neighborhood_partition(g, InducedP4(*vs), host))
                    if not is_path:
                        assert got[0] is InputError
                        assert "not four distinct" in got[1] or "not induce" in got[1]
                        kinds["non-path"] += 1
                        continue
                    live = g.full_mask if host is None else host
                    if mask_of(vs) & ~live:
                        assert got == (InputError, "path vertices must lie inside the host", None)
                        kinds["off-host"] += 1
                        continue
                    want = _outcome(lambda: recognition._trace_classes(g, vs, live))
                    if isinstance(got, NeighborhoodPartition):
                        assert want == _fields(got)
                        kinds["classes"] += 1
                        continue
                    assert got[0] is ClassViolation
                    assert got == want
                    kinds["clash"] += 1
        assert min(kinds.values()) >= 50, kinds

    def test_a_triangle_clash_names_the_partitions_witness(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1)])
        for call in (
            lambda: recognition._trace_classes(g, (0, 1, 2, 3), g.full_mask),
            lambda: neighborhood_partition(g, InducedP4(0, 1, 2, 3)),
        ):
            with pytest.raises(ClassViolation) as exc:
                call()
            assert exc.value.witness == ("triangle", (0, 1, 4))

    def test_a_host_without_the_path_is_an_input_error(self):
        g = path_graph(5)
        with pytest.raises(InputError, match="inside the host"):
            neighborhood_partition(g, InducedP4(0, 1, 2, 3), mask_of([1, 2, 3, 4]))
