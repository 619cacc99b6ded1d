"""Constrained solves forced through two vertices of an induced path."""

from __future__ import annotations

import pytest
from conftest import (
    INTERLOCKED,
    is_independent,
    oracle_wis_containing,
    pair_walk,
    path_graph,
    random_graph,
    raw_walk,
    triangle_free_graph,
    two_colorable,
    witness_checks,
)

from p4p4free import constrained, recognition, split_solver
from p4p4free.constrained import (
    _select_branch_vertex,
    solve_containing_ac,
    solve_containing_bd,
)
from p4p4free.errors import ClassViolation, InputError, StructureViolation
from p4p4free.graph import Graph, bits, components_with_certificates, mask_of
from p4p4free.recognition import (
    InducedP4,
    enumerate_induced_p4,
    find_induced_p4,
    neighborhood_partition,
)
from p4p4free.split_solver import branch_via_bipartial
from p4p4free.testkit import XorShift64Star, enumerate_maximal_is, gen_instance


def first_p4(g: Graph) -> InducedP4:
    return enumerate_induced_p4(g)[0]


class TestPinnedShapes:
    def test_path4_through_first_and_third(self):
        g = path_graph(4)
        res = solve_containing_ac(g, InducedP4(0, 1, 2, 3))
        assert res.weight == 2
        assert res.chosen == (0, 2)

    def test_path4_through_second_and_fourth(self):
        g = path_graph(4)
        res = solve_containing_bd(g, InducedP4(0, 1, 2, 3))
        assert res.weight == 2
        assert res.chosen == (1, 3)

    def test_path5_picks_up_the_far_endpoint(self):
        g = path_graph(5)
        res = solve_containing_ac(g, InducedP4(0, 1, 2, 3))
        assert res.weight == 3
        assert res.chosen == (0, 2, 4)

    def test_forced_pair_beats_nothing_but_stays_forced(self):
        # the unconstrained optimum (endpoints, weight 20) is not available
        # here: the constraint pins the two light inner-position vertices
        g = path_graph(4, weights=(10, 1, 1, 10))
        res = solve_containing_bd(g, InducedP4(0, 1, 2, 3))
        assert res.chosen == (1, 3)
        assert res.weight == 11
        oracle = oracle_wis_containing(g, mask_of([1, 3]))
        assert res.weight == oracle.weight

    def test_reversal_positions(self):
        p = InducedP4(0, 1, 2, 3)
        r = p.reverse()
        assert (r.a, r.b, r.c, r.d) == (3, 2, 1, 0)
        assert {r.a, r.c} == {3, 1}


class TestErrors:
    def test_path_outside_host(self):
        g = path_graph(5)
        with pytest.raises(InputError):
            solve_containing_ac(g, InducedP4(0, 1, 2, 3), host=mask_of([0, 1, 2]))

    def test_non_path_on_a_member_is_an_input_error(self):
        # 4-5-6-1 is no path here; read as one, the {a, c} solve returned
        # 229 against the true optimum 243 through {4, 6}
        g = gen_instance("rejection", 7, 0.3, 5000)
        assert oracle_wis_containing(g, mask_of([4, 6])).weight == 243
        for op in (solve_containing_ac, solve_containing_bd):
            with pytest.raises(InputError):
                op(g, InducedP4(4, 5, 6, 1))

    def test_non_paths_on_members_are_input_errors(self):
        rng = XorShift64Star(4242)
        refused = 0
        for i in range(60):
            g = gen_instance("clustered" if i % 2 else "rejection", 7 + i % 6, 0.5, i)
            paths = {p.vertices for p in enumerate_induced_p4(g)}
            for _ in range(10):
                vs = tuple(rng.below(g.n) for _ in range(4))
                if vs in paths or vs[::-1] in paths:
                    continue
                for op in (solve_containing_ac, solve_containing_bd):
                    with pytest.raises(InputError):
                        op(g, InducedP4(*vs))
                refused += 1
        assert refused > 500

    # read as a path, a tuple or None raised a bare AttributeError
    @pytest.mark.parametrize("path", [(0, 1, 2, 3), None], ids=["tuple", "none"])
    @pytest.mark.parametrize(
        "op", [solve_containing_ac, solve_containing_bd, neighborhood_partition]
    )
    def test_a_path_that_is_no_induced_p4_is_an_input_error(self, op, path):
        with pytest.raises(InputError, match="expected an InducedP4"):
            op(path_graph(4), path)

    def test_second_phase_depth_overrun_is_a_structure_violation(self):
        g = path_graph(4)
        depth = g.n + 9
        full = g.full_mask
        with pytest.raises(StructureViolation) as info:
            raw_walk(g, 0, full, full, depth, active=0b1)
        assert info.value.witness == ("depth_budget", depth)

    def test_second_phase_path_outside_its_class_is_an_incomplete_block(self):
        # the active vertex 4 lies in the uncertified component, but the
        # path 0-1-2-3 lies in the rest of the block part, which is then
        # no block part: that fault must surface, not be branched away
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0)])
        full = g.full_mask
        with pytest.raises(StructureViolation) as info:
            raw_walk(g, 0, full, full, 1, active=1 << 4)
        assert info.value.witness == ("incomplete_block", 0b1111)

    def test_triangle_on_the_path_neighborhood(self):
        # 4 sees both 0 and 1, so {0, 1, 4} is a triangle
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1)])
        with pytest.raises(ClassViolation) as err:
            solve_containing_ac(g, InducedP4(0, 1, 2, 3))
        kind, detail = err.value.witness
        assert kind == "triangle"
        assert detail == (0, 1, 4)


    def test_non_member_is_refused_even_when_its_host_would_solve(self):
        # the host is the first path alone; the second path lies outside it
        edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
        g = Graph.from_edges(8, edges)
        with pytest.raises(ClassViolation) as err:
            solve_containing_ac(g, InducedP4(0, 1, 2, 3), host=mask_of(range(4)))
        assert err.value.witness == ("p4_pair", ((0, 1, 2, 3), (4, 5, 6, 7)))

    def test_refusal_inside_the_branching_of_a_member_is_an_internal_fault(
        self, monkeypatch
    ):
        def refusing(*args):
            raise ClassViolation("bogus", ("unexpected_p4", (0, 1, 2, 3)))

        monkeypatch.setattr(constrained, "_solve_family", refusing)
        with pytest.raises(StructureViolation) as err:
            solve_containing_bd(path_graph(4), InducedP4(0, 1, 2, 3))
        assert err.value.witness == ("unexpected_p4", (0, 1, 2, 3))

    # non-members on some of whose paths the branching itself fails
    # (side_split_blocks, or a lone induced path as the witness)
    @pytest.mark.parametrize("seed, n, p", [(2858, 18, 0.14), (900_106, 16, 0.22)])
    @pytest.mark.parametrize("op", [solve_containing_ac, solve_containing_bd])
    def test_every_path_returns_or_refuses_with_a_checked_witness(self, seed, n, p, op):
        g = random_graph(seed, n, p)
        paths = enumerate_induced_p4(g)
        assert len(paths) > 100
        for path in paths:
            try:
                op(g, path)
            except ClassViolation as err:
                assert witness_checks(g, err.witness), (path, err.witness)


def components(g: Graph, host: int) -> list[int]:
    """Member masks of the components of g[host], certified ones first."""
    certified, uncertified = components_with_certificates(g, host)
    return [a | b for a, b in certified] + list(uncertified)


class TestBranchVertexSelection:
    def build(self):
        # two blocks: an edge {1, 2} and a singleton {3}; candidates 4..6
        edges = [(1, 2), (4, 1), (4, 3), (5, 1), (6, 1)]
        g = Graph.from_edges(7, edges)
        t_mask = mask_of([1, 2, 3])
        return g, components(g, t_mask), t_mask

    def test_prefers_more_contacted_blocks(self):
        g, comps, t_mask = self.build()
        assert _select_branch_vertex(g, [4, 5], comps, t_mask) == 4

    def test_containment_breaks_count_ties(self):
        # 5 and 6 tie on count with identical neighborhoods: smallest id
        g, comps, t_mask = self.build()
        assert _select_branch_vertex(g, [5, 6], comps, t_mask) == 5

    def test_strictly_contained_candidate_loses(self):
        edges = [(1, 2), (4, 1), (5, 1), (5, 2)]
        g = Graph.from_edges(6, edges)
        t_mask = mask_of([1, 2])
        comps = components(g, t_mask)
        # both contact the single block once, but N(4) ⊂ N(5) inside it
        assert _select_branch_vertex(g, [4, 5], comps, t_mask) == 5

    def test_selection_is_count_and_containment_maximal(self):
        # the chosen vertex must maximize contacted-block count and have a
        # neighborhood not strictly contained in any other candidate's
        rng = XorShift64Star(2024)
        for _ in range(60):
            n = 9 + rng.below(4)
            edges = []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.chance(0.3):
                        edges.append((u, v))
            g = Graph.from_edges(n, edges)
            split = rng.below(n - 2) + 1
            cands = list(range(split))
            t_mask = mask_of(range(split, n))
            comps = components(g, t_mask)
            v = _select_branch_vertex(g, cands, comps, t_mask)
            counts = {
                u: sum(1 for c in comps if g.adj[u] & c) for u in cands
            }
            assert counts[v] == max(counts.values())
            nv = g.adj[v] & t_mask
            for u in cands:
                nu = g.adj[u] & t_mask
                assert not (nv & ~nu == 0 and nv != nu)

    def test_pick_is_the_least_undominated_top_candidate(self):
        # the exact rule, not just a maximal pick: among the top-count
        # candidates, the least id whose neighborhood in the block region
        # is not strictly inside another's
        rng = XorShift64Star(2025)
        for _ in range(60):
            n = 9 + rng.below(4)
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.chance(0.3)
            ]
            g = Graph.from_edges(n, edges)
            split = rng.below(n - 2) + 1
            cands = list(range(split))
            t_mask = mask_of(range(split, n))
            comps = components(g, t_mask)
            counts = {u: sum(1 for c in comps if g.adj[u] & c) for u in cands}
            top = [u for u in cands if counts[u] == max(counts.values())]
            masks = [g.adj[u] & t_mask for u in top]
            undominated = [
                u
                for u, nu in zip(top, masks)
                if not any(nu & ~m == 0 and nu != m for m in masks)
            ]
            assert _select_branch_vertex(g, cands, comps, t_mask) == min(undominated)

    def test_equal_masks_tie_to_the_least_id_unless_strictly_contained(self):
        # one block 1-3-2; every candidate contacts it once
        block = [(1, 3), (3, 2)]
        t_mask = mask_of([1, 2, 3])
        # N(4) == N(5) == {1} is strictly inside N(6) == {1, 2}: 6 wins
        g = Graph.from_edges(7, block + [(4, 1), (5, 1), (6, 1), (6, 2)])
        assert _select_branch_vertex(g, [4, 5, 6], components(g, t_mask), t_mask) == 6
        # N(5) == N(6) == {1, 2} is maximal: the smaller id of the pair wins
        g = Graph.from_edges(7, block + [(4, 1), (5, 1), (5, 2), (6, 1), (6, 2)])
        assert _select_branch_vertex(g, [4, 5, 6], components(g, t_mask), t_mask) == 5


class TestAgainstOracle:
    def test_every_path_both_ops(self):
        rng = XorShift64Star(501)
        checked = 0
        for _ in range(60):
            n = 6 + rng.below(7)
            density = 0.3 + 0.1 * rng.below(6)
            model = "clustered" if rng.chance(0.7) else "rejection"
            g = gen_instance(model, n, density, rng.next_u64())
            for p in enumerate_induced_p4(g):
                got = solve_containing_ac(g, p)
                want = oracle_wis_containing(g, (1 << p.a) | (1 << p.c))
                assert got.weight == want.weight
                assert set(got.chosen) >= {p.a, p.c}
                assert is_independent(g, mask_of(got.chosen))

                got = solve_containing_bd(g, p)
                want = oracle_wis_containing(g, (1 << p.b) | (1 << p.d))
                assert got.weight == want.weight
                assert set(got.chosen) >= {p.b, p.d}
                checked += 1
        assert checked > 100

    def test_restricted_host(self):
        rng = XorShift64Star(733)
        done = 0
        while done < 25:
            n = 8 + rng.below(5)
            g = gen_instance("clustered", n, 0.5, rng.next_u64())
            host = g.full_mask
            for v in range(n):
                if rng.chance(0.25):
                    host &= ~(1 << v)
            paths = enumerate_induced_p4(g, host)
            if not paths:
                continue
            p = paths[rng.below(len(paths))]
            got = solve_containing_ac(g, p, host=host)
            want = oracle_wis_containing(g, (1 << p.a) | (1 << p.c), host=host)
            assert got.weight == want.weight
            done += 1

    def test_reversal_symmetry(self):
        rng = XorShift64Star(97)
        for _ in range(25):
            g = gen_instance("clustered", 6 + rng.below(7), 0.6, rng.next_u64())
            for p in enumerate_induced_p4(g)[:6]:
                assert (
                    solve_containing_bd(g, p).weight
                    == solve_containing_ac(g, p.reverse()).weight
                )

    def test_relabelled_classes_give_the_bd_solve(self):
        # the solver's {b, d} draw: the internal solve on the path's trace
        # classes relabelled, in home and in the whole graph
        rng = XorShift64Star(98)
        checked = 0
        for _ in range(25):
            g = gen_instance("clustered", 6 + rng.below(9), 0.6, rng.next_u64())
            home = sum(components_with_certificates(g, g.full_mask)[1])
            for p in enumerate_induced_p4(g)[:6]:
                for host in (home, g.full_mask):
                    s_a, s_b, s_c, s_d, s_ac, s_ad, s_bd, anti = (
                        recognition._trace_classes(g, p.vertices, host)
                    )
                    # the reversed path's masks, of which the draw reads
                    # s_b, s_d, s_bd and anti: this path's s_c, s_a, s_ac
                    # and anti
                    rev = (s_d, s_c, s_b, s_a, s_bd, s_ad, s_ac, anti)
                    assert rev == recognition._trace_classes(
                        g, p.reverse().vertices, host
                    )
                    walk = pair_walk(g, p.b, p.d, s_c, s_a, s_ac, anti)
                    w, m = split_solver._heaviest_leaf(g, walk.leaves)
                    want = solve_containing_bd(g, p, host)
                    assert w == want.weight
                    assert m == mask_of(want.chosen)
                    checked += 1
        assert checked > 100

    def test_deterministic(self):
        g = gen_instance("clustered", 12, 0.6, 4242)
        p = first_p4(g)
        first = solve_containing_ac(g, p)
        second = solve_containing_ac(g, p)
        assert first.weight == second.weight
        assert first.chosen == second.chosen


class TestBranchCoverage:
    def test_bipartial_machinery_is_reached(self, monkeypatch):
        # the branch on a region that still holds a path finds a vertex
        # bi-partial to a block
        hits = []
        path_hosts = split_solver._path_hosts

        def counting(g, comp, active, x, members):
            if branch_via_bipartial(g, comp, active, members) is not None:
                hits.append(1)
            return path_hosts(g, comp, active, x, members)

        monkeypatch.setattr(split_solver, "_path_hosts", counting)
        g = Graph.from_edges(12, INTERLOCKED)
        p = InducedP4(0, 1, 2, 3)
        res = solve_containing_ac(g, p)
        assert hits
        assert res.weight == oracle_wis_containing(g, mask_of([0, 2])).weight

    def test_second_phase_searches_its_region_before_it_branches(self, monkeypatch):
        # a region is searched only once its decomposition shows a
        # component without a certificate, so every search finds a path
        # (of at least 4 vertices), and _path_hosts is asked only about a
        # region with a path
        events = []
        path_hosts = split_solver._path_hosts

        def search(g, region):
            found = find_induced_p4(g, region)
            events.append(("search", region.bit_count(), found is not None))
            return found

        def branch(*args):
            events.append(("branch",))
            return path_hosts(*args)

        monkeypatch.setattr(split_solver, "find_induced_p4", search)
        monkeypatch.setattr(split_solver, "_path_hosts", branch)
        # in the last graph a class meets components whose region has
        # fewer than 4 vertices
        graphs = (
            Graph.from_edges(12, INTERLOCKED),
            triangle_free_graph(1_031_684, 14, 0.35),
            triangle_free_graph(1_215_779, 18, 0.45),
        )
        for g in graphs:
            for p in enumerate_induced_p4(g):
                solve_containing_ac(g, p)
                solve_containing_bd(g, p)
        assert ("branch",) in events
        for before, event in zip([None, *events], events):
            if event[0] == "search":
                assert event[1] >= 4 and event[2]
            else:
                assert before is not None and before[0] == "search" and before[2]

    def test_weighted_variants_match_oracle(self):
        rng = XorShift64Star(314)
        p = InducedP4(0, 1, 2, 3)
        for _ in range(20):
            weights = [1 + rng.below(50) for _ in range(12)]
            g = Graph.from_edges(12, INTERLOCKED, weights=weights)
            got = solve_containing_ac(g, p)
            want = oracle_wis_containing(g, mask_of([0, 2]))
            assert got.weight == want.weight
            got = solve_containing_bd(g, p)
            want = oracle_wis_containing(g, mask_of([1, 3]))
            assert got.weight == want.weight


class TestLeafRecording:
    def test_leaves_cover_every_maximal_set_through_the_pair(self):
        rng = XorShift64Star(616)
        covered = 0
        for _ in range(25):
            g = gen_instance("clustered", 7 + rng.below(5), 0.6, rng.next_u64())
            for p in enumerate_induced_p4(g)[:4]:
                part = neighborhood_partition(g, p)
                forced = (1 << p.a) | (1 << p.c)
                walk = pair_walk(g, p.a, p.c, part.s_b, part.s_d, part.s_bd, part.anti)
                leaves = walk.leaves
                assert leaves
                ground = forced | part.s_b | part.s_d | part.s_bd | part.anti
                for leaf in leaves:
                    assert leaf & forced == forced
                    assert leaf & ~ground == 0
                    assert two_colorable(g, leaf)
                for chosen in enumerate_maximal_is(g, host=ground):
                    m = mask_of(chosen)
                    assert any(m & ~leaf == 0 for leaf in leaves)
                    covered += 1
        assert covered > 30
