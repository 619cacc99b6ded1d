"""Top-level solver and cover-family extraction."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from conftest import (
    andrasfai_graph,
    andrasfai_optimum,
    blowup_graph,
    blowup_of,
    blowup_optimum,
    clebsch,
    complete_bipartite,
    crown_graph,
    crown_optimum,
    cycle_graph,
    fuzz_graph,
    is_independent,
    konig_optimum,
    pair_walk,
    path_graph,
    petersen,
    random_graph,
    scan_p4s,
    triangle_free_non_members,
    two_colorable,
    verdict_witness,
    witness_checks,
)
from test_golden import _corpus as golden_corpus

from p4p4free import bipartite, constrained, graph, recognition, solver, split_solver
from p4p4free.errors import ClassViolation, InputError, StructureViolation
from p4p4free.graph import (
    Graph,
    SolveResult,
    bits,
    certified_result,
    components_with_certificates,
    mask_of,
)
from p4p4free.recognition import (
    enumerate_induced_p4,
    is_class_member,
    witness_holds,
)
from p4p4free.solver import CoverFamily, solve, solve_with_cover
from p4p4free.testkit import (
    XorShift64Star,
    enumerate_maximal_is,
    gen_instance,
    oracle_wis,
)


class TestPinnedShapes:
    def test_five_cycle(self):
        got = solve(cycle_graph(5))
        assert got.weight == 2
        assert got.chosen == (0, 2)

    def test_complete_bipartite_takes_heavier_side(self):
        g = complete_bipartite(3, 3, weights=[1, 2, 3, 4, 5, 6])
        got = solve(g)
        assert got.weight == 15
        assert got.chosen == (3, 4, 5)

    def test_weighted_path_prefers_endpoints(self):
        g = path_graph(4, weights=[10, 1, 1, 10])
        got = solve(g)
        assert got.weight == 20
        assert got.chosen == (0, 3)

    def test_longer_path(self):
        got = solve(path_graph(5))
        assert got.weight == 3
        assert got.chosen == (0, 2, 4)

    def test_empty_graph(self):
        got = solve(Graph.from_edges(0, []))
        assert got.weight == 0
        assert got.chosen == ()

    def test_edgeless_graph_takes_everything(self):
        g = Graph.from_edges(4, [], weights=[3, 0, 7, 2])
        got = solve(g)
        assert got.weight == 12
        assert got.chosen == (0, 1, 2, 3)

    def test_path_plus_isolated_vertex(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
        got = solve(g)
        assert got.weight == 3
        assert got.chosen == (0, 2, 4)


class TestViolations:
    def test_the_verdict_names_the_refusal_solve_raises(self):
        fuzz = [fuzz_graph(j) for j in range(300)]
        refused = members = 0
        for g in fuzz + list(triangle_free_non_members(40)):
            verdict = is_class_member(g)
            refusal = verdict.violation()
            if verdict.is_member:
                assert refusal is None
                members += 1
                continue
            with pytest.raises(ClassViolation) as info:
                solve(g)
            assert refusal.witness == info.value.witness
            assert str(refusal) == str(info.value)
            refused += 1
        assert refused > 150 and members > 100

    def test_triangle_is_rejected(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ClassViolation) as info:
            solve(g)
        assert info.value.witness[0] == "triangle"
        assert info.value.witness[1] == (0, 1, 2)

    def test_triangle_beside_a_path_is_rejected(self):
        edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)]
        with pytest.raises(ClassViolation) as info:
            solve(Graph.from_edges(7, edges))
        assert info.value.witness[0] == "triangle"

    def test_two_separated_paths_are_rejected(self):
        edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
        with pytest.raises(ClassViolation) as info:
            solve(Graph.from_edges(8, edges))
        kind, (first, second) = info.value.witness
        assert kind == "p4_pair"
        assert set(first).isdisjoint(second)

    # non-members whose refusal once escaped without a forbidden pattern:
    # a bare StructureViolation("side_split_blocks"), or a ClassViolation
    # carrying a single induced path ("unexpected_p4")
    @pytest.mark.parametrize(
        "seed, n, p", [(900_106, 16, 0.22), (2858, 18, 0.14), (950_479, 20, 0.12)]
    )
    @pytest.mark.parametrize("entry", [solve, solve_with_cover])
    def test_refusal_carries_a_checked_witness(self, seed, n, p, entry):
        g = random_graph(seed, n, p)
        with pytest.raises(ClassViolation) as info:
            entry(g)
        assert witness_checks(g, info.value.witness), info.value.witness

    # a refusal comes from the recognizer's witness, never from the
    # branching: a non-member is refused before the branching runs
    def test_unchecked_witness_is_replaced_by_the_recognizer(self, monkeypatch):
        def bogus(*args):
            raise ClassViolation("bogus", ("unexpected_p4", (0, 1, 2, 3)))

        monkeypatch.setattr(solver, "_solve_all", bogus)
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        with pytest.raises(ClassViolation) as info:
            solve(g)
        assert info.value.witness == ("p4_pair", ((0, 1, 2, 3), (4, 5, 6, 7)))

    def test_internal_fault_on_a_member_is_reraised(self, monkeypatch):
        fault = StructureViolation("internal", ("side_split_blocks", ()))

        def broken(g, home, rest_mask):
            raise fault

        monkeypatch.setattr(solver, "_solve_all", broken)
        with pytest.raises(StructureViolation) as info:
            solve(path_graph(4))
        assert info.value is fault

    @pytest.mark.parametrize("entry", [solve, solve_with_cover])
    def test_refusal_inside_the_branching_of_a_member_is_an_internal_fault(
        self, monkeypatch, entry
    ):
        bogus = ClassViolation("bogus", ("unexpected_p4", (0, 1, 2, 3)))

        def refusing(*args):
            raise bogus

        monkeypatch.setattr(solver, "_solve_family", refusing)
        with pytest.raises(StructureViolation) as info:
            entry(path_graph(4))
        assert info.value.witness == bogus.witness
        assert info.value.__cause__ is bogus

    @pytest.mark.parametrize("entry", [solve, solve_with_cover])
    def test_a_witness_that_does_not_hold_is_an_internal_fault(
        self, monkeypatch, entry
    ):
        def wrong(g):
            return ("triangle", (0, 1, 2)), 0, ()

        monkeypatch.setattr(solver, "_membership", wrong)
        with pytest.raises(StructureViolation) as info:
            entry(path_graph(4))
        assert info.value.witness == ("unchecked_witness", ("triangle", (0, 1, 2)))

    # the non-members among the fuzz draws (on 733 and 3791 the skip rule
    # would pass over every branch that meets a forbidden shape) and the
    # graphs on which the branching itself breaks (FAILING in
    # perfbench/corpus.py)
    def test_non_members_are_refused_before_branching(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a non-member reached the branching")

        monkeypatch.setattr(solver, "_per_path", unreachable)
        monkeypatch.setattr(split_solver, "_solve_raw", unreachable)
        named = [
            random_graph(seed, n, p)
            for seed, n, p in (
                (900_106, 16, 0.22),
                (900_032, 16, 0.18),
                (900_072, 12, 0.14),
                (900_260, 13, 0.26),
                (2858, 18, 0.14),
                (950_479, 20, 0.12),
                (951_730, 19, 0.12),
            )
        ]
        fuzz = [fuzz_graph(j) for j in [*range(600), 733, 3791]]
        refused = 0
        for g in fuzz + named:
            if is_class_member(g).is_member:
                continue
            witnesses = []
            for entry in (solve, solve_with_cover):
                with pytest.raises(ClassViolation) as info:
                    entry(g)
                witnesses.append(info.value.witness)
            assert witnesses[0] == witnesses[1] == verdict_witness(is_class_member(g))
            assert witness_checks(g, witnesses[0]), witnesses[0]
            refused += 1
        assert refused > 300 + len(named)

    @pytest.mark.parametrize("entry", [solve, solve_with_cover])
    def test_paths_in_two_components_are_refused_before_branching(
        self, monkeypatch, entry
    ):
        def unreachable(*args):
            raise AssertionError("a refused graph reached the per-path work")

        monkeypatch.setattr(solver, "_per_path", unreachable)
        # the path 5-0-8-2, the isolated vertex 1, the path 3-6-4-7
        g = Graph.from_edges(9, [(5, 0), (0, 8), (8, 2), (3, 6), (6, 4), (4, 7)])
        paths = enumerate_induced_p4(g)
        assert paths[0].vertices == (2, 8, 0, 5)
        with pytest.raises(ClassViolation) as info:
            entry(g)
        # the recognizer's scan order, not the canonical order of the paths
        assert info.value.witness == ("p4_pair", ((3, 6, 4, 7), (2, 8, 0, 5)))
        assert info.value.witness == verdict_witness(is_class_member(g))
        assert witness_checks(g, info.value.witness)

    @pytest.mark.parametrize("entry", [solve, solve_with_cover])
    def test_a_triangle_is_refused_without_a_decomposition(self, monkeypatch, entry):
        def tripwire(*args):
            raise AssertionError("a graph with a triangle was decomposed")

        for module in (recognition, solver):
            if hasattr(module, "components_with_certificates"):
                monkeypatch.setattr(module, "components_with_certificates", tripwire)
        # the front pass certifies no component above the triangle's least
        # vertex: it refuses as soon as it reaches it
        certificate, tried = recognition._certificate, []

        def recording(adj, host, low, side_b):
            tried.append(low.bit_length() - 1)
            return certificate(adj, host, low, side_b)

        monkeypatch.setattr(recognition, "_certificate", recording)
        cases = [
            # a triangle beside a path
            ([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)], (0, 1, 2), []),
            # a star on 0-2 and the lone vertex 3 below the triangle 4-5-6,
            # the path 7-8-9-10 above it; only the star needs the check
            (
                [(0, 1), (0, 2), (4, 5), (4, 6), (5, 6), (7, 8), (8, 9), (9, 10)],
                (4, 5, 6),
                [0],
            ),
        ]
        for edges, want, certified in cases:
            tried.clear()
            g = Graph.from_edges(max(map(max, edges)) + 1, edges)
            with pytest.raises(ClassViolation) as info:
                entry(g)
            assert info.value.witness == ("triangle", want)
            assert all(v < want[0] for v in tried)
            assert tried == certified

    def test_jobs_must_be_positive(self):
        with pytest.raises(InputError):
            solve(path_graph(3), jobs=0)

    @pytest.mark.parametrize("jobs", ["2", None, 1.5, True, False])
    @pytest.mark.parametrize("entry", [solve, solve_with_cover])
    def test_jobs_must_be_an_int(self, entry, jobs):
        with pytest.raises(InputError):
            entry(path_graph(3), jobs=jobs)


class TestCertifyOnce:
    @pytest.mark.parametrize("entry", [solve, solve_with_cover])
    def test_one_certification_per_public_call(self, monkeypatch, entry):
        calls = []

        def counting(g, mask):
            calls.append(mask)
            return certified_result(g, mask)

        monkeypatch.setattr(solver, "certified_result", counting)
        monkeypatch.setattr(constrained, "certified_result", counting)
        g = gen_instance(model="clustered", n=14, density=0.5, seed=11)
        assert enumerate_induced_p4(g)
        entry(g)
        assert len(calls) == 1


class TestDecomposeOnce:
    @pytest.mark.parametrize("entry", [solve, solve_with_cover])
    def test_one_full_decomposition_per_public_call(self, monkeypatch, entry):
        # the whole graph is decomposed once, by the front pass, which
        # finds its certified components without components_with_certificates
        g = gen_instance(model="clustered", n=30, density=0.5, seed=11)
        assert enumerate_induced_p4(g)
        hosts, fronts = [], []
        original, front = graph.components_with_certificates, recognition._front

        def counting(g, host):
            hosts.append(host)
            return original(g, host)

        def counting_front(adj, full):
            fronts.append(full)
            return front(adj, full)

        for module in (recognition, solver, bipartite, constrained, split_solver):
            if hasattr(module, "components_with_certificates"):
                monkeypatch.setattr(module, "components_with_certificates", counting)
        monkeypatch.setattr(recognition, "_front", counting_front)
        entry(g)
        assert fronts == [g.full_mask]
        assert g.full_mask not in hosts


# members with home's paths everywhere: clustered, rejection, a complete
# blow-up of C7 and a crown
SCAN_GRAPHS = {
    "clustered_30": lambda: gen_instance("clustered", 30, 0.5, 11),
    "rejection_14": lambda: gen_instance("rejection", 14, 0.6, 2),
    "c7_classes_of_3": lambda: blowup_graph(7, 3, seed=73),
    "crown_9": lambda: crown_graph(9),
}


class TestScanHomeOnce:
    @pytest.mark.parametrize("entry", [solve, solve_with_cover])
    @pytest.mark.parametrize("name", sorted(SCAN_GRAPHS))
    def test_one_scan_of_home_per_public_call(self, monkeypatch, name, entry):
        g = SCAN_GRAPHS[name]()
        home = sum(components_with_certificates(g, g.full_mask)[1])  # disjoint masks
        want = sorted(scan_p4s(g, home))
        assert want
        scanned = []
        scan = recognition._p4_scan

        def counting(g, host, known=None):
            scanned.append(host)
            return scan(g, host, known)

        monkeypatch.setattr(recognition, "_p4_scan", counting)
        hosts, draws = _record_path_draws(monkeypatch)
        entry(g)
        # the membership scan runs once on home, and each pass draws
        # home's paths once: the steered loop, then the cover's walk
        assert scanned.count(home) == 1
        assert hosts == [home] * (1 if entry is solve else 2)
        # (a, b, c, d) tuples in canonical order: the loop draws a prefix,
        # each path at most once, and the walk draws all of them
        assert draws[0] == want[: len(draws[0])]
        if entry is solve_with_cover:
            assert draws[1] == want

    def test_solve_draws_fewer_paths_than_home_has(self, monkeypatch):
        # the stop at home's optimum leaves the rest of the paths undrawn
        g = crown_graph(9)
        home = recognition._membership(g)[1]
        _, draws = _record_path_draws(monkeypatch)
        solve(g)
        (drawn,) = draws
        assert 0 < len(drawn) < len(scan_p4s(g, home))


def _record_path_draws(monkeypatch):
    """Record the hosts of the solver's ``_canonical_p4s`` calls and, per
    call, the paths drawn from it, as they are drawn."""
    hosts, draws = [], []
    canonical = solver._canonical_p4s

    def recording(g, host):
        hosts.append(host)
        drawn = []
        draws.append(drawn)
        for t in canonical(g, host):
            drawn.append(t)
            yield t

    monkeypatch.setattr(solver, "_canonical_p4s", recording)
    return hosts, draws


class TestTraceClassesOncePerPath:
    # home's paths come from the membership scan, so the solve re-checks
    # none of them, and each path it visits scans its neighbourhood once
    @pytest.mark.parametrize("entry", [solve, solve_with_cover])
    @pytest.mark.parametrize("name", sorted(SCAN_GRAPHS))
    def test_no_path_check_and_one_scan_per_visited_path(self, monkeypatch, name, entry):
        g = SCAN_GRAPHS[name]()
        home = recognition._membership(g)[1]
        checked, visited, classified = [], [], []
        check, per_path = recognition._check_induced_p4, solver._per_path
        classes = solver._trace_classes

        def counting(g, vs):
            checked.append(vs)
            return check(g, vs)

        def visiting(g, vs, *rest):
            visited.append(vs)
            return per_path(g, vs, *rest)

        def classifying(g, vs, host):
            classified.append(vs)
            return classes(g, vs, host)

        monkeypatch.setattr(recognition, "_check_induced_p4", counting)
        monkeypatch.setattr(solver, "_per_path", visiting)
        monkeypatch.setattr(solver, "_trace_classes", classifying)
        entry(g)
        assert visited
        assert checked == []
        # each pass scans each path it visits once: the steered loop a
        # prefix of the paths, then the cover's walk every path of home
        want = sorted(scan_p4s(g, home))
        assert visited == want[: len(visited)]
        assert classified[: len(visited)] == visited
        if entry is solve:
            assert classified == visited
        else:
            assert classified[len(visited) :] == want


class TestAgainstOracle:
    def test_random_instances_both_models(self):
        rng = XorShift64Star(99)
        for i in range(60):
            n = 6 + rng.below(8)
            g = gen_instance(
                model="clustered" if i % 2 else "rejection",
                n=n,
                density=0.3 + 0.06 * rng.below(9),
                seed=5000 + i,
            )
            got = solve(g)
            want = oracle_wis(g)
            assert got.weight == want.weight, (i, got, want)
            assert is_independent(g, mask_of(got.chosen))
            assert sum(g.weights[v] for v in got.chosen) == got.weight

    def test_deterministic_across_runs(self):
        g = gen_instance(model="clustered", n=13, density=0.5, seed=77)
        assert solve(g) == solve(g)

    def test_jobs_do_not_change_the_answer(self):
        for seed in (11, 12, 13):
            g = gen_instance(model="clustered", n=12, density=0.5, seed=seed)
            assert solve(g, jobs=1) == solve(g, jobs=2)
            one = solve_with_cover(g, jobs=1)
            two = solve_with_cover(g, jobs=3)
            assert one == two


class TestCoverFamily:
    def test_path_free_graph_has_the_whole_vertex_set(self):
        g = complete_bipartite(2, 3)
        res, fam = solve_with_cover(g)
        assert res.weight == 3
        assert fam.members == (g.full_mask,)

    def test_unit_path_members_are_pinned(self):
        res, fam = solve_with_cover(path_graph(4))
        assert res.weight == 2
        assert fam.members == (0b0101, 0b1010, 0b1001, 0)
        for s in enumerate_maximal_is(path_graph(4)):
            m = mask_of(s)
            assert any(m & ~member == 0 for member in fam.members)

    def test_every_maximal_set_is_inside_some_member(self):
        rng = XorShift64Star(417)
        checked = 0
        for i in range(30):
            n = 6 + rng.below(7)
            g = gen_instance(
                model="clustered" if i % 2 else "rejection",
                n=n,
                density=0.3 + 0.06 * rng.below(9),
                seed=8800 + i,
            )
            res, fam = solve_with_cover(g)
            assert res.weight == solve(g).weight
            assert len(fam.members) <= 10 * max(1, g.n) ** 8
            assert len(fam.members) == len(set(fam.members))
            for member in fam.members:
                assert two_colorable(g, member)
            for s in enumerate_maximal_is(g):
                m = mask_of(s)
                assert any(m & ~member == 0 for member in fam.members), (i, s)
                checked += 1
        assert checked > 100

    def test_record_invariants(self):
        rng = XorShift64Star(2024)
        for i in range(10):
            g = gen_instance(
                model="rejection",
                n=8 + rng.below(4),
                density=0.5,
                seed=40 + i,
            )
            _, fam = solve_with_cover(g)
            # forced vertices are isolated in their member, and each
            # residual component is complete bipartite
            for member in fam.members:
                assert not components_with_certificates(g, member)[1]


def _relabelled(rng, n: int, edges, weights) -> Graph:
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    relabelled = [0] * n
    for v, w in enumerate(weights):
        relabelled[perm[v]] = w
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges], relabelled)


class TestComponentSplit:
    def test_branching_stays_in_the_paths_component(self, monkeypatch):
        g = gen_instance("clustered", 60, 0.5, 700_008)
        paths = enumerate_induced_p4(g)
        certified, (home,) = components_with_certificates(g, g.full_mask)
        assert all(p.mask & home == p.mask for p in paths)
        assert any(b for _, b in certified)  # a nontrivial block outside home
        hosts = []
        original = split_solver._solve_raw

        def recording(g, s_mask, t_mask, host, *rest):
            hosts.append(host)
            return original(g, s_mask, t_mask, host, *rest)

        monkeypatch.setattr(split_solver, "_solve_raw", recording)
        solve(g)
        solve_with_cover(g)
        assert hosts
        assert all(host & ~home == 0 for host in hosts)

    @pytest.mark.parametrize("seed", range(8))
    def test_small_unions_match_the_oracles(self, seed):
        # a P4, one or two K_{2,3} and 0-2 isolated vertices (n <= 16),
        # relabelled; each component's two sides weigh the same
        rng = XorShift64Star(31_000 + seed)
        k, j = 1 + rng.below(5), 1 + rng.below(5)
        edges = [(0, 1), (1, 2), (2, 3)]
        weights = [k, k, k, k]
        for _ in range(1 + seed % 2):
            base = len(weights)
            edges += [(base + u, base + v) for u in (0, 1) for v in (2, 3, 4)]
            weights += [3 * j, 3 * j, 2 * j, 2 * j, 2 * j]
        weights += [rng.below(4) for _ in range(seed % 3)]
        g = _relabelled(rng, len(weights), edges, weights)
        assert g.n <= 16
        want = oracle_wis(g)
        for entry in (solve, lambda g: solve_with_cover(g)[0]):
            got = entry(g)
            assert got.weight == want.weight
            assert is_independent(g, mask_of(got.chosen))
        _, fam = solve_with_cover(g)
        # every member holds all of the graph outside the path's component
        path = enumerate_induced_p4(g)[0].mask
        _, (home,) = components_with_certificates(g, g.full_mask)
        assert path & home == path
        rest = g.full_mask & ~home
        assert rest
        for member in fam.members:
            assert two_colorable(g, member)
            assert member & rest == rest
        for s in enumerate_maximal_is(g):
            m = mask_of(s)
            assert any(m & ~member == 0 for member in fam.members), s


def _crown(k: int, heavy: bool) -> Graph:
    """A crown with seeded weights in [0, 20]; ``heavy`` makes one matched
    pair {a_i, b_i} outweigh either side."""
    rng = random.Random(4_200 + k)
    weights = [rng.randrange(21) for _ in range(2 * k)]
    if heavy:
        i = rng.randrange(k)
        weights[i] = weights[k + i] = 20 * k
    return crown_graph(k, weights)


def _unsteered(monkeypatch, graphs) -> list[SolveResult]:
    """``solve`` on each graph with the full earliest-heaviest evaluation:
    the optimum oracle's budget trips at home's query, and an LP top that
    no candidate reaches turns the stop off, so every path is visited and
    every branching family is solved in full."""
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_TOP_MEMO", 0)
        patch.setattr(solver, "lp_bound", lambda g, home: g.weight_of(home) + 1)
        return [solve(g) for g in graphs]


class TestBoundAndSkip:
    def test_a_pairs_bound_host_is_its_classes_and_anti(self):
        # what a forced pair leaves of home, which the pair's bound reads
        # from the path's trace classes
        checked = 0
        for j in range(600):
            g = fuzz_graph(j)
            witness, home, _ = recognition._membership(g)
            if witness is not None:
                continue
            for a, b, c, d in recognition._canonical_p4s(g, home):
                s_a, s_b, s_c, s_d, s_ac, _, s_bd, anti = recognition._trace_classes(
                    g, (a, b, c, d), home
                )
                for x, y, rest in (
                    (a, c, s_b | s_d | s_bd | anti),
                    (b, d, s_a | s_c | s_ac | anti),
                ):
                    closed = g.adj[x] | g.adj[y] | 1 << x | 1 << y
                    assert home & ~closed == rest
                    checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("family", ["criterion_1", "crowns"])
    def test_solve_agrees_with_the_unsteered_evaluation(self, monkeypatch, family):
        if family == "crowns":
            graphs = [_crown(k, heavy=k % 2 == 1) for k in range(4, 11)]
        else:
            graphs = [
                gen_instance(
                    model="clustered" if i % 2 else "rejection",
                    n=8 + i % 11,
                    density=0.3 + 0.05 * (i % 9),
                    seed=100_000 + i,
                )
                for i in range(99)  # each (n, density) pair once
            ]
        assert [solve(g) for g in graphs] == _unsteered(monkeypatch, graphs)

    @pytest.mark.parametrize("k", range(4, 21))
    def test_crown_matches_its_closed_form(self, k):
        g = _crown(k, heavy=k % 2 == 1)
        w = g.weights
        # an independent set meeting both sides is a matched pair {a_i, b_i}
        pair = max(w[i] + w[k + i] for i in range(k))
        want = max(sum(w[:k]), sum(w[k:]), pair)
        assert (want == pair) == (k % 2 == 1)
        got = solve(g)
        assert got.weight == want
        assert is_independent(g, mask_of(got.chosen))

    # draws of the fuzz family on which the skip rule would pass over every
    # branch that meets a forbidden shape: the one membership check of home
    # refuses them before any branch runs
    @pytest.mark.parametrize("j", [733, 3791])
    def test_home_check_refuses_after_a_skip(self, monkeypatch, j):
        verdicts = []
        check = solver._membership

        def recording(g):
            found = check(g)
            verdicts.append(found[0])
            return found

        monkeypatch.setattr(solver, "_membership", recording)
        g = fuzz_graph(j)
        with pytest.raises(ClassViolation) as info:
            solve(g)
        assert witness_holds(g, info.value.witness)
        assert witness_checks(g, info.value.witness)
        assert [w is None for w in verdicts] == [False]

    def test_fuzz_non_members_are_refused_with_checked_witnesses(self):
        refused = 0
        for j in range(600):
            g = fuzz_graph(j)
            if is_class_member(g).is_member:
                continue
            with pytest.raises(ClassViolation) as info:
                solve(g)
            assert witness_checks(g, info.value.witness), (j, info.value.witness)
            refused += 1
        assert refused > 300


# graphs on which many paths share a forced pair
PAIR_GRAPHS = {
    "c7_classes_of_3": lambda: blowup_graph(7, 3, seed=73),
    "rejection_14": lambda: gen_instance("rejection", 14, 0.6, 2),
}
# solve-only: on this blow-up many repeat draws of a pair have a
# pair bound above the running best, so only the skip of a drawn pair
# keeps them from a second constrained solve
SOLVE_PAIR_GRAPHS = {
    **PAIR_GRAPHS,
    "petersen_classes_of_2": lambda: blowup_of(petersen(), 2, seed=1002),
}


def _count_forced_pairs(monkeypatch, fault_at: int | None = None) -> list[int]:
    """Record the pair mask of every forced-pair walk, a ``_solve_family``
    call of ``solver``, whose ambient is the pair; with ``fault_at``,
    raise a refusal on the first draw of that many-th distinct pair."""
    drawn: list[int] = []
    real = solver._solve_family

    def counting(g, family, whole, pair, walk):
        if pair not in drawn and len(set(drawn)) + 1 == fault_at:
            raise ClassViolation("bogus", ("unexpected_pair", tuple(bits(pair))))
        drawn.append(pair)
        return real(g, family, whole, pair, walk)

    monkeypatch.setattr(solver, "_solve_family", counting)
    return drawn


def _record_draws(monkeypatch) -> list:
    """Record every forced-pair draw of a cover's walk as ``(pair, host,
    added)``: the pair's mask, the host its path's trace classes were
    computed in, and the members the draw appended.  The steered loop's
    draws, made before the walk, are not recorded."""
    draws: list = []
    hosts: list = []  # the host of the latest trace classes
    real_classes, real_family, real_walk = solver._trace_classes, solver._solve_family, solver._walk
    walking = False

    def tracing(g, vs, host):
        hosts.append(host)
        return real_classes(g, vs, host)

    def recording(g, family, whole, pair, walk):
        if not walking:
            return real_family(g, family, whole, pair, walk)
        start = len(walk.leaves)
        got = real_family(g, family, whole, pair, walk)
        draws.append((pair, hosts[-1], walk.leaves[start:]))
        return got

    def flagged(g, home):
        nonlocal walking
        walking = True
        try:
            return real_walk(g, home)
        finally:
            walking = False

    monkeypatch.setattr(solver, "_trace_classes", tracing)
    monkeypatch.setattr(solver, "_solve_family", recording)
    monkeypatch.setattr(solver, "_walk", flagged)
    return draws


class TestForcedPairOnce:
    # the cover's walk draws each pair of home's paths once, all on home,
    # and walks each draw once: its recorded draws, member count and
    # member digest
    COVER = {
        "c7_classes_of_3": (63, 154, "d92de8e10181b0b2"),
        "rejection_14": (42, 195, "12ef7cbba85dc673"),
    }

    @pytest.mark.parametrize("name", sorted(SOLVE_PAIR_GRAPHS))
    def test_solve_evaluates_each_pair_once(self, monkeypatch, name):
        g = SOLVE_PAIR_GRAPHS[name]()
        paths = enumerate_induced_p4(g)
        pairs = {1 << p.a | 1 << p.c for p in paths}
        pairs |= {1 << p.b | 1 << p.d for p in paths}
        drawn = _count_forced_pairs(monkeypatch)
        got = solve(g)
        assert len(drawn) == len(set(drawn))
        assert set(drawn) <= pairs
        assert got.weight == oracle_wis(g).weight
        assert is_independent(g, mask_of(got.chosen))

    @pytest.mark.parametrize("name", sorted(PAIR_GRAPHS))
    def test_cover_draws_each_pair_once(self, monkeypatch, name):
        g = PAIR_GRAPHS[name]()
        home = recognition._membership(g)[1]
        paths = enumerate_induced_p4(g)
        pairs = {1 << p.a | 1 << p.c for p in paths}
        pairs |= {1 << p.b | 1 << p.d for p in paths}
        draws = _record_draws(monkeypatch)
        solved = _count_forced_pairs(monkeypatch)
        result, family = solve_with_cover(g)
        calls, size, digest = self.COVER[name]
        assert len(draws) == calls
        # every draw is on home
        assert all(host == home for _, host, _ in draws)
        drawn = [pair for pair, _, _ in draws]
        # no pair is walked twice, and the walk visits every path, so it
        # draws every pair
        assert len(drawn) == len(set(drawn))
        assert set(drawn) == pairs
        assert len(family.members) == size
        assert hashlib.sha256(repr(family.members).encode()).hexdigest()[:16] == digest
        # beside one walk per pair, the cover solves the draws of solve's
        # steered loop and no others
        monkeypatch.undo()
        steered = _count_forced_pairs(monkeypatch)
        assert result == solve(g)
        assert len(solved) == calls + len(steered)

    def test_each_pair_drawn_on_home_covers_its_maximal_sets(self, monkeypatch):
        # the leaves of a pair's one draw hold every maximal set through
        # it; this is what lets the cover skip the pair's other draws
        draws = _record_draws(monkeypatch)
        graphs = pairs_checked = sets_checked = 0
        for g in golden_corpus():
            if g.n > 16 or not is_class_member(g).is_member:
                continue
            draws.clear()
            _, family = solve_with_cover(g)
            # each component of each member has a complete-bipartite
            # certificate, as the CLI's bipartite count reads it
            for member in family.members:
                assert not components_with_certificates(g, member)[1]
            if not draws:
                continue
            graphs += 1
            home = 0
            for _, host, _ in draws:
                home |= host
            maximal = [mask_of(s) for s in enumerate_maximal_is(g)]
            for pair, host, added in draws:
                if host != home:
                    continue
                pairs_checked += 1
                for s in maximal:
                    if s & pair == pair:
                        assert any(s & home & ~m == 0 for m in added), (pair, s)
                        sets_checked += 1
        assert graphs >= 100
        assert pairs_checked >= 1000
        assert sets_checked >= 3000

    def test_each_flavour_pair_is_a_pair_of_a_home_path(self):
        # a flavour vertex x of s_b with a neighbour y in s_c or anti makes
        # a-b-x-y an induced path of home (and d-c-x-y likewise for s_c),
        # so the cover's loop draws {a, x} on home, and the cover needs no
        # extra solve for the flavour vertices its region leaves out
        graphs = checked = 0
        for g in golden_corpus():
            if g.n > 16:
                continue
            witness, home, _ = recognition._membership(g)
            if witness is not None or not home:
                continue
            paths = list(recognition._canonical_p4s(g, home))
            graphs += 1
            pairs = {1 << a | 1 << c for a, _, c, _ in paths}
            pairs |= {1 << b | 1 << d for _, b, _, d in paths}
            for t in paths:
                p = recognition.InducedP4(*t)
                part = recognition.neighborhood_partition(g, p, home)
                ambient = part.s_b | part.s_c | part.anti
                for end, mid, flavor, other in (
                    (p.a, p.b, part.s_b, part.s_c),
                    (p.d, p.c, part.s_c, part.s_b),
                ):
                    for x in graph.bits(flavor):
                        if not g.adj[x] & ambient:
                            continue
                        y = min(graph.bits((other | part.anti) & g.adj[x]))
                        recognition._check_induced_p4(g, (end, mid, x, y))
                        assert mask_of((end, mid, x, y)) & ~home == 0
                        assert 1 << end | 1 << x in pairs
                        checked += 1
        assert graphs >= 100
        assert checked >= 2000

    @pytest.mark.parametrize("fault_at", [1, 3])
    @pytest.mark.parametrize("name", sorted(PAIR_GRAPHS))
    def test_a_fault_on_a_first_draw_is_an_internal_fault(
        self, monkeypatch, name, fault_at
    ):
        g = PAIR_GRAPHS[name]()
        # both solves reach home's optimum, and stop, before their third
        # distinct pair; a memo cap of 0 trips the optimum oracle at home's
        # query, and an LP top no candidate reaches keeps every pair drawn
        monkeypatch.setattr(solver, "_TOP_MEMO", 0)
        monkeypatch.setattr(solver, "lp_bound", lambda g, home: g.weight_of(home) + 1)
        drawn = _count_forced_pairs(monkeypatch, fault_at)
        with pytest.raises(StructureViolation) as info:
            solve(g)
        assert isinstance(info.value.__cause__, ClassViolation)
        assert len(set(drawn)) == fault_at - 1


class TestCoverWalk:
    """The cover's members come from a walk that weighs nothing, and its
    answer from ``solve``'s steered loop."""

    @pytest.mark.parametrize(
        "weights, solved",
        [([0, 9, 0, 9, 0, 9, 0], True), ([9, 0, 0, 9, 0, 0, 9], False)],
        ids=["light", "heavy"],
    )
    def test_a_region_that_fails_its_certificate_is_an_internal_fault(
        self, monkeypatch, weights, solved
    ):
        # on the path 0-1-...-6, vertex 4 added to the region {0, 3, 5, 6}
        # of 0-1-2-3 closes the path 3-4-5-6.  The light region weighs 18,
        # below the optimum 27, so the steered loop never solves it and
        # only the walk's certificate catches it; the heavy one weighs 27
        g = path_graph(7, weights)
        real = solver._q3_region
        monkeypatch.setattr(solver, "_q3_region", lambda *args: real(*args) | 1 << 4)
        with pytest.raises(StructureViolation) as info:
            solve_with_cover(g)
        assert info.value.witness[:2] == ("incomplete_component", 0b1111000)
        if solved:
            assert solve(g).weight == 27
        else:
            with pytest.raises(StructureViolation):
                solve(g)

    @pytest.mark.parametrize("name", sorted(SCAN_GRAPHS))
    def test_the_walk_makes_no_side_selection(self, monkeypatch, name):
        # a cover call side-selects only in its front step and its steered
        # loop, which are solve's
        g = SCAN_GRAPHS[name]()
        calls = []
        real = bipartite.side_selection

        def counting(g, certified):
            calls.append(certified)
            return real(g, certified)

        for module in (solver, bipartite):
            monkeypatch.setattr(module, "side_selection", counting)
        solve(g)
        solved = len(calls)
        calls.clear()
        solve_with_cover(g)
        assert len(calls) == solved


# complete blow-ups of C5 and C7: dense, not bipartite, and members
BLOWUPS = [(5, s) for s in range(2, 7)] + [(7, s) for s in range(2, 5)]


class TestDenseBlowups:
    @pytest.mark.parametrize("k, s", BLOWUPS)
    def test_blowups_are_members(self, k, s):
        assert is_class_member(blowup_graph(k, s, seed=100 * k + s)).is_member

    @pytest.mark.parametrize("k, s", BLOWUPS)
    def test_solve_matches_the_closed_form(self, k, s):
        g = blowup_graph(k, s, seed=100 * k + s)
        got = solve(g)
        assert got.weight == blowup_optimum(g, k) == oracle_wis(g).weight
        assert is_independent(g, mask_of(got.chosen))

    @pytest.mark.parametrize("k, s", BLOWUPS)
    def test_solve_agrees_with_the_unsteered_evaluation(self, monkeypatch, k, s):
        g = blowup_graph(k, s, seed=100 * k + s)
        assert [solve(g)] == _unsteered(monkeypatch, [g])


class TestAndrasfai:
    """Andrásfai(k), a twin-free non-bipartite member on 3k - 1 vertices,
    against its circular-window optimum."""

    @pytest.mark.parametrize("k", range(2, 11))
    def test_solve_matches_the_window(self, k):
        g = andrasfai_graph(k, seed=7000 + k)
        assert is_class_member(g).is_member
        want = andrasfai_optimum(g, k)
        got = solve(g)
        assert got.weight == want
        assert is_independent(g, mask_of(got.chosen))
        if k <= 9:
            assert oracle_wis(g).weight == want

    @pytest.mark.parametrize("k", range(2, 8))
    def test_cover_holds_every_maximal_set(self, k):
        # the 3k - 1 maximal sets are the windows' vertex sets
        g = andrasfai_graph(k, seed=7000 + k)
        result, family = solve_with_cover(g)
        assert result == solve(g)
        maximal = [mask_of(s) for s in enumerate_maximal_is(g)]
        assert len(maximal) == 3 * k - 1
        for m in maximal:
            assert any(m & ~member == 0 for member in family.members)


class _StopTrace:
    """What one ``solve`` evaluates, recorded in order: each candidate's
    weight (a forced pair's through ``_heaviest_leaf``, a region's or
    the remainder's through ``cb_weight_mask``), the hosts handed to
    ``cb_weight_mask``, the number of paths whose candidates were drawn,
    and the top the loop stops at: the optimum oracle's answer on home,
    or home's LP bound when the oracle's budget trips.  ``unreachable``
    trips the oracle at home's query and replaces the LP top by one no
    candidate reaches, which turns the stop off."""

    def __init__(self, monkeypatch, unreachable: bool = False):
        self.weights: list[int] = []
        self.hosts: list[int] = []
        self.paths = 0
        self.top = None
        forced_pair, cb_weight_mask = solver._heaviest_leaf, solver.cb_weight_mask
        per_path, oracle, lp_bound = solver._per_path, solver._optimum_oracle, solver.lp_bound

        def counting_pair(g, leaves):
            w, m = forced_pair(g, leaves)
            self.weights.append(w)
            return w, m

        def counting_cb(g, host):
            self.hosts.append(host)
            w, m = cb_weight_mask(g, host)
            self.weights.append(w)
            return w, m

        def counting_paths(*args):
            self.paths += 1
            return per_path(*args)

        def recording_oracle(g, home):
            opt = oracle(g, home)

            def recorded(mask):
                got = opt(mask)
                if mask == home:  # home's query, the loop's top
                    self.top = got
                return got

            return recorded

        def recording_lp(g, host):
            got = g.weight_of(host) + 1 if unreachable else lp_bound(g, host)
            # home's call comes first; a forced pair's bound calls it later
            # on what the pair leaves of home
            if self.top is None:
                self.top = got
            return got

        if unreachable:
            monkeypatch.setattr(solver, "_TOP_MEMO", 0)
        monkeypatch.setattr(solver, "_heaviest_leaf", counting_pair)
        monkeypatch.setattr(solver, "cb_weight_mask", counting_cb)
        monkeypatch.setattr(solver, "_per_path", counting_paths)
        monkeypatch.setattr(solver, "_optimum_oracle", recording_oracle)
        monkeypatch.setattr(solver, "lp_bound", recording_lp)


def _on_paths(g: Graph) -> int:
    return mask_of(v for p in enumerate_induced_p4(g) for v in p.vertices)


# bipartite members, so home's LP bound is the optimum; the crown's stop
# fires at path 393 of 504, the rejection member's at its first of 174
STOP_GRAPHS = {
    "crown_9_heavy": lambda: _crown(9, heavy=True),
    "rejection_14": lambda: gen_instance("rejection", 14, 0.6, 2),
}


class TestStopAtTheLpBound:
    @pytest.mark.parametrize("name", sorted(STOP_GRAPHS))
    def test_nothing_is_evaluated_after_the_bound_is_reached(self, monkeypatch, name):
        g = STOP_GRAPHS[name]()
        paths = enumerate_induced_p4(g)
        on_paths = _on_paths(g)
        trace = _StopTrace(monkeypatch)
        got = solve(g)
        assert trace.top == got.weight == oracle_wis(g).weight
        # the candidate that reaches the top is the last one evaluated
        assert trace.weights[-1] == trace.top
        assert all(w < trace.top for w in trace.weights[:-1])
        assert trace.paths < len(paths)
        # every region holds its path's endpoints; the remainder holds no
        # vertex of any path, and is never evaluated
        assert all(host & on_paths for host in trace.hosts)
        monkeypatch.undo()
        full = _StopTrace(monkeypatch, unreachable=True)
        assert solve(g) == got
        assert full.paths == len(paths)
        assert len(full.weights) > len(trace.weights)
        assert not full.hosts[-1] & on_paths

    @pytest.mark.parametrize("args", [(14, 0.6, 2), (16, 0.7, 5), (18, 0.8, 9)])
    def test_a_stop_before_the_last_path_skips_the_remainder(self, monkeypatch, args):
        g = gen_instance("rejection", *args)
        paths = enumerate_induced_p4(g)
        home = sum(components_with_certificates(g, g.full_mask)[1])  # disjoint masks
        trace = _StopTrace(monkeypatch)
        got = solve(g)
        assert got.weight == oracle_wis(g).weight
        assert is_independent(g, mask_of(got.chosen))
        assert trace.paths < len(paths)
        # home minus the paths drawn before the stop still holds a path, so
        # a remainder built from them is not a valid leaf
        drawn = mask_of(v for p in paths[: trace.paths] for v in p.vertices)
        assert enumerate_induced_p4(g, home & ~drawn)

    def test_a_loose_bound_visits_every_path(self, monkeypatch):
        # a memo cap of 0 trips the optimum's budget at its first branching,
        # so the top is home's LP bound, which stays above this optimum
        g = blowup_graph(5, 3, seed=504)
        paths = enumerate_induced_p4(g)
        want = solve(g)
        monkeypatch.setattr(solver, "_TOP_MEMO", 0)
        trace = _StopTrace(monkeypatch)
        got = solve(g)
        assert got == want
        assert got.weight == blowup_optimum(g, 5) == oracle_wis(g).weight
        assert trace.top == bipartite.lp_bound(g, g.full_mask) > got.weight
        assert trace.paths == len(paths)
        # every vertex lies on a path, so the remainder is empty, and it is
        # still evaluated last
        assert trace.hosts[-1] == 0 == g.full_mask & ~_on_paths(g)


def _optimum(g: Graph, home: int):
    """Home's query to a fresh optimum oracle, the top of ``solve``'s loop."""
    return solver._optimum_oracle(g, home)(home)


def _shifted_oracle(monkeypatch, by: int) -> None:
    """Make every answer of ``solve``'s optimum oracle ``by`` off."""
    real = solver._optimum_oracle

    def shifted(g, home):
        opt = real(g, home)
        return lambda mask: opt(mask) + by

    monkeypatch.setattr(solver, "_optimum_oracle", shifted)


def _tripping_after(monkeypatch, answers: int) -> None:
    """Make ``solve``'s optimum oracle answer its first ``answers``
    queries, home's first, and None from then on, as a tripped budget."""
    real = solver._optimum_oracle

    def limited(g, home):
        opt = real(g, home)
        left = [answers]

        def query(mask):
            if not left[0]:
                return None
            left[0] -= 1
            return opt(mask)

        return query

    monkeypatch.setattr(solver, "_optimum_oracle", limited)


def _count_calls(monkeypatch, module, name: str) -> list:
    """Record the arguments of every call of ``module.name``."""
    calls: list = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


# non-bipartite homes: C5, C7 and C9 blow-ups and Andrásfai graphs
NON_BIPARTITE = [blowup_graph(k, s, seed=100 * k + s) for k in (5, 7, 9) for s in range(1, 5)]
NON_BIPARTITE += [andrasfai_graph(k, seed=7000 + k) for k in range(2, 13)]


def _descent_graphs(andrasfai_up_to: int) -> list[Graph]:
    """The golden corpus's members, ``SCAN_GRAPHS``, Andrásfai(7) up to
    Andrásfai(``andrasfai_up_to``) and C7 blow-ups with classes of 3-6."""
    graphs = [g for g in golden_corpus() if is_class_member(g).is_member]
    graphs += [SCAN_GRAPHS[name]() for name in sorted(SCAN_GRAPHS)]
    graphs += [andrasfai_graph(k, seed=7000 + k) for k in range(7, andrasfai_up_to + 1)]
    return graphs + [blowup_graph(7, s, seed=700 + s) for s in range(3, 7)]


class TestHomeOptimum:
    """``solver._optimum_oracle``, whose answer on home is the exact top of
    ``solve``'s loop and whose later answers steer it, against the oracle
    and the closed forms, its budget, and the stop and descent it makes."""

    def test_equals_the_oracle_on_the_fuzz_members(self):
        members = queries = 0
        for j in range(600):
            g = fuzz_graph(j)
            witness, home, _ = recognition._membership(g)
            if witness is not None:
                continue
            paths = list(recognition._canonical_p4s(g, home))
            members += 1
            assert _optimum(g, g.full_mask) == oracle_wis(g).weight, j
            # one oracle answers every query of a solve from one memo
            opt = solver._optimum_oracle(g, home)
            assert opt(home) == oracle_wis(g, home).weight, j
            for a, b, c, d in paths[:4]:
                rest = home & ~(g.adj[a] | g.adj[c] | 1 << a | 1 << c)
                assert opt(rest) == oracle_wis(g, rest).weight, j
                queries += 1
        assert members >= 200
        assert queries >= 300

    @pytest.mark.parametrize("k", range(2, 41))
    def test_equals_the_crown_closed_form(self, k):
        g = _crown(k, heavy=k % 2 == 1)
        assert _optimum(g, g.full_mask) == crown_optimum(g, k)

    @pytest.mark.parametrize("k, s", [(k, s) for k in (5, 7, 9) for s in range(1, 7)])
    def test_equals_the_blowup_closed_form(self, k, s):
        g = blowup_graph(k, s, seed=100 * k + s)
        assert _optimum(g, g.full_mask) == blowup_optimum(g, k)

    @pytest.mark.parametrize("k", range(2, 17))
    def test_equals_the_andrasfai_window(self, k):
        g = andrasfai_graph(k, seed=7000 + k)
        assert _optimum(g, g.full_mask) == andrasfai_optimum(g, k)

    def test_a_deep_branching_trips_instead_of_recursing_on(self):
        # the crown branches about one level per matched pair, so on 1,200
        # vertices it reaches the depth budget before the recursion limit
        g = crown_graph(600)
        assert _optimum(g, g.full_mask) in (None, crown_optimum(g, 600))

    def test_a_tripped_budget_answers_none_for_the_rest_of_the_solve(self, monkeypatch):
        g = andrasfai_graph(8, seed=7008)
        opt = solver._optimum_oracle(g, g.full_mask)
        assert opt(0b111) == oracle_wis(g, 0b111).weight
        monkeypatch.setattr(solver, "_TOP_DEPTH", 0)
        assert opt(g.full_mask) is None
        monkeypatch.undo()
        assert opt(0b111) is None

    @pytest.mark.parametrize("budget", ["_TOP_MEMO", "_TOP_DEPTH"])
    def test_a_tripped_budget_falls_back_with_the_same_output(self, monkeypatch, budget):
        graphs = [g for g in golden_corpus() if g.n <= 16 and is_class_member(g).is_member]
        graphs = [g for g in graphs if enumerate_induced_p4(g)]
        assert len(graphs) >= 100
        graphs += NON_BIPARTITE
        want = [solve(g) for g in graphs]
        monkeypatch.setattr(solver, budget, 0)
        for g, expected in zip(graphs, want):
            assert _optimum(g, g.full_mask) is None
            assert solve(g) == expected

    @pytest.mark.parametrize("answers", [1, 2, 3, 5, 8, 13, 40])
    def test_a_budget_that_trips_part_way_leaves_the_output(self, monkeypatch, answers):
        # the oracle answers home's query and then a few more, so its
        # budget trips in the loop, in a forced pair's family or in a
        # descent of _solve_raw
        graphs = [SCAN_GRAPHS[name]() for name in sorted(SCAN_GRAPHS)] + NON_BIPARTITE
        want = [solve(g) for g in graphs]
        _tripping_after(monkeypatch, answers)
        for g, expected in zip(graphs, want):
            assert solve(g) == expected

    def test_the_exact_top_stops_a_non_bipartite_home(self, monkeypatch):
        # home's LP bound stays above this blow-up's optimum, so an LP top
        # walks every path; the exact top ends the loop at the optimum
        g = blowup_graph(7, 6, seed=706)
        paths = enumerate_induced_p4(g)
        trace = _StopTrace(monkeypatch)
        got = solve(g)
        assert trace.top == got.weight == blowup_optimum(g, 7)
        assert bipartite.lp_bound(g, g.full_mask) > got.weight
        assert trace.paths < len(paths)

    @pytest.mark.parametrize(
        "make, optimum, raw_calls",
        [
            (lambda: andrasfai_graph(16, seed=7016), lambda g: andrasfai_optimum(g, 16), 10),
            (lambda: blowup_graph(7, 6, seed=706), lambda g: blowup_optimum(g, 7), 5),
        ],
        ids=["andrasfai_16", "c7_classes_of_6"],
    )
    def test_the_descent_solves_one_pair(self, monkeypatch, make, optimum, raw_calls):
        # the first pair whose exact weight is the optimum is the one
        # solved, and each branching family solves only its first member
        # that reaches its own optimum
        g = make()
        pairs = _count_calls(monkeypatch, solver, "_solve_family")
        raw = _count_calls(monkeypatch, split_solver, "_solve_raw")
        got = solve(g)
        assert got.weight == optimum(g)
        assert len(pairs) == 1
        assert len(raw) <= raw_calls

    @pytest.mark.parametrize(
        "make, optimum",
        [
            (lambda: blowup_graph(7, 6, seed=706), lambda g: blowup_optimum(g, 7)),
            (lambda: andrasfai_graph(12, seed=7012), lambda g: andrasfai_optimum(g, 12)),
        ],
        ids=["c7_classes_of_6", "andrasfai_12"],
    )
    def test_a_tripped_solve_solves_few_pairs(self, monkeypatch, make, optimum):
        # home's LP bound stays above these optima, so a tripped solve
        # visits every path; each forced pair is bounded by its weight plus
        # the LP bound of what it leaves, which lets through only a few
        g = make()
        live = solve(g)
        monkeypatch.setattr(solver, "_TOP_MEMO", 0)
        pairs = _count_calls(monkeypatch, solver, "_solve_family")
        got = solve(g)
        assert got == live
        assert got.weight == optimum(g) < bipartite.lp_bound(g, g.full_mask)
        assert 1 <= len(pairs) <= 3

    def test_a_live_solve_descends_through_distinct_hosts(self, monkeypatch):
        # with a live oracle the loop solves at most one forced pair, whose
        # steered walk descends one chain of strictly smaller hosts, so no
        # host memo could hit: each solved pair walks with a fresh one
        answers: list = []
        oracle = solver._optimum_oracle

        def recording_oracle(g, home):
            opt = oracle(g, home)

            def recorded(mask):
                answers.append(opt(mask))
                return answers[-1]

            return recorded

        monkeypatch.setattr(solver, "_optimum_oracle", recording_oracle)
        pairs = _count_calls(monkeypatch, solver, "_solve_family")
        raw = _count_calls(monkeypatch, split_solver, "_solve_raw")
        solved = 0
        for g in _descent_graphs(16):
            for calls in (answers, pairs, raw):
                calls.clear()
            solve(g)
            assert None not in answers
            assert len(pairs) <= 1
            hosts = [args[3] for args in raw]
            assert len(set(hosts)) == len(hosts)
            solved += len(pairs)
        assert solved >= 100

    def test_a_cover_walk_keeps_one_memo(self, monkeypatch):
        # every _solve_raw call of the cover's walk, the call's last pass,
        # receives the walk's one host memo
        raw = _count_calls(monkeypatch, split_solver, "_solve_raw")
        starts: list[int] = []
        walk = solver._walk

        def flagged(g, home):
            starts.append(len(raw))
            return walk(g, home)

        monkeypatch.setattr(solver, "_walk", flagged)
        walked = 0
        for g in _descent_graphs(12):
            raw.clear()
            starts.clear()
            solve_with_cover(g)
            (start,) = starts
            memos = {id(args[7].memo) for args in raw[start:]}
            assert len(memos) <= 1
            walked += len(memos)
        assert walked >= 120

    @pytest.mark.parametrize(
        "make",
        [SCAN_GRAPHS[name] for name in sorted(SCAN_GRAPHS)]
        + [lambda k=k: andrasfai_graph(k, seed=7000 + k) for k in range(7, 11)],
        ids=sorted(SCAN_GRAPHS) + [f"andrasfai_{k}" for k in range(7, 11)],
    )
    def test_a_steered_walk_reaches_one_leaf(self, make):
        # a live oracle steers a forced pair's walk down to one leaf: the
        # first heaviest leaf of the same pair's full walk
        g = make()
        home = recognition._membership(g)[1]
        drawn: set[int] = set()
        walks = 0
        for vs in itertools.islice(recognition._canonical_p4s(g, home), 30):
            a, b, c, d = vs
            s_a, s_b, s_c, s_d, s_ac, _, s_bd, anti = recognition._trace_classes(g, vs, home)
            for x, y, s_x, s_y, s_xy in ((a, c, s_b, s_d, s_bd), (b, d, s_c, s_a, s_ac)):
                if 1 << x | 1 << y in drawn:
                    continue
                drawn.add(1 << x | 1 << y)
                # a fresh oracle per pair, whose budget does not trip
                opt = solver._optimum_oracle(g, home)
                steered = pair_walk(g, x, y, s_x, s_y, s_xy, anti, split_solver._Walk(opt)).leaves
                full = pair_walk(g, x, y, s_x, s_y, s_xy, anti).leaves
                weights = [bipartite.cb_weight_mask(g, leaf)[0] for leaf in full]
                assert steered == [full[weights.index(max(weights))]]
                assert bipartite.cb_weight_mask(g, steered[0]) == split_solver._heaviest_leaf(
                    g, full
                )
                assert opt(home) is not None
                walks += len(full) > 1
        assert walks >= 6

    @pytest.mark.parametrize("name", sorted(SCAN_GRAPHS))
    def test_a_best_above_the_top_is_an_internal_fault(self, monkeypatch, name):
        # every answer one below the optimum: the loop and the families
        # are steered as before, but the top is one no candidate weighs, so
        # the loop does not stop and its best ends above it
        g = SCAN_GRAPHS[name]()
        _shifted_oracle(monkeypatch, -1)
        with pytest.raises(StructureViolation) as info:
            solve(g)
        home = recognition._membership(g)[1]
        best = oracle_wis(g, home).weight
        assert info.value.witness == ("above_top", (best, best - 1))

    @pytest.mark.parametrize("name", sorted(SCAN_GRAPHS))
    def test_a_best_below_the_top_is_an_internal_fault(self, monkeypatch, name):
        # every answer one above the optimum: no candidate reaches the top,
        # so the loop runs to the remainder and its best ends below it
        g = SCAN_GRAPHS[name]()
        _shifted_oracle(monkeypatch, 1)
        with pytest.raises(StructureViolation) as info:
            solve(g)
        home = recognition._membership(g)[1]
        best = oracle_wis(g, home).weight
        assert info.value.witness == ("below_top", (best, best + 1))

    @pytest.mark.parametrize("name", sorted(SCAN_GRAPHS))
    def test_a_family_that_misses_its_target_is_an_internal_fault(self, name):
        # the pair's target, the family's first query, one above its
        # optimum: no member of its family reaches it
        g = SCAN_GRAPHS[name]()
        home = recognition._membership(g)[1]
        first = next(recognition._canonical_p4s(g, home))
        a, b, c, d = first
        _, s_b, _, s_d, _, _, s_bd, anti = recognition._trace_classes(g, first, home)
        real = solver._optimum_oracle(g, home)
        queries = []

        def opt(mask):
            queries.append(mask)
            return real(mask) + (len(queries) == 1)

        want = oracle_wis(g, s_b | s_d | s_bd | anti).weight + 1
        with pytest.raises(StructureViolation) as info:
            pair_walk(g, a, c, s_b, s_d, s_bd, anti, split_solver._Walk(opt))
        assert info.value.witness == ("unreached_optimum", want)


# members of every size class the claims are checked on: twin-rich
# blow-ups, twin-free Andrásfai graphs and a crown, each weighted
CLAIM_GRAPHS = {
    **{f"c7_classes_of_{s}": (lambda s=s: blowup_graph(7, s, seed=700 + s)) for s in (4, 5)},
    **{f"andrasfai_{k}": (lambda k=k: andrasfai_graph(k, seed=7000 + k)) for k in range(7, 11)},
    "crown_30": lambda: _crown(30, heavy=False),
    "clebsch_classes_of_2": lambda: blowup_of(clebsch(), 2, seed=1002),
}


def _check_claims(g: Graph, result: SolveResult, family: CoverFamily) -> None:
    """Claim (ii), every cover member induces a bipartite subgraph, and
    claim (i), the solve is a maximum: the best bipartite optimum over the
    members is the solve's weight, and its chosen set lies in a member."""
    for m in family.members:
        assert two_colorable(g, m), bin(m)
    assert max(konig_optimum(g, m) for m in family.members) == result.weight
    chosen = mask_of(result.chosen)
    assert any(chosen & ~m == 0 for m in family.members)


class TestClaimsAgree:
    @pytest.mark.parametrize("name", sorted(CLAIM_GRAPHS))
    def test_the_covers_bipartite_optimum_is_the_solve(self, name):
        g = CLAIM_GRAPHS[name]()
        _check_claims(g, solve(g), solve_with_cover(g)[1])

    def test_the_check_fails_on_each_mutation(self):
        g = CLAIM_GRAPHS["c7_classes_of_4"]()
        result, family = solve(g), solve_with_cover(g)[1]
        _check_claims(g, result, family)
        chosen = mask_of(result.chosen)
        holding = [m for m in family.members if chosen & ~m == 0]
        assert holding
        without = CoverFamily(tuple(m for m in family.members if m not in holding))
        lighter = SolveResult(result.weight - 1, result.chosen)
        # two neighbours of one vertex of a member, joined: a triangle
        # inside that member
        m, w = next(
            (m, w) for m in family.members for w in bits(m) if (g.adj[w] & m).bit_count() >= 2
        )
        u, v = list(bits(g.adj[w] & m))[:2]
        edges = [(x, y) for x in range(g.n) for y in bits(g.adj[x]) if x < y]
        joined = Graph.from_edges(g.n, edges + [(u, v)], g.weights)
        for mutated in ((g, result, without), (g, lighter, family), (joined, result, family)):
            with pytest.raises(AssertionError):
                _check_claims(*mutated)
