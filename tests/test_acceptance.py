"""Acceptance gate: one test per shipping criterion.

Each test appends a single pass/fail line to the report printed in the
terminal summary, with its measured detail.  Instance streams are seeded,
so every run checks the identical corpus.
"""

from __future__ import annotations

import functools
import json
import time

import pytest
from conftest import (
    acceptance_report,
    blowup_graph,
    blowup_optimum,
    crown_graph,
    crown_optimum,
    forced_pair_solvers,
    is_independent,
    random_graph,
    scan_member,
    two_colorable,
    witness_checks,
)

from p4p4free.cli import format_graph, run
from p4p4free.constrained import solve_containing_ac, solve_containing_bd
from p4p4free.errors import ClassViolation
from p4p4free.graph import Graph, bits, mask_of
from p4p4free.bipartite import solve_cb_components
from p4p4free.recognition import enumerate_induced_p4, is_class_member
from p4p4free.solver import solve, solve_with_cover
from p4p4free.split_solver import _solve_raw
from p4p4free.testkit import (
    XorShift64Star,
    enumerate_maximal_is,
    gen_instance,
    gen_split_instance,
    oracle_wis,
    oracle_wis_containing,
)


def criterion(number: int, slug: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                acceptance_report.append(f"criterion {number} {slug}: FAIL")
                raise
            suffix = f" ({detail})" if detail else ""
            acceptance_report.append(f"criterion {number} {slug}: PASS{suffix}")

        return wrapper

    return decorate


def _instances(count: int, lo: int, hi: int, seed0: int):
    span = hi - lo + 1
    for i in range(count):
        yield gen_instance(
            model="clustered" if i % 2 else "rejection",
            n=lo + i % span,
            density=0.3 + 0.05 * (i % 9),
            seed=seed0 + i,
        )


def _verify(g: Graph, res) -> None:
    mask = mask_of(res.chosen)
    assert is_independent(g, mask)
    assert res.weight == sum(g.weights[v] for v in res.chosen)
    assert res.chosen == tuple(sorted(res.chosen))


@criterion(1, "oracle equivalence")
def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    for g in _instances(1000, 8, 18, seed0=100_000):
        assert solve(g).weight == oracle_wis(g).weight
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    return f"1000 instances, n 8..18, {elapsed:.1f}s"


@criterion(2, "constrained-pair equivalence")
def test_criterion_2_constrained_pair_equivalence():
    checked = 0
    for g in _instances(200, 6, 14, seed0=200_000):
        # membership decided once per graph; the public wrappers, which
        # decide it on every call, keep their own tests
        (_, solve_ac), (_, solve_bd) = forced_pair_solvers(g)
        for p in enumerate_induced_p4(g):
            want = oracle_wis_containing(g, mask_of((p.a, p.c)))
            assert solve_ac(p).weight == want.weight
            want = oracle_wis_containing(g, mask_of((p.b, p.d)))
            assert solve_bd(p).weight == want.weight
            checked += 2
    assert checked > 400
    return f"200 instances, {checked} constrained solves matched"


@criterion(3, "self-certification")
def test_criterion_3_self_certification():
    verified = 0
    rng = XorShift64Star(33)
    for g in _instances(40, 6, 14, seed0=300_000):
        res, fam = solve_with_cover(g)
        for out in (res, solve(g), oracle_wis(g), solve_cb_components(g, 0)):
            _verify(g, out)
            verified += 1
        paths = enumerate_induced_p4(g)
        if paths:
            p = paths[rng.below(len(paths))]
            for out in (solve_containing_ac(g, p), solve_containing_bd(g, p)):
                _verify(g, out)
                verified += 1
    for seed in range(20):
        g, s_mask, t_mask = gen_split_instance(12, 0.5, seed)
        weight, mask = _solve_raw(g, s_mask, t_mask, s_mask | t_mask, 0, 0, None, {}, 0)
        assert is_independent(g, mask)
        assert weight == g.weight_of(mask)
        verified += 1
    return f"{verified} results re-checked"


@criterion(4, "bipartite cover family")
def test_criterion_4_cover_family():
    covered = 0
    largest = 0
    for g in _instances(200, 6, 14, seed0=400_000):
        _, fam = solve_with_cover(g)
        for member in fam.members:
            assert two_colorable(g, member)
        assert len(fam.members) <= 10 * max(1, g.n) ** 8
        largest = max(largest, len(fam.members))
        for chosen in enumerate_maximal_is(g):
            mask = mask_of(chosen)
            assert any(mask & ~member == 0 for member in fam.members)
            covered += 1
    assert covered > 1000
    return f"{covered} maximal sets covered, largest family {largest}"


@criterion(5, "structural guarantees hold on members")
def test_criterion_5_structural_guarantees():
    solved = 0
    for g in _instances(300, 6, 16, seed0=500_000):
        assert is_class_member(g).is_member
        solve_with_cover(g)
        solved += 1
    # hand-built shape whose solve must cross the partial-contact
    # branching machinery (module tests pin the claim-level behavior)
    edges = [
        (0, 1), (1, 2), (2, 3), (4, 1), (5, 3), (6, 1), (6, 9),
        (7, 3), (7, 8), (9, 8), (9, 10), (11, 8), (11, 10),
    ]
    g = Graph.from_edges(12, edges)
    assert is_class_member(g).is_member
    assert solve(g).weight == oracle_wis(g).weight
    return f"{solved} member instances, zero violations raised"


@criterion(6, "recognition matches exhaustive scans")
def test_criterion_6_recognition_vs_scans():
    rng = XorShift64Star(66)
    members = 0
    for i in range(500):
        n = 4 + rng.below(9)
        g = random_graph(seed=600_000 + i, n=n, p=0.1 + 0.08 * rng.below(11))
        verdict = is_class_member(g)
        assert verdict.is_member == scan_member(g)
        if verdict.is_member:
            members += 1
        elif verdict.triangle is not None:
            u, v, w = verdict.triangle
            assert g.adjacent(u, v) and g.adjacent(v, w) and g.adjacent(u, w)
        else:
            first, second = verdict.p4_pair
            assert not (first.mask & second.mask)
            assert all(
                not g.adjacent(u, v)
                for u in first.vertices
                for v in second.vertices
            )
    return f"500 random graphs, {members} members"


@criterion(7, "polynomial scaling smoke test")
def test_criterion_7_scaling():
    times = []
    for n in (30, 45, 60):
        g = gen_instance(model="clustered", n=n, density=0.5, seed=700_000 + n)
        start = time.perf_counter()
        solve(g)
        times.append(time.perf_counter() - start)
    for elapsed in times:
        assert elapsed < 60.0
    for prev, cur in zip(times, times[1:]):
        assert cur < 50.0 * max(prev, 1e-9)
    # a hard size: connected, dense and path-heavy (10,337 induced P4s)
    g = gen_instance(model="rejection", n=40, density=0.9, seed=7)
    start = time.perf_counter()
    solve(g)
    hard = time.perf_counter() - start
    assert hard < 60.0
    # a dense member that is not bipartite (4,375 induced P4s)
    g = blowup_graph(7, 5, seed=705)
    start = time.perf_counter()
    got = solve(g)
    blowup = time.perf_counter() - start
    assert blowup < 60.0
    assert got.weight == blowup_optimum(g, 7)
    # its cover family: each forced pair drawn once, 1,013 members
    start = time.perf_counter()
    covered, _ = solve_with_cover(g)
    blowup_cover = time.perf_counter() - start
    assert blowup_cover < 60.0
    assert covered == got
    # a crown, k = 30: 60 vertices and 24,360 induced P4s
    rng = XorShift64Star(3030)
    g = crown_graph(30, [rng.below(101) for _ in range(60)])
    start = time.perf_counter()
    got = solve(g)
    crown = time.perf_counter() - start
    assert crown < 60.0
    assert got.weight == crown_optimum(g, 30)
    return (
        "n 30/45/60 in "
        + "/".join(f"{t:.3f}s" for t in times)
        + f", hard n 40 in {hard:.3f}s, C7 blow-up with classes of 5 in {blowup:.3f}s"
        + f" (cover {blowup_cover:.3f}s)"
        + f", crown k 30 in {crown:.3f}s"
    )


@criterion(8, "deterministic output")
def test_criterion_8_determinism(tmp_path, capsys):
    path = tmp_path / "g.wis"
    path.write_text(format_graph(gen_instance("clustered", 16, 0.5, 800_000)))
    outputs: dict[str, set[str]] = {"solve": set(), "cover": set()}
    for command in ("solve", "cover"):
        for jobs in ("1", "2", "1"):
            code = run([command, str(path), "--jobs", jobs, "--format", "json"])
            assert code == 0
            text = capsys.readouterr().out
            json.loads(text)
            outputs[command].add(text)
    assert len(outputs["solve"]) == 1
    assert len(outputs["cover"]) == 1
    return "solve and cover JSON byte-identical across runs and jobs"


@criterion(9, "non-member fuzz")
def test_criterion_9_non_member_fuzz():
    rng = XorShift64Star(99)
    members = refused = 0
    for i in range(600):
        n = 6 + rng.below(13)
        g = random_graph(seed=900_000 + i * 7919, n=n, p=0.06 + 0.02 * rng.below(12))
        if is_class_member(g).is_member:
            assert solve(g).weight == oracle_wis(g).weight
            members += 1
            continue
        # both calls refuse before branching, with one re-checked witness;
        # a StructureViolation escaping either fails the criterion
        witnesses = []
        for entry in (solve, solve_with_cover):
            with pytest.raises(ClassViolation) as info:
                entry(g)
            witnesses.append(info.value.witness)
        assert witnesses[0] == witnesses[1]
        assert witness_checks(g, witnesses[0])
        refused += 1
    assert members > 100 and refused > 200
    return f"600 random graphs, n 6..18: {members} matched the oracle, {refused} refused"
