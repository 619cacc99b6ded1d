"""Golden digest: the solver's outputs on a fixed corpus, byte for byte.

One sha256 covers, for every graph of the corpus, the verdict of
``is_class_member`` and what ``solve`` and ``solve_with_cover`` return:
the chosen set with its weight and the cover members in order on a
member, the ``ClassViolation`` witness on a non-member.  A refactor or a
speed-up must leave every one of those bytes as it was; a deliberate
change of output updates ``DIGEST`` and says why.

``HARD_DIGEST`` covers ``solve``'s chosen set and weight on three
path-heavy members, thousands of induced P4s each, where the corpus
above has at most a few hundred.

``REFUSAL_DIGEST`` covers the refusal witnesses of ``is_class_member``,
``solve`` and ``solve_with_cover`` on 200 seeded triangle-free
non-members, where the corpus above has only 19 refusals by a pair of
separated paths.

``COVER_DIGEST`` covers ``solve_with_cover``'s weight, chosen set and
members in order on three complete blow-ups, where false twins abound:
their equal neighbourhoods tie in the selection loop's pick.

``BRANCH_DIGEST`` covers the members that reach the constrained second
phase's two branches, which none of the graphs above reaches: ``solve``,
the ``solve_with_cover`` members, and ``solve_containing_ac`` and
``solve_containing_bd`` on every induced P4, membership decided once per
graph (``forced_pair_solvers``).  The test also checks that each graph
still reaches its branch.
"""

from __future__ import annotations

import hashlib
from collections import Counter

from conftest import (
    INTERLOCKED,
    blowup_graph,
    blowup_of,
    crown_graph,
    forced_pair_solvers,
    fuzz_graph,
    petersen,
    triangle_free_graph,
    triangle_free_non_members,
)

from p4p4free import split_solver
from p4p4free.errors import ClassViolation
from p4p4free.graph import Graph
from p4p4free.recognition import enumerate_induced_p4, is_class_member
from p4p4free.solver import solve, solve_with_cover
from p4p4free.testkit import XorShift64Star, gen_instance

DIGEST = "ebba4aa25b3a94b4410ab6df3898647b7705b540deed2e8e560dcdd996ba218c"
HARD_DIGEST = "839168be3bdf41f4a7ccd3720a344993120f4e6ffeb2dfbf412c85c62c70dc91"
REFUSAL_DIGEST = "c33f9abb4f2b45776d565704df334f5c6ccf524b8e7e4f4e1e81d43f54706fe0"
COVER_DIGEST = "a045ade1122ad5d078c39f12024a4549205df74a113137b0bacc912045abb53a"
BRANCH_DIGEST = "2d09a1158dd01c668bca341c724f9fa476b7e3d22834875b32a5f7f9b60a498e"


def _corpus():
    for i in range(28):
        n = 14 + i % 7
        density = (0.3, 0.5, 0.7, 0.9)[i // 7 % 4]
        yield gen_instance("clustered", n, density, 800_000 + i)
    yield blowup_graph(7, 3, seed=703)
    yield crown_graph(8)
    yield gen_instance("rejection", 14, 0.6, 2)
    yield gen_instance("clustered", 60, 0.5, 700_008)
    for j in range(400):
        yield fuzz_graph(j)


def _hard_rows():
    """The path-heavy members of the acceptance scaling check: 10,337,
    4,375 and 24,360 induced P4s."""
    yield gen_instance("rejection", 40, 0.9, 7)
    yield blowup_graph(7, 5, seed=705)
    rng = XorShift64Star(3030)
    yield crown_graph(30, [rng.below(101) for _ in range(60)])


def _twin_rows():
    """Twin-rich members: blow-ups of C7 and C5 and of the Petersen
    graph."""
    yield blowup_graph(7, 4, seed=704)
    yield blowup_graph(5, 5, seed=505)
    yield blowup_of(petersen(), 2, seed=1002)


def _branch_rows():
    """Each member with the second-phase branch it reaches: the
    interlocked block, with unit and with seeded weights, reaches
    ``branch_via_bipartial`` in ``solve`` and in the cover; the three
    triangle-free draws reach the keep-or-drop on a path vertex in their
    covers.  Few draws reach it once the cover solves each forced pair
    once: 1_049_996 and 1_215_779 were the first two found in a search of
    seeds from 1_040_000 up."""
    rng = XorShift64Star(314)
    for weights in (None, [1 + rng.below(50) for _ in range(12)]):
        yield Graph.from_edges(12, INTERLOCKED, weights), "bipartial"
    for seed, n, p in (
        (1_020_203, 23, 0.5),
        (1_049_996, 15, 0.5),
        (1_215_779, 18, 0.45),
    ):
        yield triangle_free_graph(seed, n, p), "fallback"


def _outputs(g):
    """The verdict, then solve's and the cover's output or refusal."""
    verdict = is_class_member(g)
    pair = verdict.p4_pair and tuple(p.vertices for p in verdict.p4_pair)
    yield ("verdict", verdict.is_member, verdict.triangle, pair)
    try:
        result = solve(g)
    except ClassViolation as err:
        yield ("solve_refused", err.witness)
    else:
        yield ("solve", result.weight, result.chosen)
    try:
        result, family = solve_with_cover(g)
    except ClassViolation as err:
        yield ("cover_refused", err.witness)
    else:
        yield ("cover", result.weight, result.chosen, family.members)


def test_outputs_match_the_golden_digest():
    digest = hashlib.sha256()
    for g in _corpus():
        for line in _outputs(g):
            digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == DIGEST


def test_hard_rows_match_their_digest():
    digest = hashlib.sha256()
    for g in _hard_rows():
        result = solve(g)
        digest.update(repr(("solve", result.weight, result.chosen)).encode() + b"\n")
    assert digest.hexdigest() == HARD_DIGEST


def test_twin_rich_covers_match_their_digest():
    digest = hashlib.sha256()
    for g in _twin_rows():
        result, family = solve_with_cover(g)
        line = ("cover", result.weight, result.chosen, family.members)
        digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == COVER_DIGEST


def test_refusals_match_their_digest():
    digest = hashlib.sha256()
    for g in triangle_free_non_members(200):
        for line in _outputs(g):
            digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == REFUSAL_DIGEST


def test_second_phase_branches_match_their_digest(monkeypatch):
    reached = Counter()
    path_hosts = split_solver._path_hosts

    def counting(g, comp, active, x, members):
        # where no vertex is bi-partial, the rule falls back to keep or
        # drop of the path vertex x
        declined = split_solver.branch_via_bipartial(g, comp, active, members) is None
        reached["fallback" if declined else "bipartial"] += 1
        return path_hosts(g, comp, active, x, members)

    monkeypatch.setattr(split_solver, "_path_hosts", counting)
    digest = hashlib.sha256()
    for g, branch in _branch_rows():
        reached.clear()
        result = solve(g)
        in_solve = reached[branch]
        _, family = solve_with_cover(g)
        assert reached[branch] > in_solve
        assert in_solve or branch == "fallback"
        lines = [("solve", result.weight, result.chosen), ("cover", family.members)]
        solvers = forced_pair_solvers(g)
        for p in enumerate_induced_p4(g):
            for name, forced in solvers:
                result = forced(p)
                lines.append((name, p.vertices, result.weight, result.chosen))
        for line in lines:
            digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == BRANCH_DIGEST
