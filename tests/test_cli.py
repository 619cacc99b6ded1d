"""File format parsing and the command-line entry points."""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from conftest import blowup_graph, blowup_optimum, random_graph

from p4p4free import cli, solver, split_solver
from p4p4free.cli import format_graph, parse_graph, run
from p4p4free.errors import ClassViolation, ParseError, StructureViolation
from p4p4free.graph import Graph
from p4p4free.recognition import MembershipVerdict, enumerate_induced_p4
from p4p4free.testkit import XorShift64Star, enumerate_maximal_is, gen_instance

TWO = "p wis 2 1\nv 1 5\nv 2 7\ne 1 2\n"

TWO_PATHS = (
    "p wis 8 6\n"
    + "".join(f"v {i} 1\n" for i in range(1, 9))
    + "e 1 2\ne 2 3\ne 3 4\ne 5 6\ne 6 7\ne 7 8\n"
)

PATH4 = (
    "p wis 4 3\n"
    + "".join(f"v {i} 1\n" for i in range(1, 5))
    + "e 1 2\ne 2 3\ne 3 4\n"
)

TRIANGLE = "p wis 3 3\nv 1 1\nv 2 1\nv 3 1\ne 1 2\ne 2 3\ne 1 3\n"


class TestParseGraph:
    def test_single_edge_file(self):
        g = parse_graph(TWO)
        assert g.n == 2
        assert g.weights == (5, 7)
        assert g.adjacent(0, 1)

    def test_comments_and_blank_lines_are_ignored(self):
        noisy = "# header\n\np wis 2 1\n# weights\nv 1 5\nv 2 7\n\ne 1 2\n"
        assert parse_graph(noisy) == parse_graph(TWO)

    def test_duplicate_edges_collapse(self):
        doubled = "p wis 2 2\nv 1 5\nv 2 7\ne 1 2\ne 2 1\n"
        assert parse_graph(doubled) == parse_graph(TWO)

    def test_empty_graph(self):
        g = parse_graph("p wis 0 0\n")
        assert g.n == 0

    @pytest.mark.parametrize(
        "text,line",
        [
            ("p wis 2 1\nv 1 5\nv 2 7\ne 1 1\n", 4),
            ("p wis 2 1\nv 1 -5\nv 2 7\ne 1 2\n", 2),
            ("p wis 2 1\nv 1 5\nv 3 7\ne 1 2\n", 3),
            ("p wis 2 1\nv 1 5\nv 2 7\ne 1 9\n", 4),
            ("p wis 2 1\nv 1 5\nv 2 7\ne one 2\n", 4),
            ("p wis 2 1\nv 1 5\nv 1 7\ne 1 2\n", 3),
            ("p wis 2 1\np wis 2 1\n", 2),
            ("v 1 5\n", 1),
            ("p wis 2 1\nq 1 2\n", 2),
            ("p twis 2 1\n", 1),
            ("p wis -1 0\n", 1),
            ("p wis 2 -1\n", 1),
            ("p wis 2 0\nv 1\n", 2),
            ("p wis 2 0\nv 1 5 7\n", 2),
            ("e 1 2\np wis 2 1\n", 1),
            ("p wis 2 1\nv 1 5\nv 2 7\ne 1\n", 4),
            ("p wis 2 1\nv 1 5\nv 2 7\ne 1 2 3\n", 4),
            ("p wis 2 0\nv 1 1_000\nv 2 7\n", 2),
            ("p wis 2 0\nv 1 \uff15\nv 2 7\n", 2),
            ("p wis 2 0\nv 1 +5\nv 2 7\n", 2),
            ("p wis 2 0\nv +1 5\nv 2 7\n", 2),
            ("p wis 1_0 0\n", 1),
        ],
    )
    def test_bad_lines_carry_their_number(self, text, line, wis_file, capsys):
        with pytest.raises(ParseError) as info:
            parse_graph(text)
        assert info.value.line == line
        assert run(["solve", wis_file(text)]) == 3
        assert capsys.readouterr().err == f"error: {info.value}\n"

    @pytest.mark.parametrize(
        "text",
        [
            "v 0 5\n# no problem line at all\n" "",
            "p wis 2 1\nv 1 5\ne 1 2\n",
            "p wis 2 2\nv 1 5\nv 2 7\ne 1 2\n",
            "# a comment, but no problem line\n",
            "",
        ],
    )
    def test_missing_declarations(self, text, wis_file, capsys):
        with pytest.raises(ParseError):
            parse_graph(text)
        assert run(["solve", wis_file(text)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_the_first_missing_vertex_is_named(self):
        with pytest.raises(ParseError, match="^vertex 2 has no weight line$"):
            parse_graph("p wis 3 0\nv 3 7\nv 1 5\n")

    def test_a_declared_count_allocates_nothing_before_the_vertex_lines(self):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="^vertex 1 has no weight line$"):
                parse_graph("p wis 1000000 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_round_trip_random_instances(self):
        rng = XorShift64Star(5)
        for i in range(15):
            g = gen_instance(
                model="clustered" if i % 2 else "rejection",
                n=4 + rng.below(14),
                density=0.3 + 0.05 * rng.below(9),
                seed=100 + i,
            )
            assert parse_graph(format_graph(g)) == g

    def test_format_of_hand_built_graph(self):
        g = Graph.from_edges(3, [(0, 2)], weights=[4, 0, 9])
        assert format_graph(g) == "p wis 3 1\nv 1 4\nv 2 0\nv 3 9\ne 1 3\n"


@pytest.fixture()
def wis_file(tmp_path):
    def write(text: str, name: str = "g.wis") -> str:
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestMainProcess:
    """``python -m p4p4free.cli`` exits with the code ``run`` returns and
    writes what it writes."""

    @pytest.mark.parametrize(
        "text, command, code, out, err",
        [
            (PATH4, ["solve"], 0, "weight 2\nvertices 1 3\n", ""),
            (
                TRIANGLE,
                ["solve"],
                2,
                "",
                "class violation: graph contains a triangle\nwitness triangle 1 2 3\n",
            ),
            (None, ["solve"], 3, "", "error: cannot read {}: No such file or directory\n"),
            # a perfect matching the oracle recursed on past Python's limit
            (
                format_graph(Graph.from_edges(2400, [(v, v + 1) for v in range(0, 2400, 2)])),
                ["oracle", "--guard-n", "3000"],
                4,
                "",
                "error: oracle_wis called on 2400 vertices (guard is 500)\n",
            ),
        ],
        ids=["member", "triangle", "missing-file", "oracle-past-the-recursion-ceiling"],
    )
    def test_exit_code_and_streams_are_those_of_run(
        self, tmp_path, capsys, text, command, code, out, err
    ):
        path = tmp_path / "g.wis"
        if text is not None:
            path.write_text(text)
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "p4p4free.cli", *command, str(path)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == code
        assert done.stdout == out
        assert done.stderr == err.format(path)
        assert run([*command, str(path)]) == code
        assert capsys.readouterr() == (done.stdout, done.stderr)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_reader_closing_early_ends_it_as_it_ends_cat(self, tmp_path, fmt):
        # the answer is one line of about 110 KB, more than a pipe holds,
        # so the write meets the closed end: the process ends by SIGPIPE,
        # with no traceback and not with exit code 1, an internal fault
        path = tmp_path / "edgeless.wis"
        path.write_text(format_graph(Graph.from_edges(20_000, [])))
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "p4p4free.cli", "solve", "--format", fmt, str(path)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            bufsize=0,
        )
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert err == b""
        assert proc.returncode == -signal.SIGPIPE


class TestRun:
    def test_solve_single_edge(self, wis_file, capsys):
        assert run(["solve", wis_file(TWO)]) == 0
        out = capsys.readouterr().out
        assert out == "weight 7\nvertices 2\n"

    def test_solve_json_schema(self, wis_file, capsys):
        assert run(["solve", wis_file(TWO), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"independent": True, "vertices": [2], "weight": 7}

    def test_solve_json_is_byte_identical_across_jobs(self, wis_file, capsys):
        path = wis_file(format_graph(gen_instance("clustered", 14, 0.5, 21)))
        outs = []
        for jobs in ("1", "2", "1"):
            assert run(["solve", path, "--jobs", jobs, "--format", "json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]

    def test_check_member(self, wis_file, capsys):
        assert run(["check", wis_file(TWO)]) == 0
        assert capsys.readouterr().out == "MEMBER\n"

    def test_check_two_paths_not_member(self, wis_file, capsys):
        assert run(["check", wis_file(TWO_PATHS)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("NOT_MEMBER\n")
        assert "witness p4_pair 1 2 3 4 / 5 6 7 8" in out

    def test_check_with_a_witness_that_does_not_hold_exits_1(
        self, wis_file, capsys, monkeypatch
    ):
        # 0, 1, 2 is a path of the file's graph, not a triangle
        bogus = MembershipVerdict(False, triangle=(0, 1, 2))
        monkeypatch.setattr(cli, "is_class_member", lambda g: bogus)
        assert run(["check", wis_file(TWO_PATHS)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal error: refusal witness does not hold")

    def test_solve_two_paths_exits_2(self, wis_file, capsys):
        assert run(["solve", wis_file(TWO_PATHS)]) == 2
        err = capsys.readouterr().err
        assert "witness p4_pair" in err

    def test_solve_triangle_exits_2(self, wis_file, capsys):
        assert run(["solve", wis_file(TRIANGLE)]) == 2
        assert "witness triangle 1 2 3" in capsys.readouterr().err

    def test_internal_fault_on_a_member_exits_1(self, wis_file, capsys, monkeypatch):
        def broken(g, home, rest_mask):
            raise StructureViolation("internal", ("side_split_blocks", ()))

        monkeypatch.setattr(solver, "_solve_all", broken)
        assert run(["solve", wis_file(PATH4)]) == 1
        assert capsys.readouterr().err == "internal error: internal\n"

    def test_refusal_inside_the_branching_of_a_member_exits_1(
        self, wis_file, capsys, monkeypatch
    ):
        def bogus(*args):
            raise ClassViolation("bogus", ("unexpected_p4", (0, 1, 2, 3)))

        monkeypatch.setattr(solver, "_solve_containing", bogus)
        assert run(["solve", wis_file(PATH4)]) == 1
        assert capsys.readouterr().err == (
            "internal error: class member refused: bogus\n"
        )

    def test_failed_self_certification_exits_1(self, wis_file, capsys, monkeypatch):
        def dependent(g, x, y, s_b, s_d, s_bd, anti, leaves, memo, opt):
            # the whole graph, weighed as such, outweighs every candidate
            return g.weight_of(g.full_mask), g.full_mask

        monkeypatch.setattr(solver, "_solve_containing", dependent)
        assert run(["solve", wis_file(PATH4)]) == 1
        assert capsys.readouterr().err == (
            "internal error: self-certification failed: "
            "vertex 0 has a chosen neighbor\n"
        )

    @staticmethod
    def shift_oracle(monkeypatch, by):
        # every answer of solve's optimum oracle off by the same amount
        real = solver._optimum_oracle

        def shifted(g, home):
            opt = real(g, home)
            return lambda mask: opt(mask) + by

        monkeypatch.setattr(solver, "_optimum_oracle", shifted)

    def test_a_best_above_the_top_exits_1(self, wis_file, capsys, monkeypatch):
        # the path's optimum is 2: a top of 1 is one no candidate weighs, so
        # the loop does not stop and its best ends above the top
        self.shift_oracle(monkeypatch, -1)
        assert run(["solve", wis_file(PATH4)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "internal error: the best candidate weighs 2, above home's upper bound 1\n"
        )

    def test_a_best_below_the_top_exits_1(self, wis_file, capsys, monkeypatch):
        # a top of 3 that no candidate reaches: the best ends below it
        self.shift_oracle(monkeypatch, 1)
        assert run(["solve", wis_file(PATH4)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "internal error: the best candidate weighs 2, below home's optimum 3\n"
        )

    def test_solve_refuses_with_the_witness_check_prints(self, wis_file, capsys):
        # draw 31 of the non-member fuzz family: the least triangle lies in
        # the first path's component, a second path in another component
        path = wis_file(format_graph(random_graph(900_031, 15, 0.17)))
        assert run(["solve", path]) == 2
        refused = capsys.readouterr().err.splitlines()
        assert run(["check", path]) == 0
        checked = capsys.readouterr().out.splitlines()
        assert refused[-1] == checked[-1] == "witness triangle 3 14 15"

    def test_depth_budget_overrun_on_a_member_exits_1(
        self, wis_file, capsys, monkeypatch
    ):
        original = split_solver._solve_raw

        def deep(g, s_mask, t_mask, host, depth, *rest):
            return original(g, s_mask, t_mask, host, depth + g.n + 9, *rest)

        monkeypatch.setattr(split_solver, "_solve_raw", deep)
        assert run(["solve", wis_file(PATH4)]) == 1
        err = capsys.readouterr().err
        assert err == "internal error: branching recursion exceeded its depth budget\n"

    def test_check_triangle_json(self, wis_file, capsys):
        assert run(["check", wis_file(TRIANGLE), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "member": False,
            "witness": {"kind": "triangle", "vertices": [1, 2, 3]},
        }

    def test_oracle_matches_solve_on_generated_file(self, wis_file, capsys):
        path = wis_file(format_graph(gen_instance("rejection", 13, 0.5, 8)))
        assert run(["solve", path, "--format", "json"]) == 0
        solved = json.loads(capsys.readouterr().out)
        assert run(["oracle", path, "--format", "json"]) == 0
        reference = json.loads(capsys.readouterr().out)
        assert solved["weight"] == reference["weight"]

    def test_oracle_guard_exits_4(self, wis_file, capsys):
        path = wis_file(format_graph(gen_instance("clustered", 34, 0.5, 3)))
        assert run(["oracle", path]) == 4
        assert "guard" in capsys.readouterr().err

    def test_oracle_guard_can_be_raised(self, wis_file, capsys):
        path = wis_file(format_graph(gen_instance("clustered", 34, 0.5, 3)))
        assert run(["oracle", path, "--guard-n", "40"]) == 0

    def test_negative_oracle_guard_exits_3(self, wis_file, capsys):
        for text in ("p wis 0 0\n", TWO):
            assert run(["oracle", wis_file(text), "--guard-n", "-1"]) == 3
            assert "guard must be non-negative" in capsys.readouterr().err

    def test_parse_error_exits_3(self, wis_file, capsys):
        assert run(["solve", wis_file("p wis 1 0\nv 1 1\ne 1 1\n")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_3(self, capsys):
        assert run(["solve", "/nonexistent/g.wis"]) == 3
        assert "cannot read" in capsys.readouterr().err

    def test_file_not_utf8_exits_3(self, tmp_path, capsys):
        path = tmp_path / "g.wis"
        path.write_bytes(b"p wis 1 0\nv 1 \xff\n")
        assert run(["solve", str(path)]) == 3
        assert "not UTF-8 text" in capsys.readouterr().err

    def test_bad_flag_exits_3(self, wis_file, capsys):
        assert run(["solve", wis_file(TWO), "--format", "yaml"]) == 3
        capsys.readouterr()

    def test_gen_round_trips(self, capsys):
        assert run(["gen", "--n", "16", "--density", "0.6", "--seed", "9"]) == 0
        text = capsys.readouterr().out
        assert parse_graph(text) == gen_instance("clustered", 16, 0.6, 9)

    def test_gen_takes_no_format(self, capsys):
        # gen prints a graph file, whatever the format
        assert run(["gen", "--n", "14", "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --format json" in captured.err

    def test_gen_rejection_model(self, capsys):
        assert run(["gen", "--n", "10", "--model", "rejection"]) == 0
        g = parse_graph(capsys.readouterr().out)
        assert g.n == 10

    def test_gen_rejection_without_a_member_exits_3(self, capsys):
        argv = ["gen", "--n", "30", "--density", "0.5", "--seed", "7", "--model", "rejection"]
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: rejection model found no member in 1000 attempts" in captured.err

    def test_cover_reports_family(self, wis_file, capsys):
        path = wis_file("p wis 4 3\nv 1 1\nv 2 1\nv 3 1\nv 4 1\ne 1 2\ne 2 3\ne 3 4\n")
        assert run(["cover", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["weight"] == 2
        assert payload["size"] == len(payload["members"])
        assert payload["bipartite_members"] == payload["size"]
        assert [1, 3] in payload["members"]

    def test_cover_of_repeated_pairs_is_bipartite_and_covers(self, wis_file, capsys):
        # a C5 blow-up with classes of 3: 405 induced P4s on 45 pairs, so
        # the cover skips most of its draws
        g = blowup_graph(5, 3, seed=503)
        paths = enumerate_induced_p4(g)
        pairs = {1 << p.a | 1 << p.c for p in paths} | {1 << p.b | 1 << p.d for p in paths}
        assert len(pairs) < len(paths)
        assert run(["cover", wis_file(format_graph(g)), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["weight"] == blowup_optimum(g, 5)
        assert payload["bipartite_members"] == payload["size"] == len(payload["members"])
        members = [set(m) for m in payload["members"]]
        for s in enumerate_maximal_is(g):
            assert any({v + 1 for v in s} <= m for m in members), s

    def test_cover_text_lists_members(self, wis_file, capsys):
        assert run(["cover", wis_file(TWO)]) == 0
        out = capsys.readouterr().out
        assert "members 1\n" in out
        assert "member 1 2\n" in out
        assert "bipartite 1/1\n" in out

    def test_bench_rows(self, capsys):
        assert run(["bench", "--n", "10,14", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["n"] for row in rows] == [10, 14]
        for row in rows:
            assert row["time_s"] >= 0
            assert row["check_s"] >= 0
            assert row["weight"] > 0

    def test_bench_bad_sizes_exit_3(self, capsys):
        assert run(["bench", "--n", "10,x"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("sizes", ["1_4", "+14", "１４", "", "10,,14", "10,"])
    def test_bench_sizes_are_ascii_integers(self, capsys, sizes):
        # int() alone took "1_4", "+14" and "１４" as 14, and "" ran no size
        assert run(["bench", "--n", sizes]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --n must be comma-separated integers, got {sizes!r}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n", "1_0"],
            ["gen", "--n", "５"],
            ["gen", "--seed", "+3"],
            ["bench", "--seed", "٣"],
            ["oracle", "-", "--guard-n", "1_0"],
            ["solve", "-", "--jobs", "２"],
            ["cover", "-", "--jobs", "+1"],
            ["bench", "--jobs", "1.0"],
        ],
        ids=[
            "gen_n_underscore",
            "gen_n_fullwidth",
            "gen_seed_plus",
            "bench_seed_arabic",
            "oracle_guard_underscore",
            "solve_jobs_fullwidth",
            "cover_jobs_plus",
            "bench_jobs_float",
        ],
    )
    def test_integer_options_are_ascii_integers(self, capsys, argv):
        # int() alone took each of these, and the command ran
        assert run(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: argument {argv[-2]}: expected an integer, got {argv[-1]!r}\n"

    @pytest.mark.parametrize("command", ["gen", "bench"])
    @pytest.mark.parametrize("density", ["٠.٥", "0.2_5", "1e-1", "nan", "+0.5", "0.5."])
    def test_density_is_an_ascii_decimal(self, capsys, command, density):
        # float() alone took each of these but the last
        assert run([command, "--density", density]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: argument --density: expected a decimal number, got {density!r}\n"

    @pytest.mark.parametrize("density", [".6", "0.6", "0.60"])
    def test_density_takes_plain_decimals(self, capsys, density):
        assert run(["gen", "--n", "12", "--density", density, "--seed", "3"]) == 0
        assert parse_graph(capsys.readouterr().out) == gen_instance("clustered", 12, 0.6, 3)

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(TWO.encode())))
        assert run(["solve", "-"]) == 0
        assert capsys.readouterr().out == "weight 7\nvertices 2\n"

    def test_stdin_not_utf8_exits_3(self, capsys, monkeypatch):
        data = b"p wis 1 0\nv 1 \xff\n"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert run(["solve", "-"]) == 3
        assert capsys.readouterr().err == "error: cannot read -: not UTF-8 text\n"
