"""Command-line surface: graph files in, results out.

Graph file format (whitespace-separated, 1-based vertex ids):

    p wis <n> <m>      one problem line first
    v <id> <weight>    n vertex lines, nonnegative integer weights
    e <u> <v>          m edge lines; duplicates collapse, self-loops rejected
    # ...              comment lines are ignored

Commands: solve, check, oracle, cover, gen, bench.  gen prints a graph
file; the others print text or, with --format json, one deterministic
JSON line (sorted keys).  Exit codes are part of the contract: 0 success, 1 an internal
fault on a graph the recognizer accepts, 2 the graph is outside the
supported class (witness printed), 3 unusable input (bad file, bad flags),
4 an exponential helper exceeded its size guard.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from .errors import (
    ClassViolation,
    GuardError,
    InputError,
    ParseError,
    StructureViolation,
)
from .graph import Graph, bits, components_with_certificates
from .recognition import is_class_member, verified_member
from .solver import solve, solve_with_cover
from .testkit import gen_instance, oracle_wis

__all__ = ["parse_graph", "format_graph", "run", "main"]


def _int_field(text: str, lineno: int | None) -> int:
    # int() alone would also take "+5", "1_000" and non-ASCII digits
    if re.fullmatch("-?[0-9]+", text) is None:
        raise ParseError(f"expected an integer, got {text!r}", lineno)
    return int(text)


def _int_option(text: str) -> int:
    """An integer option, by ``_int_field``'s ASCII rule."""
    try:
        return _int_field(text, None)
    except ParseError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _decimal_option(text: str) -> float:
    """A decimal option: ASCII digits with at most one point (float()
    alone would also take "0.2_5", "1e-1", "nan" and non-ASCII digits)."""
    if re.fullmatch(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)", text) is None:
        raise argparse.ArgumentTypeError(f"expected a decimal number, got {text!r}")
    return float(text)


def parse_graph(text: str) -> Graph:
    """Graph from the file format above.

    Raises:
        ParseError: malformed line, id out of range, negative weight,
            self-loop, missing or duplicated declarations; carries the
            1-based line number where applicable.
    """
    n = -1
    declared_edges = -1
    # only the ids the file names: a declared n allocates nothing
    weights: dict[int, int] = {}
    edges: set[tuple[int, int]] = set()
    edge_lines = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "p":
            if n >= 0:
                raise ParseError("duplicate problem line", lineno)
            if len(fields) != 4 or fields[1] != "wis":
                raise ParseError(
                    "problem line must read 'p wis <n> <m>'", lineno
                )
            n = _int_field(fields[2], lineno)
            declared_edges = _int_field(fields[3], lineno)
            if n < 0 or declared_edges < 0:
                raise ParseError("counts must be nonnegative", lineno)
        elif kind == "v":
            if n < 0:
                raise ParseError("vertex line before the problem line", lineno)
            if len(fields) != 3:
                raise ParseError("vertex line must read 'v <id> <weight>'", lineno)
            vid = _int_field(fields[1], lineno)
            w = _int_field(fields[2], lineno)
            if not 1 <= vid <= n:
                raise ParseError(f"vertex id {vid} out of range 1..{n}", lineno)
            if vid in weights:
                raise ParseError(f"vertex {vid} declared twice", lineno)
            if w < 0:
                raise ParseError("weights must be nonnegative", lineno)
            weights[vid] = w
        elif kind == "e":
            if n < 0:
                raise ParseError("edge line before the problem line", lineno)
            if len(fields) != 3:
                raise ParseError("edge line must read 'e <u> <v>'", lineno)
            u = _int_field(fields[1], lineno)
            v = _int_field(fields[2], lineno)
            for vid in (u, v):
                if not 1 <= vid <= n:
                    raise ParseError(
                        f"vertex id {vid} out of range 1..{n}", lineno
                    )
            if u == v:
                raise ParseError("self-loops are not allowed", lineno)
            edges.add((min(u, v) - 1, max(u, v) - 1))
            edge_lines += 1
        else:
            raise ParseError(f"unknown line type {kind!r}", lineno)
    if n < 0:
        raise ParseError("missing problem line")
    if len(weights) < n:
        missing = next(vid for vid in range(1, n + 1) if vid not in weights)
        raise ParseError(f"vertex {missing} has no weight line")
    if edge_lines != declared_edges:
        raise ParseError(
            f"problem line declares {declared_edges} edges, file has {edge_lines}"
        )
    ordered = [weights[vid] for vid in range(1, n + 1)]
    return Graph.from_edges(n, sorted(edges), ordered)


def format_graph(g: Graph) -> str:
    """The graph rendered in the file format; parses back to an equal graph."""
    edges = list(g.edges())
    lines = [f"p wis {g.n} {len(edges)}"]
    lines += [f"v {v + 1} {w}" for v, w in enumerate(g.weights)]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def _ids(vertices) -> list[int]:
    return [v + 1 for v in vertices]


def _witness_line(witness: tuple) -> str:
    """The line naming a ``ClassViolation``'s witness, 1-based: a
    triangle's ids, or a P4 pair's two paths split by " / "."""
    kind, body = witness
    paths = body if isinstance(body[0], tuple) else (body,)
    return f"witness {kind} " + " / ".join(" ".join(map(str, _ids(p))) for p in paths)


def _emit(args, text_lines: list[str], payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _read_graph(args) -> Graph:
    try:
        if args.file == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(args.file, "rb") as handle:
                data = handle.read()
        text = data.decode("utf-8")
    except OSError as err:
        raise ParseError(f"cannot read {args.file}: {err.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {args.file}: not UTF-8 text") from None
    return parse_graph(text)


def _result_lines(res) -> list[str]:
    return [
        f"weight {res.weight}",
        "vertices " + " ".join(str(v) for v in _ids(res.chosen)),
    ]


def _result_payload(res) -> dict:
    return {
        "weight": res.weight,
        "vertices": _ids(res.chosen),
        "independent": True,
    }


def _cmd_solve(args) -> int:
    res = solve(_read_graph(args), jobs=args.jobs)
    _emit(args, _result_lines(res), _result_payload(res))
    return 0


def _cmd_oracle(args) -> int:
    res = oracle_wis(_read_graph(args), guard=args.guard_n)
    _emit(args, _result_lines(res), _result_payload(res))
    return 0


def _cmd_check(args) -> int:
    g = _read_graph(args)
    # the refusal solve and cover would raise: its witness is re-checked,
    # and one that does not hold leaves as a StructureViolation
    try:
        with verified_member(g, is_class_member(g)):
            _emit(args, ["MEMBER"], {"member": True})
            return 0
    except ClassViolation as err:
        refusal = err
    kind, body = refusal.witness
    if kind == "triangle":
        detail = {"vertices": _ids(body)}
    else:
        detail = {"first": _ids(body[0]), "second": _ids(body[1])}
    _emit(
        args,
        ["NOT_MEMBER", _witness_line(refusal.witness)],
        {"member": False, "witness": {"kind": kind, **detail}},
    )
    return 0


def _cmd_cover(args) -> int:
    g = _read_graph(args)
    res, fam = solve_with_cover(g, jobs=args.jobs)
    members = [sorted(_ids(bits(m))) for m in fam.members]
    # a member is bipartite when none of its components is uncertified
    bipartite = sum(1 for m in fam.members if not components_with_certificates(g, m)[1])
    lines = _result_lines(res)
    lines.append(f"members {len(members)}")
    lines += ["member " + " ".join(map(str, m)) for m in members]
    lines.append(f"bipartite {bipartite}/{len(members)}")
    payload = _result_payload(res)
    payload.update(
        size=len(members), members=members, bipartite_members=bipartite
    )
    _emit(args, lines, payload)
    return 0


def _cmd_gen(args) -> int:
    g = gen_instance(args.model, args.n, args.density, args.seed)
    sys.stdout.write(format_graph(g))
    return 0


def _cmd_bench(args) -> int:
    try:
        # an empty list splits to [""], which no size matches
        sizes = [_int_field(s, None) for s in args.n.split(",")]
    except ParseError:
        raise ParseError(f"--n must be comma-separated integers, got {args.n!r}") from None
    rows = []
    for n in sizes:
        g = gen_instance(args.model, n, args.density, args.seed)
        start = time.perf_counter()
        res = solve(g, jobs=args.jobs)
        solved = time.perf_counter()
        is_class_member(g)
        check_s = time.perf_counter() - solved
        times = {"time_s": round(solved - start, 4), "check_s": round(check_s, 4)}
        rows.append({"n": n, **times, "weight": res.weight})
    lines = [
        f"n={row['n']} time_s={row['time_s']:.4f} "
        f"check_s={row['check_s']:.4f} weight={row['weight']}"
        for row in rows
    ]
    _emit(args, lines, {"rows": rows})
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own code on usage errors; route them through
    # the parse-error exit code instead
    def error(self, message):
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )
    parser = _Parser(
        prog="p4p4free",
        description="exact maximum weight independent set on graphs with no "
        "triangle and no two independent induced four-vertex paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[common], help="optimal set of a graph file")
    p_solve.add_argument("file", help="graph file, or - for stdin")
    p_solve.add_argument("--jobs", type=_int_option, default=1)
    p_solve.set_defaults(fn=_cmd_solve)

    p_check = sub.add_parser("check", parents=[common], help="class membership with witness")
    p_check.add_argument("file", help="graph file, or - for stdin")
    p_check.set_defaults(fn=_cmd_check)

    p_oracle = sub.add_parser("oracle", parents=[common], help="guarded brute-force reference")
    p_oracle.add_argument("file", help="graph file, or - for stdin")
    p_oracle.add_argument("--guard-n", type=_int_option, default=30)
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_cover = sub.add_parser("cover", parents=[common], help="bipartite cover family")
    p_cover.add_argument("file", help="graph file, or - for stdin")
    p_cover.add_argument("--jobs", type=_int_option, default=1)
    p_cover.set_defaults(fn=_cmd_cover)

    p_gen = sub.add_parser("gen", help="emit a generated class member")
    p_gen.add_argument("--n", type=_int_option, default=30)
    p_gen.add_argument("--density", type=_decimal_option, default=0.5)
    p_gen.add_argument("--seed", type=_int_option, default=1)
    p_gen.add_argument("--model", choices=("clustered", "rejection"), default="clustered")
    p_gen.set_defaults(fn=_cmd_gen)

    p_bench = sub.add_parser("bench", parents=[common], help="timing table over generated sizes")
    p_bench.add_argument("--n", default="30,45,60", help="comma-separated sizes")
    p_bench.add_argument("--density", type=_decimal_option, default=0.5)
    p_bench.add_argument("--seed", type=_int_option, default=1)
    p_bench.add_argument("--model", choices=("clustered", "rejection"), default="clustered")
    p_bench.add_argument("--jobs", type=_int_option, default=1)
    p_bench.set_defaults(fn=_cmd_bench)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Execute one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ParseError, InputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except GuardError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except ClassViolation as err:
        print(f"class violation: {err}", file=sys.stderr)
        if err.witness is not None:
            print(_witness_line(err.witness), file=sys.stderr)
        return 2
    except StructureViolation as err:
        # the solvers let it out only on class members: a fault of ours
        print(f"internal error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
