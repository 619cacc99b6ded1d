"""The size count of ``tools/code_lines.py``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_are_not_code():
    source = '''"""Module docstring,
over two lines."""

# a comment
X = 1  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return (
            1
        )


TEXT = """a string
that is not a docstring"""
'''
    # X, class, def, return ( 1 ), and the two lines of TEXT
    assert _tool().code_lines(source) == 1 + 1 + 1 + 3 + 2


def test_the_package_prints_every_module_and_the_total(capsys):
    assert _tool().main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = {name: int(count) for name, count in rows}
    modules = {p.stem for p in (TOOL.parents[1] / "src" / "p4p4free").glob("*.py")}
    assert set(counts) == modules | {"total"}
    assert counts["total"] == sum(counts[m] for m in modules)
    assert rows[-1][0] == "total"
