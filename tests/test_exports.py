"""Every name the package and its modules export resolves.

A name left in an ``__all__`` after its definition was deleted breaks
``from p4p4free import *`` and misleads readers of the public surface;
a console script whose target is gone breaks the installed command, and a
traced name that moved or changed its leading parameters breaks the
benchmark's per-layer counters.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
import types
from pathlib import Path

import pytest

import p4p4free
from p4p4free import split_solver

MODULES = ["p4p4free"] + [
    f"p4p4free.{info.name}" for info in pkgutil.iter_modules(p4p4free.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [x for x in exported if not hasattr(module, x)] == []


def test_the_console_script_resolves():
    # pyproject.toml names the installed command's target; a plain text
    # match, since Python 3.10 has no tomllib
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    found = re.search(r'^p4p4free = "([\w.]+):(\w+)"$', text, re.MULTILINE)
    assert found is not None
    assert callable(getattr(importlib.import_module(found[1]), found[2]))


def test_every_traced_name_resolves():
    # perfbench/layers.py run from its source, so nothing is written beside it
    path = Path(__file__).parents[1] / "perfbench" / "layers.py"
    layers = types.ModuleType("layers")
    exec(compile(path.read_text(), str(path), "exec"), layers.__dict__)
    wrapped = layers.WRAPPED
    assert wrapped
    missing = [
        (mod, name)
        for mod, name in wrapped
        if not callable(getattr(importlib.import_module(f"p4p4free.{mod}"), name, None))
    ]
    assert missing == []


def test_solve_raw_keeps_the_positions_the_tracer_reads():
    # the tracer keys a call by args[1..3] and reads its depth from args[4]
    params = list(inspect.signature(split_solver._solve_raw).parameters)
    assert params[:5] == ["g", "s_mask", "t_mask", "host", "depth"]
