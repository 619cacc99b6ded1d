"""Every name the package and its modules export resolves.

A name left in an ``__all__`` after its definition was deleted breaks
``from p4p4free import *`` and misleads readers of the public surface;
a console script whose target is gone breaks the installed command.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import p4p4free

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
