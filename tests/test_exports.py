"""Every name the package and its modules export resolves.

A name left in an ``__all__`` after its definition was deleted breaks
``from p4p4free import *`` and misleads readers of the public surface.
"""

from __future__ import annotations

import importlib
import pkgutil

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
