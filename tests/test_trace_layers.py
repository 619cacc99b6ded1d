"""The benchmark's per-layer tracer still finds every function it wraps.

``perfbench/layers.py`` wraps package functions by name from outside the
package; a renamed or deleted function makes ``perfbench/run.py --trace 1``
fail with an AttributeError.  The module is loaded from its file and only
read, never changed.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import p4p4free

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no bytecode cache beside it
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_wrapped_name_resolves():
    for mod_name, fn_name in _load_layers().WRAPPED:
        module = importlib.import_module(f"p4p4free.{mod_name}")
        assert callable(getattr(module, fn_name, None)), (mod_name, fn_name)


def test_tracer_installs_and_uninstalls():
    layers = _load_layers()
    before = {
        (m, f): getattr(importlib.import_module(f"p4p4free.{m}"), f)
        for m, f in layers.WRAPPED
    }
    tracer = layers.Tracer()
    tracer.install(p4p4free)
    try:
        assert p4p4free.solve(p4p4free.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])).weight == 2
        assert tracer.stats["solver.solve"].calls == 1
    finally:
        tracer.uninstall()
    for (m, f), fn in before.items():
        assert getattr(importlib.import_module(f"p4p4free.{m}"), f) is fn
