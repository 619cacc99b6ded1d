"""The benchmark's per-layer tracer installs on the package and leaves it
as it found it.

``perfbench/layers.py`` wraps package functions by name from outside the
package (``tests/test_exports.py`` checks that every wrapped name
resolves).  The module is loaded from its file and only read, never
changed.
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
