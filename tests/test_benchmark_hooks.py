"""The names the benchmark harness reads from minimal2 must exist.

``perfbench/spans.py`` wraps the functions listed in its ``LAYERS`` when a
run is traced, and ``perfbench/worker.py`` records
``minimal2.kernels._USE_NUMBA``.  A deletion or rename that would break
``perfbench/run.py --trace 1`` fails here instead.  The spans module is
loaded by path and nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import minimal2

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("owner, attr",
                         [(owner, attr) for owner, attr, _, _ in load_spans().LAYERS])
def test_traced_layer_resolves(owner, attr):
    modname, _, cls = owner.partition(".")
    target = importlib.import_module("minimal2." + modname)
    if cls:
        target = getattr(target, cls)
    assert callable(getattr(target, attr))


def test_numba_flag_exists():
    assert hasattr(minimal2.kernels, "_USE_NUMBA")
