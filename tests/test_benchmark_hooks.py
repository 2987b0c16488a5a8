"""The names the benchmark harness reads from minimal2 must exist.

``perfbench/spans.py`` wraps the functions listed in its ``LAYERS`` when a
run is traced, and ``perfbench/worker.py`` records
``minimal2.kernels._USE_NUMBA``.  A deletion or rename that would break
``perfbench/run.py --trace 1`` fails here instead.  The spans module is
loaded by path and nothing is wrapped.

The trace counts census pops as ``OpenSubgroup.own_digest`` calls and kept
nodes as ``conjugacy_digests`` calls, so the census must make exactly one
of each per candidate and per kept node for those counters to keep their
meaning.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import minimal2
from minimal2 import minimality
from minimal2.subgroups import OpenSubgroup

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


# Counts for census(16, 24), which expands a node of rank r and index idx
# only when idx * 2^(r-2) is within the index bound.  own_digest is called
# once per popped candidate and conjugacy_digests once per kept node.
CENSUS_16_24_CANDIDATES = 125
CENSUS_16_24_KEPT = 63
# Children built (Schreier generators taken) after the seen test at
# creation.
CENSUS_16_24_BUILT = 78


def test_census_digest_calls_count_candidates_and_kept_nodes(monkeypatch):
    own, orbits, built = [], [], []
    own_digest = OpenSubgroup.own_digest
    conjugacy_digests = OpenSubgroup.conjugacy_digests
    schreier_generators = minimality.schreier_generators

    def count_own(self):
        own.append(None)
        return own_digest(self)

    def count_orbits(self):
        orbits.append(conjugacy_digests(self))
        return orbits[-1]

    def count_built(*args):
        built.append(None)
        return schreier_generators(*args)

    monkeypatch.setattr(OpenSubgroup, "own_digest", count_own)
    monkeypatch.setattr(OpenSubgroup, "conjugacy_digests", count_orbits)
    monkeypatch.setattr(minimality, "schreier_generators", count_built)
    minimality.census(16, 24)
    assert len(own) == CENSUS_16_24_CANDIDATES
    assert len(orbits) == CENSUS_16_24_KEPT
    assert len(built) == CENSUS_16_24_BUILT
    # each kept node is a new conjugacy class: its orbit is disjoint from
    # every orbit before it
    union = set()
    for digests in orbits:
        assert union.isdisjoint(digests)
        union |= digests
