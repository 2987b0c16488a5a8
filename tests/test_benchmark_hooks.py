"""The names the benchmark harness reads from minimal2 must exist.

``perfbench/spans.py`` wraps the functions listed in its ``LAYERS`` when a
run is traced, and ``perfbench/worker.py`` records
``minimal2.kernels._USE_NUMBA``.  A deletion or rename that would break
``perfbench/run.py --trace 1`` fails here instead.  The spans module is
loaded by path and nothing is wrapped.

The workloads, the worker and the self-test read further names, such as
``lie2adic.PrecisionMatrix.from_entries``.  The workloads run each
operation through ``_try``, which counts a missing name as a failed
operation rather than stopping the run, so every attribute path those
files read from minimal2 (found by walking their syntax trees) must
resolve here.

The trace counts census pops as ``OpenSubgroup.own_digest`` calls and kept
nodes as ``conjugacy_digests`` calls, so the census must make exactly one
of each per candidate and per kept node for those counters to keep their
meaning.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import minimal2
from minimal2 import minimality
from minimal2.subgroups import OpenSubgroup

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
READERS = ("workloads.py", "worker.py", "selftest.py")


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


def minimal2_paths(source: str) -> set[str]:
    """Dotted paths, from minimal2, of every attribute chain in the source
    whose root name is bound by ``import minimal2`` or ``from minimal2
    import ...``."""
    tree = ast.parse(source)
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update((a.asname or "minimal2", "minimal2") for a in node.names
                         if a.name.split(".")[0] == "minimal2")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "minimal2"):
            roots.update((a.asname or a.name, f"{node.module}.{a.name}")
                         for a in node.names)
    paths = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in roots:
            paths.add(".".join([roots[node.id], *reversed(parts)]))
    return paths


READ_PATHS = sorted(set().union(*(minimal2_paths((PERFBENCH / name).read_text())
                                  for name in READERS)))


def test_reader_walk_finds_known_paths():
    for path in ("minimal2.lie2adic.PrecisionMatrix.from_entries",
                 "minimal2.modcurve.label", "minimal2.kernels._USE_NUMBA",
                 "minimal2.minimality.census"):
        assert path in READ_PATHS


@pytest.mark.parametrize("path", READ_PATHS)
def test_read_path_resolves(path):
    target = importlib.import_module("minimal2")
    for attr in path.split(".")[1:]:
        target = getattr(target, attr)


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
