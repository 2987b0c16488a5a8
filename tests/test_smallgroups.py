"""Cayley-table engine for small matrix groups."""

import hashlib

import numpy as np
import pytest

from minimal2 import kernels
from minimal2.minimality import SYLOW_PRO2_GENERATORS
from minimal2.modmat import _prime_factors
from minimal2.smallgroups import FiniteGroupTable
from minimal2.subgroups import ambient_generators, sylow_subgroup


@pytest.fixture(scope="module")
def gl2_f3():
    return FiniteGroupTable.from_generators(ambient_generators(3, 3), 3)


def prime_power_order_indices(table) -> np.ndarray:
    """Indices of elements of prime-power order (identity excluded)."""
    return np.flatnonzero([len(_prime_factors(int(o))) == 1 for o in table.orders()])


def one_closure_per_candidate(table, base_idx=None):
    """Subgroup classes containing <base_idx> (all classes by default), by
    one closure <S, x> for every prime-power-order x outside each stored S.
    Extensions by prime-power elements reach every subgroup, since each
    element is a product of powers of itself of prime-power order."""
    base_gens = [int(v) for v in (base_idx or [])]
    base = table.closure_indices(base_gens)
    candidates = prime_power_order_indices(table)
    out = [(base, base_gens)]
    seen_sets = {base.astype(np.int32).tobytes()}
    seen_keys = {table.canonical_subgroup_key(base)}
    head = 0
    while head < len(out):
        sub, gens = out[head]
        head += 1
        members = set(int(i) for i in sub)
        for x in candidates:
            if int(x) in members:
                continue
            ext = table.closure_indices(gens + [int(x)])
            kb = ext.astype(np.int32).tobytes()
            if kb in seen_sets:
                continue
            seen_sets.add(kb)
            key = table.canonical_subgroup_key(ext)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            out.append((ext, gens + [int(x)]))
    return out


def commutator_subgroup(table, sub) -> np.ndarray:
    """<[a, b] : a, b in sub>, from every pair of elements."""
    sub = np.asarray(sub)
    ab = table.table[sub[:, None], sub]
    return table.closure_indices(np.unique(table.table[table.inverse[ab.T], ab]))


def lattice_digest(classes) -> str:
    """sha256 over each class's order, generator list and index bytes."""
    h = hashlib.sha256()
    for idx, gens in classes:
        h.update(f"{len(idx)} {gens}|".encode())
        h.update(np.asarray(idx, dtype="<i4").tobytes())
    return h.hexdigest()


class TestTableBasics:
    def test_order_and_identity(self, gl2_f3):
        assert gl2_f3.n == 48
        assert int(gl2_f3.elements[gl2_f3.identity]) == kernels.IDENTITY

    def test_rejects_non_closed_sets(self):
        elems = np.unique(np.array(
            [kernels.IDENTITY, kernels.pack(1, 1, 0, 1)], dtype=np.uint32))
        with pytest.raises(ValueError):
            FiniteGroupTable(elems, 3)

    def test_inverse_column(self, gl2_f3):
        t = gl2_f3
        for i in range(t.n):
            assert t.table[i, t.inverse[i]] == t.identity

    def test_orders_divide_group_order(self, gl2_f3):
        orders = gl2_f3.orders()
        assert int(orders[gl2_f3.identity]) == 1
        assert all(48 % int(o) == 0 for o in orders)

    def test_prime_power_order_indices(self, gl2_f3):
        # the candidates of the one_closure_per_candidate reference
        idx = prime_power_order_indices(gl2_f3)
        orders = gl2_f3.orders()[idx]
        for o in orders:
            o = int(o)
            while o % 2 == 0:
                o //= 2
            while o % 3 == 0:
                o //= 3
            assert o == 1 or int(orders[0]) == 1
        # elements of order 6 = 2*3 are excluded
        assert not (gl2_f3.orders()[idx] == 6).any()


class TestSubgroupMachinery:
    def test_closure_indices_identity(self, gl2_f3):
        got = gl2_f3.closure_indices([])
        assert list(got) == [gl2_f3.identity]

    def test_closure_indices_full_group(self, gl2_f3):
        got = gl2_f3.closure_indices(gl2_f3.generator_indices)
        assert len(got) == 48

    def test_det_image_of_sl2(self, gl2_f3):
        elems = gl2_f3.elements
        sl2 = elems[kernels.det_array(elems, 3) == 1]
        assert len(sl2) == 24
        assert kernels.det_image(sl2, 3, 3) == frozenset({1})
        assert kernels.det_image(elems, 3, 3) == frozenset({1, 2})

    @pytest.mark.parametrize("gens", [
        ambient_generators(2, 8),
        [kernels.pack(*g) for g in SYLOW_PRO2_GENERATORS],
    ], ids=["gl2_mod8", "sylow_mod8"])
    def test_det_image_matches_brute_force(self, gens):
        elems = kernels.closure(gens, 8)
        assert len(elems) in (1536, 512)
        for m in (2, 4, 8):
            want = set()
            for x in elems:
                a, b, c, d = kernels.unpack(int(x))
                want.add((a * d - b * c) % m)
            assert kernels.det_image(elems, 8, m) == want

    @pytest.mark.parametrize("p", [3, 5])
    def test_growth_from_a_subgroup_matches_the_plain_closure(self, p):
        table = FiniteGroupTable.from_generators(ambient_generators(p, p), p)
        rng = np.random.default_rng(p)
        for sub, gens in table.subgroup_classes():
            for x in rng.choice(table.n, size=4, replace=False).tolist():
                packed = kernels.closure(table.elements[gens + [x]], p)
                want = np.searchsorted(table.elements, packed)
                for got in (table.closure_indices(gens + [x]),
                            table.closure_indices(gens + [x], sub)):
                    assert got.dtype == np.int32
                    assert np.array_equal(got, want)

    def test_canonical_key_is_the_least_conjugate(self, gl2_f3):
        t = gl2_f3
        for sub, _gens in t.subgroup_classes():
            # x -> g x g^-1 for every element g, not only the generators
            conj = t.table[t.table[:, sub], t.inverse[:, None]]
            want = min(np.sort(row).astype(np.int32).tobytes() for row in conj)
            assert t.canonical_subgroup_key(sub) == want

    def test_canonical_key_invariant_under_conjugation(self, gl2_f3):
        t = gl2_f3
        some = t.closure_indices([t.generator_indices[0]])
        key = t.canonical_subgroup_key(some)
        for perm in t.conj_permutations():
            conj = np.sort(perm[some]).astype(np.int32)
            assert t.canonical_subgroup_key(conj) == key

    def test_subgroup_classes_of_gl2_f3(self, gl2_f3):
        classes = gl2_f3.subgroup_classes()
        assert len(classes) == 16
        sizes = sorted(len(idx) for idx, _ in classes)
        assert sizes[0] == 1 and sizes[-1] == 48
        for idx, gens in classes:
            assert np.array_equal(gl2_f3.closure_indices(gens), idx)
            assert 48 % len(idx) == 0

    @pytest.mark.parametrize("p, base_order, count",
                             [(3, None, 16), (5, None, 48), (5, 5, 18)],
                             ids=["3", "5", "5-over-order5"])
    def test_subgroup_classes_match_one_closure_per_candidate(self, p, base_order,
                                                              count):
        table = FiniteGroupTable.from_generators(ambient_generators(p, p), p)
        classes = table.subgroup_classes()
        base_idx = None
        if base_order is not None:
            # the classes containing an element of order base_order (prime)
            base_idx = [int(np.flatnonzero(table.orders() == base_order)[0])]
            classes = [c for c in classes if len(c[0]) % base_order == 0]
        want = one_closure_per_candidate(table, base_idx)
        got_keys = [table.canonical_subgroup_key(idx) for idx, _ in classes]
        assert len(classes) == len(want) == count
        assert set(got_keys) == {table.canonical_subgroup_key(idx) for idx, _ in want}
        # orbit-minimal representatives, sorted by (order, key)
        assert got_keys == [idx.tobytes() for idx, _ in classes]
        assert got_keys == sorted(got_keys, key=lambda k: (len(k), k))
        for idx, gens in classes:
            assert idx.dtype == np.int32
            packed = kernels.closure(table.elements[gens], p)
            assert np.array_equal(np.searchsorted(table.elements, packed), idx)

    def test_the_walk_builds_no_closure_at_p5(self, monkeypatch):
        # the cyclic-extension walk made 726 closures on GL_2(F_5); the
        # normal-extension walk makes none: every closure is in the derived
        # series (the seed SL_2(F_5)) or one per greedy generator
        table = FiniteGroupTable.from_generators(ambient_generators(5, 5), 5)
        calls = {"closure": 0, "orbit": 0, "extension": 0}
        real_closure = FiniteGroupTable.closure_indices
        real_orbit = FiniteGroupTable.conjugation_orbit

        def closure_spy(self, gen_idx, sub=None):
            calls["closure"] += 1
            return real_closure(self, gen_idx, sub)

        def orbit_spy(self, idx):
            calls["orbit"] += 1
            return real_orbit(self, idx)

        def concatenate_spy(*args, **kwargs):  # once per extension
            calls["extension"] += 1
            return real_concatenate(*args, **kwargs)

        real_concatenate = np.concatenate
        monkeypatch.setattr(FiniteGroupTable, "closure_indices", closure_spy)
        monkeypatch.setattr(FiniteGroupTable, "conjugation_orbit", orbit_spy)
        series = table.derived_series()
        in_series = calls["closure"]
        monkeypatch.setattr(np, "concatenate", concatenate_spy)
        classes = table.subgroup_classes()
        monkeypatch.undo()
        generators = sum(len(gens) for _, gens in classes)
        assert [len(sub) for sub, _ in series] == [480, 120]
        assert len(classes) == 48
        assert calls["closure"] - 2 * in_series == generators == 101
        assert in_series == 4
        assert calls["orbit"] == len(classes)  # one orbit walk per class
        # every element of an extension is covered, so no extension is
        # built twice from the same S
        assert calls["extension"] == 208

    def test_derived_series(self, gl2_f3, gl2_z8_table):
        gl2_f5 = FiniteGroupTable.from_generators(ambient_generators(5, 5), 5)
        want_orders = {3: [48, 24, 8, 2, 1], 5: [480, 120], 8: [1536, 192, 32, 2, 1]}
        for table in (gl2_f3, gl2_f5, gl2_z8_table):
            series = table.derived_series()
            assert [len(sub) for sub, _ in series] == want_orders[table.modulus]
            for (sub, _), (der, gens) in zip(series, series[1:]):
                assert np.array_equal(der, commutator_subgroup(table, sub))
                assert np.array_equal(table.closure_indices(gens), der)
            last = series[-1][0]  # 1, or perfect
            assert len(commutator_subgroup(table, last)) in (1, len(last))
        # SL_2(F_5) is the only perfect class of GL_2(F_5) besides 1
        perfect = [len(idx) for idx, _ in gl2_f5.subgroup_classes()
                   if len(commutator_subgroup(gl2_f5, idx)) == len(idx)]
        assert perfect == [1, 120]

    def test_refuses_a_table_whose_perfect_subgroups_are_not_known(self):
        # SL_2(F_7), of order 336, is past the bound below which 1 and the
        # last derived subgroup are the only perfect subgroups
        table = FiniteGroupTable.from_generators(ambient_generators(7, 7), 7)
        assert len(table.derived_series()[-1][0]) == 336
        with pytest.raises(ValueError, match="order 336"):
            table.subgroup_classes()

    def test_sylow_subgroup(self, gl2_f3):
        for q, size in ((2, 16), (3, 3), (5, 1)):
            syl = sylow_subgroup(gl2_f3.elements, 3, q)
            assert len(syl) == size
            assert kernels.in_sorted(syl, gl2_f3.elements).all()
            assert np.array_equal(kernels.closure(syl, 3), syl)

    def test_budget_cap(self):
        with pytest.raises(kernels.BudgetExceeded):
            FiniteGroupTable.from_generators(ambient_generators(2, 16), 16)


class TestLatticeAtLevel8:
    # lattice_digest of the classes: orbit-minimal representatives sorted by
    # (order, key), with greedy generator lists
    LATTICE_SHA256 = "bb330350f315f151ff12f18043cb794eaad5a8dbe05e67d0b146264e7b7987c5"
    ORDER3_SHA256 = "79a6af9baa9c5623ec318e00f7734701ab2d5d3af539643d6f9f089ffb759738"

    def test_lattice_is_pinned(self, gl2_z8_lattice):
        assert len(gl2_z8_lattice) == 2265
        assert all(idx.dtype == np.int32 for idx, _ in gl2_z8_lattice)
        assert lattice_digest(gl2_z8_lattice) == self.LATTICE_SHA256

    def test_classes_over_an_order3_element_are_pinned(self, gl2_z8_lattice):
        # the classes of minimality.verify_non_two_group_witness
        classes = [c for c in gl2_z8_lattice if len(c[0]) % 3 == 0]
        assert len(classes) == 105
        assert lattice_digest(classes) == self.ORDER3_SHA256
