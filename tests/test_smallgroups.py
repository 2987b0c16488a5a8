"""Cayley-table engine for small matrix groups."""

import hashlib
import math

import numpy as np
import pytest

from minimal2 import kernels, minimality
from minimal2.minimality import SYLOW_PRO2_GENERATORS
from minimal2.smallgroups import FiniteGroupTable
from minimal2.subgroups import ambient_generators, sylow_subgroup


@pytest.fixture(scope="module")
def gl2_f3():
    return FiniteGroupTable.from_generators(ambient_generators(3, 3), 3)


def one_closure_per_candidate(table, base_idx=None):
    """Subgroup classes by one closure <S, x> for every candidate x outside
    each stored S: the enumeration before double cosets were skipped."""
    base_gens = [int(v) for v in (base_idx or [])]
    base = table.closure_indices(base_gens)
    candidates = table.prime_power_order_indices()
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
        idx = gl2_f3.prime_power_order_indices()
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

    def test_cyclic_generators(self, gl2_f3):
        t = gl2_f3
        orders = t.orders()
        for x, ys in enumerate(t.cyclic_generators()):
            o = int(orders[x])
            assert len(ys) == sum(math.gcd(k, o) == 1 for k in range(1, o + 1))
            assert ys[0] == x
            cyc = t.closure_indices([x])
            assert len(cyc) == o
            for y in ys.tolist():
                assert np.array_equal(t.closure_indices([y]), cyc)

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
        base_idx = None
        if base_order is not None:
            base_idx = [int(np.flatnonzero(table.orders() == base_order)[0])]
        got = table.subgroup_classes(base_idx)
        want = one_closure_per_candidate(table, base_idx)
        assert len(got) == len(want) == count
        for (idx, gens), (want_idx, want_gens) in zip(got, want):
            assert idx.dtype == want_idx.dtype
            assert np.array_equal(idx, want_idx)
            assert gens == want_gens

    def test_one_closure_per_double_coset_in_the_p5_falsifier(self, monkeypatch):
        # one closure per candidate element made 11718 calls, one per double
        # coset S x S made 1233; covering S y S for every generator y of <x>
        # makes 726
        calls = []
        real = FiniteGroupTable.closure_indices

        def spy(self, gen_idx, sub=None):
            calls.append(len(gen_idx))
            return real(self, gen_idx, sub)

        monkeypatch.setattr(FiniteGroupTable, "closure_indices", spy)
        rep = minimality.falsify_odd_prime(5)
        assert rep.subgroup_classes == 48
        assert len(calls) == 726

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
    # lattice_digest of the classes, recorded when each extension was still
    # a plain closure and one closure ran per double coset S x S
    LATTICE_SHA256 = "88f7183dab1698c64a1fe4f040e244f6fb532228c93bd22f42b67b25b0762668"
    ORDER3_SHA256 = "ae03bc7127d8d17bde290ebcb1b3ae1dd6098d42f084590072c700a940308a07"

    def test_lattice_is_pinned(self, gl2_z8_lattice):
        assert len(gl2_z8_lattice) == 2265
        assert all(idx.dtype == np.int32 for idx, _ in gl2_z8_lattice)
        assert lattice_digest(gl2_z8_lattice) == self.LATTICE_SHA256

    def test_classes_over_an_order3_element_are_pinned(self, gl2_z8_table):
        # the base of minimality.verify_non_two_group_witness
        y0 = int(np.flatnonzero(gl2_z8_table.orders() == 3)[0])
        classes = gl2_z8_table.subgroup_classes(base_idx=[y0])
        assert len(classes) == 105
        assert lattice_digest(classes) == self.ORDER3_SHA256
