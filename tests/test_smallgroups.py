"""Cayley-table engine for small matrix groups."""

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

    @pytest.mark.parametrize("p", [3, 5])
    def test_subgroup_classes_match_one_closure_per_candidate(self, p):
        table = FiniteGroupTable.from_generators(ambient_generators(p, p), p)
        got = table.subgroup_classes()
        want = one_closure_per_candidate(table)
        assert len(got) == len(want) == {3: 16, 5: 48}[p]
        for (idx, gens), (want_idx, want_gens) in zip(got, want):
            assert idx.dtype == want_idx.dtype
            assert np.array_equal(idx, want_idx)
            assert gens == want_gens

    def test_one_closure_per_double_coset_in_the_p5_falsifier(self, monkeypatch):
        # one closure per candidate element made 11718 calls
        calls = []
        real = FiniteGroupTable.closure_indices

        def spy(self, gen_idx):
            calls.append(len(gen_idx))
            return real(self, gen_idx)

        monkeypatch.setattr(FiniteGroupTable, "closure_indices", spy)
        rep = minimality.falsify_odd_prime(5)
        assert rep.subgroup_classes == 48
        assert len(calls) == 1233

    def test_sylow_subgroup(self, gl2_f3):
        for q, size in ((2, 16), (3, 3), (5, 1)):
            syl = sylow_subgroup(gl2_f3.elements, 3, q)
            assert len(syl) == size
            assert kernels.in_sorted(syl, gl2_f3.elements).all()
            assert np.array_equal(kernels.closure(syl, 3), syl)

    def test_budget_cap(self):
        with pytest.raises(kernels.BudgetExceeded):
            FiniteGroupTable.from_generators(ambient_generators(2, 16), 16)
