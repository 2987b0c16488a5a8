"""Packed 2x2 matrix kernels: closure, bulk arithmetic, budgets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimal2 import kernels
from minimal2.modmat import gl2_order


def tuple_mul(x, y, m):
    """Reference product of entry tuples (a, b, c, d) mod m."""
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % m, (a * f + b * h) % m,
            (c * e + d * g) % m, (c * f + d * h) % m)


def tuple_order(x, m):
    """Reference order of an invertible reduced entry tuple mod m, by
    repeated multiplication."""
    power, n = x, 1
    while power != (1, 0, 0, 1):
        power, n = tuple_mul(power, x, m), n + 1
    return n


class TestPacking:
    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*[st.integers(0, 255)] * 4))
    def test_pack_unpack_roundtrip(self, entries):
        assert kernels.unpack(kernels.pack(*entries)) == entries

    def test_identity_constant(self):
        assert kernels.unpack(kernels.IDENTITY) == (1, 0, 0, 1)

    def test_array_pack_matches_scalar(self):
        rng = np.random.default_rng(0)
        cols = [rng.integers(0, 16, size=200) for _ in range(4)]
        packed = kernels.pack_array(*cols)
        for i in (0, 17, 199):
            expect = kernels.pack(*(int(c[i]) for c in cols))
            assert int(packed[i]) == expect


class TestScalarOps:
    def test_mul_matches_residue_matrix(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            xe = [int(v) for v in rng.integers(0, 8, size=4)]
            ye = [int(v) for v in rng.integers(0, 8, size=4)]
            got = kernels.mul(kernels.pack(*xe), kernels.pack(*ye), 8)
            want = kernels.pack(*tuple_mul(xe, ye, 8))
            assert got == want

    def test_inv_and_det(self):
        rng = np.random.default_rng(2)
        found = 0
        while found < 100:
            xe = [int(v) for v in rng.integers(0, 16, size=4)]
            x = kernels.pack(*xe)
            if kernels.det(x, 16) % 2 == 0:
                continue
            found += 1
            assert kernels.mul(x, kernels.inv(x, 16), 16) == kernels.IDENTITY
        with pytest.raises(ValueError):
            kernels.inv(kernels.pack(2, 0, 0, 1), 16)

    def test_reduce_and_neg(self):
        x = kernels.pack(5, 6, 7, 1)
        reduced = kernels.reduce_array(np.array([x], dtype=np.int64), 2)
        assert kernels.unpack(int(reduced[0])) == (1, 0, 1, 1)
        assert kernels.unpack(kernels.neg(x, 8)) == (3, 2, 1, 7)


class TestClosure:
    def test_closure_of_nothing_is_identity(self):
        got = kernels.closure([], 8)
        assert list(got) == [kernels.IDENTITY]

    def test_gl2_f2_from_two_generators(self):
        gens = [kernels.pack(0, 1, 1, 0), kernels.pack(1, 1, 0, 1)]
        got = kernels.closure(gens, 2)
        assert len(got) == 6
        assert len(got) == gl2_order(2)

    def test_closure_is_sorted_and_unique(self):
        gens = [kernels.pack(1, 1, 0, 1), kernels.pack(3, 0, 0, 1)]
        got = kernels.closure(gens, 8)
        assert (np.diff(got) > 0).all()

    def test_closure_idempotent(self):
        gens = [kernels.pack(3, 0, 0, 1), kernels.pack(5, 0, 0, 1)]
        once = kernels.closure(gens, 8)
        assert len(once) == 4
        twice = kernels.closure([int(x) for x in once], 8)
        assert (once == twice).all()

    def test_closure_contains_inverses_and_products(self):
        gens = [kernels.pack(1, 1, 0, 1), kernels.pack(1, 0, 1, 1)]
        got = kernels.closure(gens, 4)
        for x in got[:50]:
            assert kernels.contains(got, kernels.inv(int(x), 4))
        prods = kernels.mul_arrays(np.repeat(got, len(got)),
                                   np.tile(got, len(got)), 4)
        assert kernels.in_sorted(np.unique(prods), got).all()

    def test_budget_enforced(self):
        from minimal2.subgroups import ambient_generators

        with pytest.raises(kernels.BudgetExceeded):
            kernels.closure(ambient_generators(2, 16), 16, cap=100)


class TestBulkOps:
    def test_conjugate_set_is_permutation(self):
        from minimal2.subgroups import ambient_generators

        group = kernels.closure(ambient_generators(2, 8), 8)
        g = kernels.pack(1, 1, 0, 1)
        conj = kernels.conjugate_set(group, g, 8)
        assert len(conj) == len(group)
        assert (conj == group).all()  # whole group is conjugation-stable

    def test_conj_array_fixes_commuting_elements(self):
        xs = np.array([kernels.pack(3, 0, 0, 3), kernels.IDENTITY],
                      dtype=np.uint32)
        got = kernels.conj_array(xs, kernels.pack(1, 1, 0, 1), 8)
        assert (np.sort(got) == np.sort(xs)).all()

    def test_lift_array_sizes(self):
        xs = np.array([kernels.IDENTITY], dtype=np.uint32)
        lifted = kernels.lift_array(xs, 2, 4)
        assert len(lifted) == 16  # 4x4 kernel of reduction
        dets = kernels.det_array(lifted, 4) % 2
        assert (dets == 1).all()

    def test_unit_inverse_table(self):
        tbl = kernels.unit_inverse_table(16)
        for u in range(1, 16, 2):
            assert (u * int(tbl[u])) % 16 == 1

    @pytest.mark.parametrize("m", [3, 8])
    def test_order_array_matches_residue_matrix_order(self, m):
        from minimal2.subgroups import ambient_generators

        p = 3 if m == 3 else 2
        group = kernels.closure(ambient_generators(p, m), m)
        assert len(group) == gl2_order(m)
        want = [tuple_order(kernels.unpack(int(x)), m) for x in group]
        assert kernels.order_array(group, m).tolist() == want

    def test_square_array(self):
        rng = np.random.default_rng(3)
        xs = kernels.pack_array(*[rng.integers(0, 8, size=64)
                                  for _ in range(4)])
        sq = kernels.square_array(xs, 8)
        ref = kernels.mul_arrays(xs, xs, 8)
        assert (sq == ref).all()


class TestUnique:
    @pytest.mark.parametrize("xs", [
        [],
        [7],
        [5, 5, 5, 5],
        [3, 1, 2, 3, 1],
    ])
    def test_small_cases_match_np_unique(self, xs):
        xs = np.array(xs, dtype=np.int64)
        got = kernels.unique(xs)
        assert got.dtype == xs.dtype
        assert got.tolist() == np.unique(xs).tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_packed_arrays_match_np_unique(self, seed):
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, 1 << 32, size=300)
        xs = rng.choice(pool, size=2000)
        assert (kernels.unique(xs) == np.unique(xs)).all()


def _unit_matrices(rng, m, size):
    """Random packed matrices mod m with unit determinant, and their entries."""
    out = []
    while len(out) < size:
        e = tuple(int(v) for v in rng.integers(0, m, size=4))
        if np.gcd((e[0] * e[3] - e[1] * e[2]) % m, m) == 1:
            out.append(e)
    return np.array([kernels.pack(*e) for e in out], dtype=np.int64)


# m = 256 and 32 take the mask reduction, 9 and 25 the % reduction.
ARITH_MODULI = [256, 32, 9, 25]


class TestBulkArithmeticMatchesScalar:
    def test_pack_unpack_roundtrip_every_entry_value(self):
        v = np.arange(256)
        cols = [v, (v + 85) % 256, (v * 7 + 3) % 256, 255 - v]
        packed = kernels.pack_array(*cols)
        assert packed.dtype == np.int64 and (packed >= 0).all()
        assert int(packed.max()) >= 1 << 31  # d >= 128 sets bit 31
        for i in range(256):
            assert int(packed[i]) == kernels.pack(*(int(c[i]) for c in cols))
        back = kernels.unpack_array(packed)
        assert all((b == c).all() for b, c in zip(back, cols))
        # the int32 entry arrays repack to the same values
        assert (kernels.pack_array(*back) == packed).all()

    @pytest.mark.parametrize("m", ARITH_MODULI)
    def test_products(self, m):
        rng = np.random.default_rng(m)
        xs = _unit_matrices(rng, m, 200)
        ys = _unit_matrices(rng, m, 200)
        y = int(ys[0])
        right = kernels.mul_array_scalar(xs, y, m)
        left = kernels.mul_array_scalar(xs, y, m, right=False)
        both = kernels.mul_arrays(xs, ys, m)
        square = kernels.square_array(xs, m)
        for i, x in enumerate(int(v) for v in xs):
            assert int(right[i]) == kernels.mul(x, y, m)
            assert int(left[i]) == kernels.mul(y, x, m)
            assert int(both[i]) == kernels.mul(x, int(ys[i]), m)
            assert int(square[i]) == kernels.mul(x, x, m)

    @pytest.mark.parametrize("m", ARITH_MODULI)
    def test_conj_inv_neg_det(self, m):
        rng = np.random.default_rng(m + 1)
        xs = _unit_matrices(rng, m, 200)
        g = int(_unit_matrices(rng, m, 1)[0])
        conj = kernels.conj_array(xs, g, m)
        inv = kernels.inv_array(xs, m)
        neg = kernels.neg_array(xs, m)
        det = kernels.det_array(xs, m)
        gi = kernels.inv(g, m)
        for i, x in enumerate(int(v) for v in xs):
            assert int(conj[i]) == kernels.mul(kernels.mul(g, x, m), gi, m)
            assert int(inv[i]) == kernels.inv(x, m)
            assert int(neg[i]) == kernels.neg(x, m)
            assert int(det[i]) == kernels.det(x, m)

    @pytest.mark.parametrize("m", ARITH_MODULI)
    def test_stacked_conjugate_set(self, m):
        # a (k, s) stack of sets by several generators: slice j, row i is
        # row i conjugated by generator j, sorted
        rng = np.random.default_rng(m + 3)
        xs = _unit_matrices(rng, m, 5 * 40).reshape(5, 40)
        gens = [int(g) for g in _unit_matrices(rng, m, 3)]
        out = kernels.conjugate_set(xs, gens, m)
        assert out.shape == (3, 5, 40)
        assert out.dtype == np.int64
        for j, g in enumerate(gens):
            one = kernels.conjugate_set(xs, g, m)
            assert one.shape == (5, 40)
            assert (one == out[j]).all()
            for i in range(5):
                ref = np.sort(kernels.conj_array(xs[i], g, m))
                assert (out[j, i] == ref).all()
                assert (kernels.conjugate_set(xs[i], g, m) == ref).all()
        # one set by a sequence of generators: one row per generator
        assert (kernels.conjugate_set(xs[0], gens, m) == out[:, 0]).all()

    @pytest.mark.parametrize("m", ARITH_MODULI)
    def test_det_of_singular_matrices(self, m):
        rng = np.random.default_rng(m + 2)
        xs = kernels.pack_array(*[rng.integers(0, m, size=300) for _ in range(4)])
        det = kernels.det_array(xs, m)
        assert det.tolist() == [kernels.det(int(x), m) for x in xs]
        with pytest.raises(ValueError):
            kernels.inv_array(np.append(xs[:1], kernels.pack(0, 0, 0, 0)), m)
