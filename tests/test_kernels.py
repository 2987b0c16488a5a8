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


_INV_TABLES: dict[int, np.ndarray] = {}


def unit_inverse_table(m):
    """table[u] = u^-1 mod m for units, -1 for non-units."""
    tab = _INV_TABLES.get(m)
    if tab is None:
        tab = np.full(m, -1, dtype=np.int32)
        for u in range(m):
            try:
                tab[u] = pow(u, -1, m)
            except ValueError:
                pass
        _INV_TABLES[m] = tab
    return tab


def inv_array(xs, m):
    """Packed inverses of an array of invertible packed matrices, as an
    oracle for the scalar kernels.inv."""
    a, b, c, d = kernels.unpack_array(xs)
    di = unit_inverse_table(m)[kernels._mod(a * d - b * c, m)]
    if np.any(di < 0):
        raise ValueError(f"array contains a matrix not invertible mod {m}")
    return kernels.pack_array(kernels._mod(d * di, m), kernels._mod(-b * di, m),
                              kernels._mod(-c * di, m), kernels._mod(a * di, m))


def conj_array(xs, g, m):
    """g @ x @ g^-1 for every packed x, one generator at a time, unsorted:
    an oracle for kernels.conjugate_set."""
    x_gi = kernels.mul_array_scalar(xs, kernels.inv(g, m), m)
    return kernels.mul_arrays(np.full_like(x_gi, g), x_gi, m)


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
        reduced = kernels.reduce_array(kernels.as_packed([x]), 2)
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
        # compared, not differenced: a uint32 difference wraps
        assert (got[1:] > got[:-1]).all()

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
        conj = kernels.conjugate_set(group, [g], 8)[0]
        assert len(conj) == len(group)
        assert (conj == group).all()  # whole group is conjugation-stable

    def test_conj_array_fixes_commuting_elements(self):
        xs = np.array([kernels.pack(3, 0, 0, 3), kernels.IDENTITY],
                      dtype=np.uint32)
        got = conj_array(xs, kernels.pack(1, 1, 0, 1), 8)
        assert (np.sort(got) == np.sort(xs)).all()

    def test_lift_array_sizes(self):
        xs = np.array([kernels.IDENTITY], dtype=np.uint32)
        lifted = kernels.lift_array(xs, 2, 4)
        assert len(lifted) == 16  # 4x4 kernel of reduction
        dets = kernels.det_array(lifted, 4) % 2
        assert (dets == 1).all()

    def test_unit_inverse_table(self):
        tbl = unit_inverse_table(16)
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
        xs = kernels.as_packed(rng.choice(pool, size=2000))
        assert (kernels.unique(xs) == np.unique(xs)).all()


def _unit_matrices(rng, m, size):
    """Random packed matrices mod m with unit determinant, and their entries."""
    out = []
    while len(out) < size:
        e = tuple(int(v) for v in rng.integers(0, m, size=4))
        if np.gcd((e[0] * e[3] - e[1] * e[2]) % m, m) == 1:
            out.append(e)
    return kernels.as_packed([kernels.pack(*e) for e in out])


# m = 256 and 32 take the mask reduction, 9 and 25 the % reduction.
ARITH_MODULI = [256, 32, 9, 25]


class TestBulkArithmeticMatchesScalar:
    def test_pack_unpack_roundtrip_every_entry_value(self):
        v = np.arange(256)
        cols = [v, (v + 85) % 256, (v * 7 + 3) % 256, 255 - v]
        packed = kernels.pack_array(*cols)
        assert packed.dtype == np.uint32
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
        left = kernels.mul_arrays(np.full_like(xs, y), xs, m)
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
        conj = conj_array(xs, g, m)
        inv = inv_array(xs, m)
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
        assert out.dtype == np.uint32
        for j, g in enumerate(gens):
            one = kernels.conjugate_set(xs, [g], m)
            assert one.shape == (1, 5, 40)
            assert (one[0] == out[j]).all()
            for i in range(5):
                ref = np.sort(conj_array(xs[i], g, m))
                assert (out[j, i] == ref).all()
                assert (kernels.conjugate_set(xs[i], [g], m)[0] == ref).all()
        # one set by a sequence of generators: one row per generator
        assert (kernels.conjugate_set(xs[0], gens, m) == out[:, 0]).all()

    @pytest.mark.parametrize("m", ARITH_MODULI)
    def test_det_of_singular_matrices(self, m):
        rng = np.random.default_rng(m + 2)
        xs = kernels.pack_array(*[rng.integers(0, m, size=300) for _ in range(4)])
        det = kernels.det_array(xs, m)
        assert det.tolist() == [kernels.det(int(x), m) for x in xs]
        with pytest.raises(ValueError):
            inv_array(np.append(xs[:1], kernels.pack(0, 0, 0, 0)), m)


def py_pack(e):
    """Plain-Python packing of an entry tuple (a, b, c, d)."""
    return e[0] + 256 * e[1] + 65536 * e[2] + 16777216 * e[3]


def py_unpack(x):
    return (x % 256, x // 256 % 256, x // 65536 % 256, x // 16777216)


def py_inv(e, m):
    """Inverse of an invertible entry tuple mod m, by the adjugate."""
    a, b, c, d = e
    di = pow((a * d - b * c) % m, -1, m)
    return ((d * di) % m, (-b * di) % m, (-c * di) % m, (a * di) % m)


def py_closure(gens, m, seeds=()):
    """Packed elements of <gens, seeds> mod m, by a plain-Python search."""
    known = {py_pack((1, 0, 0, 1))} | set(seeds)
    todo = list(known)
    while todo:
        x = py_unpack(todo.pop())
        for g in gens:
            y = py_pack(tuple_mul(x, py_unpack(g), m))
            if y not in known:
                known.add(y)
                todo.append(y)
    return sorted(known)


class TestUint32Sets:
    """Element sets at modulus 256, where entry d >= 128 sets bit 31."""

    # -I, diag(1, 129) and a shear generate 256 elements, half of them
    # with d >= 128
    GENS = [py_pack((255, 0, 0, 255)), py_pack((1, 0, 0, 129)),
            py_pack((1, 4, 0, 1))]
    CONJ = [py_pack((3, 1, 0, 131)), py_pack((1, 0, 2, 255))]

    def test_closure_with_seeds(self):
        # the coset growth from the subgroup <GENS[:2]> to <GENS>
        seeds = py_closure(self.GENS[:2], 256)
        got = kernels.coset_closure(kernels.as_packed(seeds), self.GENS, 256)
        want = py_closure(self.GENS, 256)
        assert got.dtype == np.uint32
        assert got.tolist() == want
        assert max(want) >= 1 << 31
        assert got.tolist() == kernels.closure(self.GENS, 256).tolist()

    def test_coset_closure_budget(self):
        seeds = kernels.as_packed(py_closure(self.GENS[:2], 256))
        with pytest.raises(kernels.BudgetExceeded):
            kernels.coset_closure(seeds, self.GENS, 256, cap=255)
        assert len(kernels.coset_closure(seeds, self.GENS, 256, cap=256)) == 256

    def test_powers(self):
        for g in self.GENS + self.CONJ:
            assert kernels.powers(g, 256).tolist() == py_closure([g], 256)

    def test_keys_split_back_and_sort_by_value(self):
        values = kernels.closure(self.GENS, 256)
        labels = np.arange(len(values), dtype=np.uint32)[::-1] << np.uint32(24)
        keys = kernels.keyed(values, labels)
        assert np.array_equal(kernels.key_values(keys), values)
        assert np.array_equal(kernels.key_labels(keys), labels)
        assert np.array_equal(np.sort(keys), keys)  # sorted by value first
        assert int(kernels.key_labels(keys).max()) >= 1 << 31
        assert np.array_equal(kernels.key_labels(kernels.keyed(values, 0)),
                              np.zeros(len(values), dtype=np.uint32))

    def test_lift_and_reduce(self):
        base = kernels.closure([py_pack((1, 2, 0, 127)), py_pack((3, 0, 0, 1))], 128)
        lifted = kernels.lift_array(base, 128, 256)
        want = sorted(py_pack(tuple(v + 128 * t for v, t in zip(py_unpack(x), ts)))
                      for x in base.tolist()
                      for ts in np.ndindex(2, 2, 2, 2))
        assert lifted.dtype == np.uint32
        assert lifted.tolist() == want
        assert int(lifted[-1]) >= 1 << 31
        for m2 in (128, 2):
            down = kernels.reduce_array(lifted, m2)
            assert down.dtype == np.uint32
            assert down.tolist() == [py_pack(tuple(v % m2 for v in py_unpack(x)))
                                     for x in want]
        # the % path of a non-power-of-2 modulus keeps the dtype too
        assert kernels.reduce_array(lifted, 3).dtype == np.uint32

    def test_conjugate_set_and_in_sorted(self):
        group = kernels.closure(self.GENS, 256)
        out = kernels.conjugate_set(group, self.CONJ, 256)
        assert out.dtype == np.uint32
        for j, g in enumerate(self.CONJ):
            gi = kernels.inv(g, 256)
            assert py_pack(py_inv(py_unpack(g), 256)) == gi
            scalar = sorted(kernels.mul(kernels.mul(g, int(x), 256), gi, 256)
                            for x in group)
            oracle = sorted(py_pack(tuple_mul(tuple_mul(py_unpack(g), py_unpack(x), 256),
                                              py_inv(py_unpack(g), 256), 256))
                            for x in group.tolist())
            assert out[j].tolist() == scalar == oracle
            members = set(group.tolist())
            mask = kernels.in_sorted(out[j], group)
            assert mask.tolist() == [x in members for x in oracle]
        # the upper triangular conjugator normalizes the group; the lower
        # one moves all but 8 elements out of it
        assert kernels.in_sorted(out[0], group).sum() == 256
        assert kernels.in_sorted(out[1], group).sum() == 8

    def test_outputs_are_uint32(self):
        from minimal2.subgroups import OpenSubgroup

        cols = [np.arange(256) for _ in range(4)]
        assert kernels.pack_array(*cols).dtype == np.uint32
        H = OpenSubgroup(2, 256, self.GENS)
        assert H.elements.dtype == np.uint32
        assert H.hyperplane_subgroup(1).elements.dtype == np.uint32
