"""2x2 matrix arithmetic mod p^k: the packed scalar kernels, the generator
checks of OpenSubgroup, and the order of GL_2(Z/p^k)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimal2 import kernels
from minimal2.modmat import gl2_order
from minimal2.subgroups import OpenSubgroup, ambient_generators

I = kernels.IDENTITY
P = kernels.pack


class TestResidueMatrixBasics:
    def test_identity_product(self):
        assert kernels.mul(I, I, 8) == I

    def test_hand_product_mod_2(self):
        swap = P(0, 1, 1, 0)
        shear = P(1, 1, 0, 1)
        assert kernels.unpack(kernels.mul(swap, shear, 2)) == (0, 1, 1, 1)

    def test_entries_are_reduced(self):
        H = OpenSubgroup(2, 8, [(9, -1, 16, 23)])
        assert [kernels.unpack(g) for g in H.generators] == [(1, 7, 0, 7)]
        # packed ints, numpy integers among them, are taken as they are
        H = OpenSubgroup(2, 8, [P(1, 7, 0, 7), np.int64(P(3, 0, 0, 1))])
        assert H.generators == (P(1, 7, 0, 7), P(3, 0, 0, 1))

    def test_modulus_must_be_prime_power(self):
        with pytest.raises(ValueError, match="not a prime power"):
            OpenSubgroup(2, 12, [(1, 0, 0, 1)])
        with pytest.raises(ValueError, match=">= 2"):
            OpenSubgroup(2, 1, [(1, 0, 0, 1)])
        with pytest.raises(ValueError, match="not a power of 3"):
            OpenSubgroup(3, 8, [(1, 0, 0, 1)])

    def test_modulus_must_pack(self):
        # entries of 256 and more would overlap the packed 8-bit fields
        with pytest.raises(ValueError, match="modulus 512 is above 256"):
            OpenSubgroup(2, 512, [(1, 256, 0, 1)])

    def test_det_values(self):
        assert kernels.det(I, 8) == 1
        assert kernels.det(P(3, 0, 0, 1), 8) == 3
        assert kernels.det(P(1, 2, 3, 4), 8) == 6

    def test_inverse(self):
        assert kernels.inv(I, 8) == I
        d31 = P(3, 0, 0, 1)
        assert kernels.inv(d31, 8) == d31
        shear = P(1, 1, 0, 1)
        assert kernels.inv(shear, 8) == P(1, 7, 0, 1)
        assert kernels.mul(shear, kernels.inv(shear, 8), 8) == I

    def test_inverse_requires_unit_det(self):
        with pytest.raises(ValueError):
            kernels.inv(P(2, 0, 0, 1), 8)
        with pytest.raises(ValueError, match="not invertible"):
            OpenSubgroup(2, 8, [(2, 0, 0, 1)])

    def test_order(self):
        xs = kernels.as_packed([I, P(3, 0, 0, 3), P(1, 1, 0, 1)])
        assert kernels.order_array(xs[:1], 8).tolist() == [1]
        assert kernels.order_array(xs[1:2], 4).tolist() == [2]
        assert kernels.order_array(xs[2:], 8).tolist() == [8]

    def test_reduce(self):
        xs = kernels.as_packed([P(5, 0, 0, 1), P(1, 4, 0, 1), P(3, 2, 1, 1)])
        assert kernels.reduce_array(xs[:1], 2).tolist() == [I]
        assert kernels.reduce_array(xs[1:2], 4).tolist() == [I]
        assert kernels.reduce_array(xs[2:], 4).tolist() == [P(3, 2, 1, 1)]
        H = OpenSubgroup(2, 16, [(3, 2, 1, 1), (5, 0, 0, 1)])
        assert H.reduce(4).generators == (P(3, 2, 1, 1), P(1, 0, 0, 1))

    def test_reduce_needs_divisor_modulus(self):
        with pytest.raises(ValueError):
            OpenSubgroup(2, 8, [(1, 0, 0, 1)]).reduce(3)

    def test_gl2_order(self):
        assert gl2_order(2) == 6
        assert gl2_order(4) == 96
        assert gl2_order(8) == 1536
        assert gl2_order(3) == 48
        assert gl2_order(9) == 48 * 81


class TestResidueMatrixProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 15), min_size=12, max_size=12))
    def test_mul_associative_mod_16(self, vals):
        x, y, z = (P(*vals[i:i + 4]) for i in (0, 4, 8))
        assert kernels.mul(kernels.mul(x, y, 16), z, 16) == \
            kernels.mul(x, kernels.mul(y, z, 16), 16)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 15), min_size=4, max_size=4))
    def test_inverse_is_two_sided_mod_16(self, vals):
        x = P(*vals)
        if kernels.det(x, 2) == 0:
            with pytest.raises(ValueError):
                kernels.inv(x, 16)
            return
        xi = kernels.inv(x, 16)
        assert kernels.mul(x, xi, 16) == I
        assert kernels.mul(xi, x, 16) == I

    def test_det_multiplicative_bulk(self):
        rng = np.random.default_rng(7)
        for m in (2, 4, 8, 16, 32):
            cols = [rng.integers(0, m, size=10_000) for _ in range(8)]
            xs = kernels.pack_array(*cols[:4])
            ys = kernels.pack_array(*cols[4:])
            prod = kernels.mul_arrays(xs, ys, m)
            lhs = kernels.det_array(prod, m)
            rhs = (kernels.det_array(xs, m) * kernels.det_array(ys, m)) % m
            assert (lhs == rhs).all()

    def test_order_divides_group_order(self):
        rng = np.random.default_rng(11)
        xs = kernels.pack_array(*rng.integers(0, 8, size=(4, 50)))
        xs = xs[kernels.det_array(xs, 8) % 2 == 1]
        assert len(xs) > 10
        assert (gl2_order(8) % kernels.order_array(xs, 8) == 0).all()


class TestReduceHomomorphism:
    def test_reduce_commutes_exhaustively_mod8_to_mod2(self):
        g8 = kernels.closure(ambient_generators(2, 8), 8)
        assert len(g8) == gl2_order(8)
        xs = np.repeat(g8, 64)
        ys = np.tile(g8[:64], len(g8))
        prod8 = kernels.mul_arrays(xs, ys, 8)
        lhs = kernels.reduce_array(prod8, 2)
        rhs = kernels.mul_arrays(kernels.reduce_array(xs, 2),
                                 kernels.reduce_array(ys, 2), 2)
        assert (lhs == rhs).all()
        assert (kernels.det_array(prod8, 8) % 2
                == kernels.det_array(lhs, 2)).all()

    def test_pack_unpack_roundtrip_over_gl2_mod8(self):
        g8 = kernels.closure(ambient_generators(2, 8), 8)
        repacked = kernels.pack_array(*kernels.unpack_array(g8))
        assert (repacked == g8).all()
        x = int(g8[137])
        assert kernels.pack(*kernels.unpack(x)) == x
        assert OpenSubgroup(2, 8, [kernels.unpack(x)]).generators == (x,)
