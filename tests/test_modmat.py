"""Residue-matrix arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimal2 import kernels
from minimal2.modmat import ResidueMatrix, gl2_order


def M8(a, b, c, d):
    return ResidueMatrix(8, a, b, c, d)


class TestResidueMatrixBasics:
    def test_identity_product(self):
        I = ResidueMatrix.identity(8)
        assert I * I == I

    def test_hand_product_mod_2(self):
        swap = ResidueMatrix(2, 0, 1, 1, 0)
        shear = ResidueMatrix(2, 1, 1, 0, 1)
        assert (swap * shear).entries() == (0, 1, 1, 1)

    def test_entries_are_reduced(self):
        assert ResidueMatrix(8, 9, -1, 16, 23).entries() == (1, 7, 0, 7)

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ResidueMatrix.identity(8) * ResidueMatrix.identity(4)

    def test_modulus_must_be_prime_power(self):
        with pytest.raises(ValueError):
            ResidueMatrix(12, 1, 0, 0, 1)
        with pytest.raises(ValueError):
            ResidueMatrix(1, 1, 0, 0, 1)

    def test_det_values(self):
        assert ResidueMatrix.identity(8).det() == 1
        assert M8(3, 0, 0, 1).det() == 3
        assert M8(1, 2, 3, 4).det() == 6

    def test_inverse(self):
        I = ResidueMatrix.identity(8)
        assert I.inverse() == I
        d31 = M8(3, 0, 0, 1)
        assert d31.inverse() == d31
        shear = M8(1, 1, 0, 1)
        assert shear.inverse() == M8(1, 7, 0, 1)
        assert shear * shear.inverse() == I

    def test_inverse_requires_unit_det(self):
        with pytest.raises(ValueError):
            M8(2, 0, 0, 1).inverse()

    def test_order(self):
        assert ResidueMatrix.identity(8).order() == 1
        assert ResidueMatrix(4, -1, 0, 0, -1).order() == 2
        assert M8(1, 1, 0, 1).order() == 8

    def test_negative_power_uses_inverse(self):
        shear = M8(1, 1, 0, 1)
        assert shear ** -1 == shear.inverse()
        assert shear ** -3 == (shear ** 3).inverse()

    def test_reduce(self):
        assert M8(5, 0, 0, 1).reduce(2) == ResidueMatrix.identity(2)
        assert M8(1, 4, 0, 1).reduce(4) == ResidueMatrix.identity(4)
        assert ResidueMatrix(16, 3, 2, 1, 1).reduce(4).entries() == (3, 2, 1, 1)

    def test_reduce_needs_divisor_modulus(self):
        with pytest.raises(ValueError):
            M8(1, 0, 0, 1).reduce(3)

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
        x = ResidueMatrix(16, *vals[0:4])
        y = ResidueMatrix(16, *vals[4:8])
        z = ResidueMatrix(16, *vals[8:12])
        assert (x * y) * z == x * (y * z)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 15), min_size=4, max_size=4))
    def test_inverse_is_two_sided_mod_16(self, vals):
        x = ResidueMatrix(16, *vals)
        if not x.is_invertible():
            with pytest.raises(ValueError):
                x.inverse()
            return
        I = ResidueMatrix.identity(16)
        assert x * x.inverse() == I
        assert x.inverse() * x == I

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
        for _ in range(50):
            vals = rng.integers(0, 8, size=4)
            x = ResidueMatrix(8, *(int(v) for v in vals))
            if not x.is_invertible():
                continue
            assert gl2_order(8) % x.order() == 0


class TestReduceHomomorphism:
    def test_reduce_commutes_exhaustively_mod8_to_mod2(self):
        from minimal2.subgroups import ambient_generators

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
        from minimal2.subgroups import ambient_generators

        g8 = kernels.closure(ambient_generators(2, 8), 8)
        repacked = kernels.pack_array(*kernels.unpack_array(g8))
        assert (repacked == g8).all()
        x = ResidueMatrix.from_packed(int(g8[137]), 8)
        assert x.packed() == int(g8[137])
