"""Genus of the modular curve attached to an open subgroup."""

import numpy as np
import pytest

from minimal2 import kernels
from minimal2.modcurve import GenusData, adjoin_minus_I, genus, label
from minimal2.subgroups import OpenSubgroup, ambient_generators, closure


def full_group(modulus):
    return OpenSubgroup(2, modulus,
                        [kernels.unpack(g) for g in ambient_generators(2, modulus)])


def borel8():
    return OpenSubgroup(2, 8, [(1, 1, 0, 1), (1, 0, 2, 1), (3, 0, 0, 1),
                               (1, 0, 0, 3), (5, 0, 0, 1), (1, 0, 0, 5)])


def principal2_at8():
    # full preimage of the identity mod 2, modeled at 8
    return OpenSubgroup(2, 8, [(1, 2, 0, 1), (1, 0, 2, 1), (3, 0, 0, 1),
                               (1, 0, 0, 3), (5, 0, 0, 1), (1, 0, 0, 5)])


class TestClassicalCurves:
    def test_level_one(self):
        g = genus(full_group(8))
        assert g == GenusData(1, 1, 1, 1, 0)
        assert label(full_group(8)) == (1, 1, 0)

    def test_index_three_curve_at_level_two(self):
        g = genus(borel8())
        assert (g.psl_index, g.nu2, g.nu3, g.cusps, g.genus) == (3, 1, 0, 2, 0)
        assert label(borel8()) == (2, 3, 0)

    def test_mod2_and_mod4_models_are_lifted_to_8(self):
        assert label(OpenSubgroup(2, 2, [(1, 1, 0, 1)])) == (2, 3, 0)
        assert genus(borel8().reduce(4)) == genus(borel8())

    def test_principal_level_two_curve(self):
        H = principal2_at8()
        assert H.order() == 256
        g = genus(H)
        assert (g.psl_index, g.nu2, g.nu3, g.cusps, g.genus) == (6, 0, 0, 3, 0)
        assert label(H) == (2, 6, 0)


class TestGenusInvariance:
    def test_conjugation_invariance(self):
        H = borel8()
        base = genus(H)
        pool = full_group(8).elements
        rng = np.random.default_rng(5)
        for _ in range(5):
            g = int(pool[int(rng.integers(len(pool)))])
            gi = kernels.inv(g, 8)
            gens = [kernels.unpack(kernels.mul(kernels.mul(g, x.packed(), 8), gi, 8))
                    for x in H.generators]
            assert genus(OpenSubgroup(2, 8, gens)) == base

    def test_model_modulus_does_not_matter(self):
        assert genus(borel8()) == genus(borel8().lift(16))

    def test_gauss_bonnet_identity(self):
        # 12(g - 1) = m - 3 nu2 - 4 nu3 - 6 cusps, exact over Z
        for H in (full_group(8), borel8(), principal2_at8()):
            d = genus(H)
            assert 12 * (d.genus - 1) == (d.psl_index - 3 * d.nu2
                                          - 4 * d.nu3 - 6 * d.cusps)

    def test_requires_full_determinant(self):
        with pytest.raises(ValueError):
            genus(closure([(1, 1, 0, 1), (1, 0, 1, 1)], 8))  # SL_2 model


class TestAdjoinMinusI:
    def test_doubles_when_absent(self):
        H = closure([(3, 0, 0, 1), (5, 0, 0, 1)], 8)
        assert not kernels.contains(H.elements, kernels.pack(7, 0, 0, 7))
        HmI = adjoin_minus_I(H)
        assert HmI.order() == 2 * H.order()
        assert kernels.contains(HmI.elements, kernels.pack(7, 0, 0, 7))

    def test_idempotent_when_present(self):
        H = borel8()
        assert adjoin_minus_I(H).order() == H.order()

    def test_same_curve_after_adjoining(self):
        # -I acts trivially on the upper half plane, so the curve data agrees
        H = closure([(3, 0, 0, 1), (5, 0, 0, 1)], 8)
        HmI = adjoin_minus_I(H)
        assert HmI.order() == 2 * H.order()
        assert genus(HmI) == genus(H)
        assert genus(H) == GenusData(192, 0, 0, 24, 5)

    def test_json_dict_shape(self):
        d = genus(borel8()).to_json_dict()
        assert d == {"psl_index": 3, "nu2": 1, "nu3": 0, "cusps": 2,
                     "genus": 0}
