"""Genus of the modular curve attached to an open subgroup."""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from minimal2 import kernels, modcurve
from minimal2.modcurve import GenusData, adjoin_minus_I, genus, label
from minimal2.subgroups import OpenSubgroup, ambient_generators, closure


def full_group(modulus):
    return OpenSubgroup(2, modulus,
                        [kernels.unpack(g) for g in ambient_generators(2, modulus)])


def borel8():
    return OpenSubgroup(2, 8, [(1, 1, 0, 1), (1, 0, 2, 1), (3, 0, 0, 1),
                               (1, 0, 0, 3), (5, 0, 0, 1), (1, 0, 0, 5)])


# generators of the kernel of reduction mod 2 in GL_2(Z/8)
KERNEL2_AT8 = [(1, 2, 0, 1), (1, 0, 2, 1), (3, 0, 0, 1), (1, 0, 0, 3),
               (5, 0, 0, 1), (1, 0, 0, 5)]


def principal2_at8():
    # full preimage of the identity mod 2, modeled at 8
    return OpenSubgroup(2, 8, KERNEL2_AT8)


def nonsplit_cartan2_at8():
    # full preimage of the order-3 subgroup of GL_2(F_2)
    return OpenSubgroup(2, 8, [(0, 7, 1, 7)] + KERNEL2_AT8)


def borel_level4_at8():
    # Gamma_0(4): c = 0 mod 4
    return OpenSubgroup(2, 8, [(1, 1, 0, 1), (1, 0, 4, 1), (3, 0, 0, 1),
                               (1, 0, 0, 3), (5, 0, 0, 1), (1, 0, 0, 5)])


# -- an independent oracle: the coset action written out as explicit sets ------

def _mat_mul(x, y, n):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % n, (a * f + b * h) % n,
            (c * e + d * g) % n, (c * f + d * h) % n)


def _generated(gens, n):
    """The group generated by gens mod n, as a Python set of 4-tuples."""
    identity = (1, 0, 0, 1)
    elems, frontier = {identity}, [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = _mat_mul(x, g, n)
                if y not in elems:
                    elems.add(y)
                    fresh.append(y)
        frontier = fresh
    return elems


@lru_cache(maxsize=None)
def _sl2_sorted(n):
    return sorted(_generated([(1, 1, 0, 1), (1, 0, 1, 1)], n))


def coset_action_genus(G):
    """(psl_index, nu2, nu3, cusps, genus) of X_G from SL_2(Z/n) acting on
    the right cosets of <G, -I> cap SL_2, with n the model modulus of G.

    Plain Python, independent of minimal2's array code and of the level:
    every coset is built as an explicit set, S, T3 and U act on cosets by
    right multiplication, and the cusps are the cycles of U."""
    n = G.modulus
    gens = [kernels.unpack(g) for g in G.generators] + [(n - 1, 0, 0, n - 1)]
    h_sl = [x for x in _generated(gens, n) if (x[0] * x[3] - x[1] * x[2]) % n == 1]
    coset_of, reps = {}, []
    for x in _sl2_sorted(n):
        if x not in coset_of:
            for h in h_sl:
                coset_of[_mat_mul(h, x, n)] = len(reps)
            reps.append(x)
    assert len(coset_of) == len(_sl2_sorted(n)) == len(reps) * len(h_sl)

    def perm(sigma):
        return [coset_of[_mat_mul(r, tuple(v % n for v in sigma), n)] for r in reps]

    nu2 = sum(i == j for i, j in enumerate(perm((0, -1, 1, 0))))
    nu3 = sum(i == j for i, j in enumerate(perm((0, -1, 1, -1))))
    u, seen, cusps = perm((1, 1, 0, 1)), set(), 0
    for i in range(len(reps)):
        if i not in seen:
            cusps += 1
            while i not in seen:
                seen.add(i)
                i = u[i]
    m = len(reps)
    g = 1 + Fraction(m, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(cusps, 2)
    assert g.denominator == 1
    return m, nu2, nu3, cusps, int(g)


def borel(modulus):
    # upper-triangular Borel mod the modulus, level equal to the modulus
    return OpenSubgroup(2, modulus, [(1, 1, 0, 1), (3, 0, 0, 1), (5, 0, 0, 1),
                                     (1, 0, 0, 3), (1, 0, 0, 5)])


def genus_tuple(G):
    d = genus(G)
    return d.psl_index, d.nu2, d.nu3, d.cusps, d.genus


# fixed generators (A, B) mod 16 and 32 with det A = 3, det B = 5 mod 8 and
# level equal to the modulus, with a spread of indices and genera
TWO_GENERATOR_GROUPS = [
    (16, [(1, 5, 6, 1), (11, 13, 4, 11)]),         # index 24, genus 0
    (16, [(7, 4, 4, 5), (3, 7, 2, 1)]),            # contains -I, genus 9
    (16, [(15, 12, 10, 5), (5, 8, 4, 9)]),         # index 1536, genus 81
    (32, [(25, 13, 30, 25), (23, 6, 22, 23)]),     # index 48, genus 0
    (32, [(3, 6, 28, 9), (11, 25, 2, 5)]),         # index 96, 4 cusps
    (32, [(21, 24, 18, 7), (9, 13, 18, 7)]),       # index 384, genus 25
    (32, [(27, 3, 20, 21), (31, 27, 6, 17)]),      # contains -I, index 3072
]

# (A, B) as above plus a conjugate of S, so that nu2 > 0 at levels 16 and 32
ELLIPTIC_GROUPS = [
    (16, [(5, 2, 0, 15), (15, 8, 4, 3), (14, 11, 1, 2)]),
    (32, [(31, 12, 20, 5), (9, 12, 20, 29), (28, 3, 5, 4)]),
]


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


class TestAgainstCosetOracle:
    def test_census8_entries(self, census8):
        for e in census8:
            H = e.subgroup()
            assert genus(H) == e.genus_data
            assert genus_tuple(H) == coset_action_genus(H)

    def test_classical_groups(self):
        expected = {
            "full": (full_group(8), (1, 1, 1, 1, 0)),
            "Gamma_0(2)": (borel8(), (3, 1, 0, 2, 0)),
            "Gamma(2)": (principal2_at8(), (6, 0, 0, 3, 0)),
            "Gamma_0(4)": (borel_level4_at8(), (6, 0, 0, 3, 0)),
            "nonsplit Cartan mod 2": (nonsplit_cartan2_at8(), (2, 0, 2, 1, 0)),
            "Gamma_0(2) mod 2": (OpenSubgroup(2, 2, [(1, 1, 0, 1)]), (3, 1, 0, 2, 0)),
        }
        for name, (H, data) in expected.items():
            assert coset_action_genus(H) == data, name
            assert genus_tuple(H) == data, name

    def test_group_without_minus_identity(self):
        H = closure([(3, 0, 0, 1), (5, 0, 0, 1)], 8)
        assert not H.contains_minus_identity()
        assert genus_tuple(H) == coset_action_genus(H) == (192, 0, 0, 24, 5)

    @pytest.mark.parametrize("modulus,gens", TWO_GENERATOR_GROUPS + ELLIPTIC_GROUPS)
    def test_level_16_and_32_groups(self, modulus, gens):
        H = closure(gens, modulus)
        assert H.level() == modulus
        assert genus_tuple(H) == coset_action_genus(H)

    def test_elliptic_groups_have_elliptic_points(self):
        for modulus, gens in ELLIPTIC_GROUPS:
            assert coset_action_genus(closure(gens, modulus))[1] > 0


class TestAboveLevel32:
    def test_borel_at_level_64_matches_the_oracle(self):
        H = borel(64)
        assert H.level() == 64
        assert genus_tuple(H) == coset_action_genus(H) == (96, 0, 0, 12, 3)

    def test_borel_at_level_128(self):
        # recorded from the whole-SL_2 fixed-point counts before the class tables
        H = borel(128)
        assert H.level() == 128
        assert genus_tuple(H) == (192, 0, 0, 16, 9)


def standard_elements(n):
    """S, T_3 and U^d for d = 1, 2, 4, ..., n/2: the order of the class tables."""
    return [(0, -1, 1, 0), (0, -1, 1, -1)] + [(1, 1 << j, 0, 1)
                                              for j in range(n.bit_length() - 1)]


class TestClassTables:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_classes_and_centralizers_by_brute_force(self, n):
        sl2 = _sl2_sorted(n)
        order, tables = modcurve._psl_context(n)
        assert order == len(sl2)
        assert len(tables) == len(standard_elements(n))
        for sigma, (cls, cent) in zip(standard_elements(n), tables):
            s = tuple(v % n for v in sigma)
            # x^-1 = (d, -b, -c, a) in SL_2
            conj = {_mat_mul(_mat_mul(x, s, n), (x[3], -x[1] % n, -x[2] % n, x[0]), n)
                    for x in sl2}
            assert [kernels.unpack(int(v)) for v in cls] == \
                sorted(conj, key=lambda x: kernels.pack(*x)), sigma
            assert cent == sum(_mat_mul(x, s, n) == _mat_mul(s, x, n) for x in sl2), sigma

    def test_cusp_counts_that_do_not_nest_are_rejected(self, monkeypatch):
        # N_d counts the x with x U^d x^-1 in H, and these sets grow with d;
        # for the level-8 Borel N_1, N_2, N_4 = 64, 128, 128, and the tables
        # of U and U^4 swapped give 128, 128, 64
        order, tables = modcurve._psl_context(8)
        swapped = (tables[0], tables[1], tables[4], tables[3], tables[2])
        monkeypatch.setattr(modcurve, "_psl_context", lambda n: (order, swapped))
        with pytest.raises(AssertionError, match="nested"):
            genus(borel(8))


class TestGenusKept:
    def test_second_label_counts_no_class(self, monkeypatch):
        calls = []
        real = kernels.in_sorted

        def spy(xs, sorted_set):
            calls.append(len(xs))
            return real(xs, sorted_set)

        monkeypatch.setattr(kernels, "in_sorted", spy)
        H = borel_level4_at8()
        first = label(H)
        assert calls  # the first call counts the class tables
        calls.clear()
        assert label(H) == first
        assert genus(H) is genus(H)
        assert calls == []
        assert label(borel_level4_at8()) == first

    def test_a_lifted_model_keeps_the_genus_on_the_caller(self):
        H = borel8().reduce(4)
        data = genus(H)
        assert H._genus is data
        assert data == genus(borel8())


class TestGenusInvariance:
    def test_conjugation_invariance(self):
        H = borel8()
        base = genus(H)
        pool = full_group(8).elements
        rng = np.random.default_rng(5)
        for _ in range(5):
            g = int(pool[int(rng.integers(len(pool)))])
            gi = kernels.inv(g, 8)
            gens = [kernels.mul(kernels.mul(g, x, 8), gi, 8) for x in H.generators]
            assert genus(OpenSubgroup(2, 8, gens)) == base

    def test_model_modulus_does_not_matter(self):
        assert genus(borel8()) == genus(borel8().lift(16))

    def test_gauss_bonnet_identity(self):
        # 12(g - 1) = m - 3 nu2 - 4 nu3 - 6 cusps, exact over Z
        for H in (full_group(8), borel8(), principal2_at8()):
            d = genus(H)
            assert 12 * (d.genus - 1) == (d.psl_index - 3 * d.nu2
                                          - 4 * d.nu3 - 6 * d.cusps)

    def test_counts_that_break_the_identity_are_rejected(self):
        # 12(0 - 1) + 3*1 + 6*1 = -3, not the index 3
        with pytest.raises(AssertionError):
            GenusData(3, 1, 0, 1, 0)
        # 12(-1 - 1) + 6*5 = 6 holds, but the genus is negative
        with pytest.raises(AssertionError):
            GenusData(6, 0, 0, 5, -1)

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
