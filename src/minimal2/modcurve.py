"""Genus of the modular curve attached to an open subgroup of GL_2(Z_2).

The curve only depends on G up to adjoining -I, so the pipeline is: adjoin
-I, reduce to the level n of the enlarged group and intersect with SL_2,
giving H with -I in H.  SL_2(Z/n) acts on the right cosets of H as
PSL_2(Z/n) acts on those of H/{+-I}, and the genus comes from the standard
formula

    g = 1 + m/12 - nu2/4 - nu3/3 - c/2

with m = [SL_2 : H] the PSL index.  No coset is enumerated.  H x is fixed by
sigma iff x sigma x^-1 lies in H, so nu2 and nu3 are

    #{x in SL_2(Z/n) : x sigma x^-1 in H} / |H|

for the standard elements sigma of order 4 and 3, and the cusps, the orbits
of the translation U, follow from Burnside's lemma over <U> = Z/n:

    c = sum over x of #{k : x U^k x^-1 in H} / (n |H|).

Each count is a few whole-array passes over the sorted SL_2(Z/n) array
with a binary-search membership test in H.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import kernels
from .subgroups import OpenSubgroup

# standard elements of SL_2: order 4 (order 2 in PSL), order 3, translation
_S = (0, -1, 1, 0)
_T3 = (0, -1, 1, -1)
_U = (1, 1, 0, 1)


@dataclass(frozen=True)
class GenusData:
    psl_index: int
    nu2: int
    nu3: int
    cusps: int
    genus: int

    def __post_init__(self):
        lhs = 12 * (self.genus - 1) + 3 * self.nu2 + 4 * self.nu3 + 6 * self.cusps
        if lhs != self.psl_index:
            raise AssertionError("genus formula integrality violated")
        if self.genus < 0:
            raise AssertionError("negative genus")

    def to_json_dict(self) -> dict:
        return {
            "psl_index": self.psl_index,
            "nu2": self.nu2,
            "nu3": self.nu3,
            "cusps": self.cusps,
            "genus": self.genus,
        }


def adjoin_minus_I(G: OpenSubgroup) -> OpenSubgroup:
    """The group generated by G and -I (equal to G when -I is present)."""
    if G.contains_minus_identity():
        return G
    m = G.modulus
    minus = kernels.neg(kernels.IDENTITY, m)
    elems = kernels.unique(
        np.concatenate([G.elements, kernels.neg_array(G.elements, m)]))
    return OpenSubgroup(G.prime, m, [*G.generators, minus], _elements=elems)


@lru_cache(maxsize=None)
def _psl_context(n: int) -> np.ndarray:
    """Sorted packed SL_2(Z/n), n a power of 2."""
    sl = kernels.closure([_packed(_U, n), kernels.pack(1, 0, 1, 1)], n)
    k = (n.bit_length() - 1)
    if len(sl) != 3 * 2 ** (3 * k - 2):
        raise AssertionError("SL_2 closure has the wrong order")
    return sl


def _packed(sigma: tuple[int, int, int, int], n: int) -> int:
    return kernels.pack(*(v % n for v in sigma))


def genus(G: OpenSubgroup) -> GenusData:
    """GenusData of X_G; requires surjective determinant.  Models below
    modulus 8 are lifted to 8 first, where the determinant test runs."""
    if G.prime == 2 and G.modulus < 8:
        G = G.lift(8)
    if not G.det_surjective_2adic():
        raise ValueError("genus is only defined here for surjective determinant")
    Gm = adjoin_minus_I(G)
    n = Gm.level()
    if n == 1:
        return GenusData(psl_index=1, nu2=1, nu3=1, cusps=1, genus=0)
    elems = Gm.reduce(n).elements
    h_sl = elems[kernels.det_array(elems, n) == 1]
    h = len(h_sl)
    sl = _psl_context(n)
    if len(sl) % h:
        raise AssertionError("|H cap SL_2| does not divide |SL_2|")
    m = len(sl) // h
    sl_inv = kernels.inv_array(sl, n)

    def fixed(sigma: tuple[int, int, int, int]) -> int:
        # H x is fixed by sigma iff x sigma x^-1 lies in H
        conj = kernels.mul_arrays(kernels.mul_array_scalar(sl, _packed(sigma, n), n),
                                  sl_inv, n)
        count = int(kernels.in_sorted(conj, h_sl).sum())
        if count % h:
            raise AssertionError("fixed-point count is not a multiple of |H cap SL_2|")
        return count // h

    nu2 = fixed(_S)
    nu3 = fixed(_T3)
    # x U^k x^-1 = I + k N_x with N_x = [[-ac, a^2], [-c^2, ac]]; the k that
    # land in H form d_x Z/n, and d_x is the least divisor of n that does.
    a, _, c, _ = kernels.unpack_array(sl)
    ac, aa, cc = a * c, a * a, c * c
    burnside = 0
    divisors = [d for d in range(1, n) if n % d == 0]
    for d in divisors:
        hit = kernels.in_sorted(kernels.pack_array(
            (1 - d * ac) % n, (d * aa) % n, (-d * cc) % n, (1 + d * ac) % n), h_sl)
        burnside += (n // d) * int(hit.sum())
        ac, aa, cc = ac[~hit], aa[~hit], cc[~hit]
    burnside += len(ac)  # d_x = n: only U^0
    if burnside % (n * h):
        raise AssertionError("Burnside sum is not a multiple of n |H cap SL_2|")
    cusps = burnside // (n * h)
    g = Fraction(1) + Fraction(m, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) \
        - Fraction(cusps, 2)
    if g.denominator != 1:
        raise AssertionError("genus formula returned a non-integer")
    return GenusData(psl_index=m, nu2=nu2, nu3=nu3, cusps=cusps, genus=int(g))


def label(G: OpenSubgroup) -> tuple[int, int, int]:
    """(level, index, genus) of G, the first three label components."""
    return G.level(), G.index_in_ambient(), genus(G).genus
