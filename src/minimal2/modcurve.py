"""Genus of the modular curve attached to an open subgroup of GL_2(Z_2).

The curve only depends on G up to adjoining -I, so the pipeline is: adjoin
-I, reduce to the level n of the enlarged group and intersect with SL_2,
giving H with -I in H.  SL_2(Z/n) acts on the right cosets of H as
PSL_2(Z/n) acts on those of H/{+-I}, and the genus comes from the standard
formula

    g = 1 + m/12 - nu2/4 - nu3/3 - c/2

with m = [SL_2 : H] the PSL index.  No coset is enumerated.  H x is fixed by
sigma iff x sigma x^-1 lies in H, and

    #{x in SL_2(Z/n) : x sigma x^-1 in H} = |C(sigma)| |Cl(sigma) cap H|,

with Cl(sigma) the conjugacy class of sigma in SL_2(Z/n) and C(sigma) its
centralizer, so nu2 and nu3 are that count over |H| for the standard
elements sigma of order 4 and 3.  The cusps, the orbits of the translation
U, follow from Burnside's lemma over <U> = Z/n:

    c = sum over x of #{k : x U^k x^-1 in H} / (n |H|).

The k in that set form d_x Z/n for a power of 2 d_x, so the same class count
for U, U^2, U^4, ..., U^(n/2) gives how many x have each d_x.

The classes and centralizer orders depend only on n.  Each class is grown
once per level, breadth-first under conjugation by the generators of
SL_2(Z/n), and cached; SL_2(Z/n) itself is never built, since
|SL_2(Z/2^k)| = 3 * 2^(3k-2) and |C(sigma)| = |SL_2| / |Cl(sigma)|.  A call
then costs one binary-search membership test in H of each class (at most
8192 elements at level 128).
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


def _packed(sigma: tuple[int, int, int, int], n: int) -> int:
    return kernels.pack(*(v % n for v in sigma))


def _conjugacy_class(sigma: tuple[int, int, int, int], n: int) -> np.ndarray:
    """Sorted packed class of sigma in SL_2(Z/n): its orbit under
    conjugation by the generators of SL_2, grown breadth-first."""
    gens = [_packed(_U, n), kernels.pack(1, 0, 1, 1)]  # U and its transpose
    cls = frontier = kernels.as_packed([_packed(sigma, n)])
    while frontier.size:
        cand = kernels.unique(kernels.conjugate_set(frontier, gens, n).ravel())
        frontier = cand[~kernels.in_sorted(cand, cls)]
        cls = kernels.unique(np.concatenate([cls, frontier]))
    return cls


@lru_cache(maxsize=None)
def _psl_context(n: int) -> tuple[int, tuple[tuple[np.ndarray, int], ...]]:
    """|SL_2(Z/n)| and the (class, centralizer order) pairs of S, T_3 and
    U^d for d = 1, 2, 4, ..., n/2, n >= 2 a power of 2."""
    k = n.bit_length() - 1
    order = 3 * 2 ** (3 * k - 2)
    tables = []
    for sigma in [_S, _T3] + [(1, 1 << j, 0, 1) for j in range(k)]:
        cls = _conjugacy_class(sigma, n)
        if order % len(cls):
            raise AssertionError("class size does not divide |SL_2|")
        tables.append((cls, order // len(cls)))
    return order, tuple(tables)


def genus(G: OpenSubgroup) -> GenusData:
    """GenusData of X_G; requires surjective determinant.  Models below
    modulus 8 are lifted to 8 first, where the determinant test runs.
    Computed once per group object and kept on it."""
    if G._genus is None:
        G._genus = _genus(G.lift(8) if G.prime == 2 and G.modulus < 8 else G)
    return G._genus


def _genus(G: OpenSubgroup) -> GenusData:
    if not G.det_surjective_2adic():
        raise ValueError("genus is only defined here for surjective determinant")
    Gm = adjoin_minus_I(G)
    n = Gm.level()
    if n == 1:
        return GenusData(psl_index=1, nu2=1, nu3=1, cusps=1, genus=0)
    elems = Gm.reduce(n).elements
    h_sl = elems[kernels.det_array(elems, n) == 1]
    h = len(h_sl)
    order, tables = _psl_context(n)
    if order % h:
        raise AssertionError("|H cap SL_2| does not divide |SL_2|")
    m = order // h
    # #{x : x sigma x^-1 in H} for sigma = S, T_3, U, U^2, ..., U^(n/2)
    counts = [cent * int(kernels.in_sorted(cls, h_sl).sum()) for cls, cent in tables]
    if any(count % h for count in counts):
        raise AssertionError("fixed-point count is not a multiple of |H cap SL_2|")
    nu2, nu3 = counts[0] // h, counts[1] // h
    # x U^k x^-1 = I + k N_x, so the k that land in H form d_x Z/n with d_x a
    # power of 2; the count for U^d is N_d = #{x : d_x | d}, and the N_d nest.
    nested = [0, *counts[2:], order]
    if any(a > b for a, b in zip(nested, nested[1:])):
        raise AssertionError("cusp counts N_d are not nested")
    burnside = sum((n >> j) * (nested[j + 1] - nested[j])
                   for j in range(len(nested) - 1))
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
