"""Genus of the modular curve attached to an open subgroup of GL_2(Z_2).

The curve only depends on G up to adjoining -I, so the pipeline is: adjoin
-I, reduce to the level N of the enlarged group, intersect with SL_2, push
into PSL_2(Z/N), and act on the right cosets.  The genus then comes from the
standard coset-action formula

    g = 1 + m/12 - nu2/4 - nu3/3 - c/2

with m the PSL index, nu2 / nu3 the fixed cosets of the standard order-2 and
order-3 elements, and c the orbit count of the unipotent translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import kernels
from .modmat import ResidueMatrix
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
    minus = ResidueMatrix(m, -1, 0, 0, -1)
    elems = np.unique(
        np.concatenate([G.elements, kernels.neg_array(G.elements, m)]))
    return OpenSubgroup(G.prime, m, list(G.generators) + [minus],
                        _elements=elems, element_budget=G.element_budget)


@lru_cache(maxsize=None)
def _psl_context(n: int):
    """(sorted SL_2(Z/n) packed array, sorted PSL representative array).

    PSL representatives are min(x, -x) packed values.
    """
    sl = kernels.closure([kernels.pack(*(v % n for v in _U)),
                          kernels.pack(1, 0, 1, 1)], n)
    k = (n.bit_length() - 1)
    if len(sl) != 3 * 2 ** (3 * k - 2):
        raise AssertionError("SL_2 closure has the wrong order")
    psl = np.unique(np.minimum(sl, kernels.neg_array(sl, n)))
    return sl, psl


def _psl_rep(xs: np.ndarray, n: int) -> np.ndarray:
    return np.minimum(xs, kernels.neg_array(xs, n))


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
    Gmn = Gm.reduce(n)
    elems = Gmn.elements
    h_sl = elems[kernels.det_array(elems, n) == 1]
    _, psl = _psl_context(n)

    # enumerate cosets: on first contact with a coset, materialize all of it
    coset_of: dict[int, int] = {}
    reps: list[int] = []

    def discover(x: int) -> int:
        members = _psl_rep(kernels.mul_array_scalar(h_sl, x, n), n)
        cid = len(reps)
        reps.append(x)
        for v in np.unique(members):
            coset_of[int(v)] = cid
        return cid

    discover(kernels.IDENTITY)
    gens = [kernels.pack(*(v % n for v in _U)), kernels.pack(1, 0, 1, 1)]
    head = 0
    while head < len(reps):
        r = reps[head]
        head += 1
        for s in gens:
            y = int(_psl_rep(np.array([kernels.mul(r, s, n)], dtype=np.int64), n)[0])
            if y not in coset_of:
                discover(y)
    m = len(reps)
    hbar_size = len(np.unique(_psl_rep(h_sl, n)))
    if m * hbar_size != len(psl) or len(coset_of) != len(psl):
        raise AssertionError("coset enumeration did not tile PSL_2")

    def perm(sigma: tuple[int, int, int, int]) -> list[int]:
        sp = kernels.pack(*(v % n for v in sigma))
        out = []
        for r in reps:
            y = int(_psl_rep(np.array([kernels.mul(r, sp, n)], dtype=np.int64), n)[0])
            out.append(coset_of[y])
        return out

    perm_s = perm(_S)
    perm_t = perm(_T3)
    perm_u = perm(_U)
    nu2 = sum(1 for j, t in enumerate(perm_s) if t == j)
    nu3 = sum(1 for j, t in enumerate(perm_t) if t == j)
    cusps = _orbit_count(perm_u)
    g = Fraction(1) + Fraction(m, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) \
        - Fraction(cusps, 2)
    if g.denominator != 1:
        raise AssertionError("genus formula returned a non-integer")
    return GenusData(psl_index=m, nu2=nu2, nu3=nu3, cusps=cusps, genus=int(g))


def _orbit_count(perm: list[int]) -> int:
    seen = [False] * len(perm)
    count = 0
    for i in range(len(perm)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return count


def label(G: OpenSubgroup) -> tuple[int, int, int]:
    """(level, index, genus) of G, the first three label components."""
    return G.level(), G.index_in_ambient(), genus(G).genus
