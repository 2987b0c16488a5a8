"""Dense Cayley-table engine for small matrix groups.

Where whole-subgroup-lattice questions are asked (the odd-prime falsifier,
the non-2-group witness sweep) the groups have a few hundred to a few
thousand elements, and an n x n index table beats packed-set closures: every
subgroup is a sorted array of element indices and products are table
gathers.

Subgroup enumeration walks single-element extensions S -> <S, x> with x of
prime-power order, deduplicating by a conjugacy canonical key.  Extensions by
prime-power elements reach every subgroup (each element is a product of its
prime-power components), and running them on class representatives reaches
every class: a chain for T conjugates, step by step, onto a chain through the
stored representatives.

Each extension is computed once per candidate x left uncovered, not once
per element: for s, t in S and y a generator of <x>, <S, s y t> = <S, x> as
a set, so once <S, x> is built, the double cosets S y S of all generators
y = x^k, gcd(k, ord x) = 1, are covered, and every candidate in them would
only rebuild a set already seen.  Skipping them leaves the output (classes,
their order, their generator lists) unchanged.  The extension is grown from
S by right cosets (Dimino's algorithm, as in ``kernels.coset_closure``), one
table gather per round of new cosets.  See Holt, Eick and O'Brien, Handbook
of Computational Group Theory (2005), section 4.5, for this cyclic extension
method.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .modmat import _prime_factors
from .subgroups import ORBIT_BUDGET

TABLE_BUDGET = 8192  # elements in the largest table


class FiniteGroupTable:
    """Multiplication table of a group of packed matrices mod m."""

    def __init__(self, elements: np.ndarray, modulus: int, generator_indices=None):
        n = len(elements)
        if n > TABLE_BUDGET:
            raise kernels.BudgetExceeded(f"table for {n} elements refused")
        self.elements = elements
        self.modulus = modulus
        self.n = n
        table = np.empty((n, n), dtype=np.int32)
        for i in range(n):
            row = kernels.mul_array_scalar(elements, int(elements[i]), modulus,
                                           right=False)
            pos = np.searchsorted(elements, row)
            if pos.max(initial=0) >= n or not np.array_equal(elements[pos], row):
                raise ValueError("element set is not closed under multiplication")
            table[i] = pos
        self.table = table
        self.identity = kernels.index_of(elements, kernels.IDENTITY)
        inv = np.empty(n, dtype=np.int32)
        rows, cols = np.nonzero(table == self.identity)
        inv[rows] = cols
        self.inverse = inv
        self.generator_indices = list(generator_indices or [])
        self._orders: np.ndarray | None = None
        self._conj_perms: np.ndarray | None = None
        self._cyclic_generators: list[np.ndarray] | None = None

    @classmethod
    def from_generators(cls, gens_packed, modulus: int) -> "FiniteGroupTable":
        elems = kernels.closure(list(gens_packed), modulus, cap=TABLE_BUDGET)
        gen_idx = [kernels.index_of(elems, g) for g in gens_packed]
        return cls(elems, modulus, generator_indices=gen_idx)

    # -- per-element data ----------------------------------------------------

    def orders(self) -> np.ndarray:
        if self._orders is None:
            self._orders = kernels.order_array(self.elements, self.modulus)
        return self._orders

    def prime_power_order_indices(self) -> np.ndarray:
        """Indices of elements of prime-power order (identity excluded)."""
        return np.flatnonzero([len(_prime_factors(int(o))) == 1
                               for o in self.orders()])

    # -- subgroups -------------------------------------------------------------

    def cyclic_generators(self) -> list[np.ndarray]:
        """For each element x, the indices of the generators x^k of <x>,
        gcd(k, ord x) = 1, with k ascending from 1."""
        if self._cyclic_generators is None:
            orders = self.orders()[:, None]
            powers = np.empty((self.n, int(orders.max())), dtype=np.int32)
            powers[:, 0] = np.arange(self.n)
            for k in range(1, powers.shape[1]):
                powers[:, k] = self.table[powers[:, k - 1], powers[:, 0]]
            ks = np.arange(1, powers.shape[1] + 1)
            keep = (ks <= orders) & (np.gcd(ks, orders) == 1)
            self._cyclic_generators = [row[m] for row, m in zip(powers, keep)]
        return self._cyclic_generators

    def closure_indices(self, gen_idx, sub=None) -> np.ndarray:
        """Sorted indices of the subgroup generated by S and gen_idx.

        S is given by sub, its sorted index array (the trivial group by
        default); when it is given, gen_idx must hold generators of S.  The
        group is grown from S one right coset S r at a time, as in
        ``kernels.coset_closure``: a union of right cosets of S is closed
        under right multiplication by each generator s exactly when every
        r s lies in it.  Each round gathers S times all the unknown
        candidates r s in one table lookup; the cosets are disjoint, so a
        coset is named by its minimum and one candidate is kept per minimum.
        """
        gens = np.asarray(gen_idx, dtype=np.int32)
        sub = np.array([self.identity]) if sub is None else np.asarray(sub)
        known = np.zeros(self.n, dtype=bool)
        known[sub] = True
        cand = gens
        while True:
            cand = cand[~known[cand]]
            if not cand.size:
                return np.flatnonzero(known).astype(np.int32)
            cosets = self.table[sub[:, None], cand]
            if cand.size > 1:
                lows = cosets.min(axis=0).tolist()
                pick = list({low: i for i, low in enumerate(lows)}.values())
                cosets, cand = cosets[:, pick], cand[pick]
            known[cosets] = True
            cand = self.table[cand[:, None], gens].ravel()

    def conj_permutations(self) -> np.ndarray:
        """Conjugation permutations x -> g x g^-1, one row per table
        generator g."""
        if self._conj_perms is None:
            if not self.generator_indices:
                raise ValueError("table was built without generator indices")
            g = np.array(self.generator_indices)
            self._conj_perms = self.table[self.table[g], self.inverse[g][:, None]]
        return self._conj_perms

    def canonical_subgroup_key(self, idx: np.ndarray) -> bytes:
        """Minimal sorted index tuple over the full conjugation orbit.

        The orbit is walked one layer at a time, as in
        ``subgroups.OpenSubgroup._conjugation_orbit``: the members new in a
        layer are stacked into a (k, s) array and mapped by every
        conjugation permutation at once.
        """
        perms = self.conj_permutations()
        layer = np.sort(np.asarray(idx, dtype=np.int32))[None, :]
        s = layer.shape[1]
        orbit = {layer[0].tobytes()}
        while len(layer):
            fresh = []
            for row in np.sort(perms[:, layer], axis=-1).reshape(-1, s):
                kb = row.tobytes()
                if kb not in orbit:
                    if len(orbit) >= ORBIT_BUDGET:
                        raise kernels.BudgetExceeded("subgroup orbit too large")
                    orbit.add(kb)
                    fresh.append(row)
            layer = np.array(fresh, dtype=np.int32).reshape(-1, s)
        return min(orbit)

    def subgroup_classes(self, base_idx=None):
        """Conjugacy-class representatives of all subgroups containing
        <base_idx> (all subgroups when base_idx is None).

        Returns a list of (sorted index array, generator index list) pairs.

        One closure per candidate x left uncovered in each stored S: the
        extension <S, x> is grown from S by right cosets, and then the
        double coset S y S of every generator y of <x> is marked covered.
        Each covered element z generates the same set <S, z> = <S, x> with
        S, so it would have hit ``seen_sets`` and been dropped; the output
        is the same as with one closure per candidate.
        """
        base_gens = [int(v) for v in (base_idx or [])]
        base = self.closure_indices(base_gens)
        candidates = self.prime_power_order_indices().tolist()
        cyclic = self.cyclic_generators()
        out = [(base, base_gens)]
        seen_sets = {base.tobytes()}
        seen_keys = {self.canonical_subgroup_key(base)}
        head = 0
        while head < len(out):
            sub, gens = out[head]
            head += 1
            covered = np.zeros(self.n, dtype=bool)
            covered[sub] = True
            for x in candidates:
                if covered[x]:
                    continue
                ext = self.closure_indices(gens + [x], sub)
                for y in cyclic[x]:
                    if not covered[y]:
                        covered[self.table[self.table[sub, y][:, None], sub]] = True
                kb = ext.tobytes()
                if kb in seen_sets:
                    continue
                seen_sets.add(kb)
                key = self.canonical_subgroup_key(ext)
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                out.append((ext, gens + [x]))
        return out
