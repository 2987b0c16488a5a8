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

Each extension is computed once per double coset S x S, not once per
element x: for s, t in S, <S, s x t> = <S, x> as a set, so every other
candidate of the double coset would only rebuild a set already seen.
Skipping them leaves the output (classes, their order, their generator
lists) unchanged.
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
        self._conj_perms: list[np.ndarray] | None = None

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

    def closure_indices(self, gen_idx) -> np.ndarray:
        """Sorted indices of the subgroup generated by the given indices."""
        gen_idx = sorted(set(int(g) for g in gen_idx) | {self.identity})
        known = np.zeros(self.n, dtype=bool)
        known[gen_idx] = True
        frontier = np.array(gen_idx, dtype=np.int64)
        while len(frontier):
            prods = self.table[np.ix_(frontier, gen_idx)].ravel()
            prods = kernels.unique(prods)
            fresh = prods[~known[prods]]
            known[fresh] = True
            frontier = fresh
        return np.nonzero(known)[0].astype(np.int32)

    def conj_permutations(self) -> list[np.ndarray]:
        """Conjugation permutations x -> g x g^-1 for the table's generators."""
        if self._conj_perms is None:
            if not self.generator_indices:
                raise ValueError("table was built without generator indices")
            perms = []
            for g in self.generator_indices:
                gi = int(self.inverse[g])
                perms.append(self.table[self.table[g, :], gi])
            self._conj_perms = perms
        return self._conj_perms

    def canonical_subgroup_key(self, idx: np.ndarray) -> bytes:
        """Minimal sorted index tuple over the full conjugation orbit."""
        perms = self.conj_permutations()
        start = np.sort(np.asarray(idx, dtype=np.int32))
        best = start.tobytes()
        seen = {best}
        frontier = [start]
        while frontier:
            s = frontier.pop()
            for perm in perms:
                t = np.sort(perm[s]).astype(np.int32)
                kb = t.tobytes()
                if kb not in seen:
                    if len(seen) >= ORBIT_BUDGET:
                        raise kernels.BudgetExceeded("subgroup orbit too large")
                    seen.add(kb)
                    frontier.append(t)
                    if kb < best:
                        best = kb
        return best

    def subgroup_classes(self, base_idx=None):
        """Conjugacy-class representatives of all subgroups containing
        <base_idx> (all subgroups when base_idx is None).

        Returns a list of (sorted index array, generator index list) pairs.

        One closure per double coset S x S of each stored S: once <S, x> is
        built, the whole double coset is marked covered and its other
        elements are skipped.  Each of them generates the same set <S, x>
        with S, so it would have hit ``seen_sets`` and been dropped; the
        output is the same as with one closure per candidate.
        """
        base_gens = [int(v) for v in (base_idx or [])]
        base = self.closure_indices(base_gens)
        candidates = self.prime_power_order_indices()
        out = [(base, base_gens)]
        seen_sets = {np.sort(base).astype(np.int32).tobytes()}
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
                ext = self.closure_indices(gens + [int(x)])
                covered[self.table[np.ix_(self.table[sub, x], sub)]] = True
                kb = ext.astype(np.int32).tobytes()
                if kb in seen_sets:
                    continue
                seen_sets.add(kb)
                key = self.canonical_subgroup_key(ext)
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                out.append((ext, gens + [int(x)]))
        return out
