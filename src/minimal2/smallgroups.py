"""Dense Cayley-table engine for small matrix groups.

Where whole-subgroup-lattice questions are asked (the odd-prime falsifier,
the non-2-group witness sweep) the groups have a few hundred to a few
thousand elements, and an n x n index table beats packed-set closures: every
subgroup is a sorted array of element indices and products are table
gathers.  The table is multiplied out TABLE_BLOCK rows at a time.

Subgroup classes are enumerated by normal extensions of prime index (Holt,
Eick and O'Brien, Handbook of Computational Group Theory (2005), section
4.5).  From each stored representative S the walk takes the normaliser
N_G(S), with one table gather over the generators of S, and keeps each x
in N_G(S) outside S with x^p in S for a prime p.  Since x normalises S and
x^p lies in S, U = S u Sx u ... u Sx^(p-1) is a group in which S is normal
of index p, built with p - 1 gathers and no closure.  Every y in U outside
S gives the same U with the same p (y^q in S for a second prime q would
put y in S), so all of U is marked covered.  One set holds every member
of every class orbit found so far: a U outside it starts a new class, and
its orbit is walked once, added to the set, and its minimum kept as the
class's key.

Completeness.  A subgroup U that is not perfect has U' < U, so the abelian
group U/U' has a subgroup of prime index, and U has a normal subgroup S of
prime index p.  By induction on |U|, some conjugate gSg^-1 is a stored
representative, and gUg^-1 is one of its extensions: if an x in gUg^-1
outside gSg^-1 was covered, it was covered by an extension of the same
index p over the same representative, which is gUg^-1.  So the walk reaches
every class once it is seeded with every perfect subgroup up to conjugacy.
A perfect subgroup lies in every term of the derived series of G, hence in
its last term P.  A perfect group has no proper subgroup of index below 5
(the coset action would map it onto a transitive subgroup of S_4, which is
solvable), and every group of order below 60 is solvable; so when
|P| < 300 the only perfect subgroups are 1 and P, and the walk is seeded
with both.  GL_2(F_3) and GL_2(Z/8) are solvable (P = 1); for GL_2(F_5),
P = SL_2(F_5), of order 120.  The derived series takes a few closures:
each term is the normal closure of the commutators of the generators of
the term before.

The output does not depend on the order of the walk.  Each class is given
by its orbit-minimal representative (its conjugacy key, read back as
indices), the classes are sorted by (order, key), and each generator list
is greedy: the least element of the class outside the group generated so
far, one closure per generator.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .modmat import _prime_factors
from .subgroups import ORBIT_BUDGET

TABLE_BUDGET = 8192  # elements in the largest table
TABLE_BLOCK = 32  # rows multiplied out at once while building a table


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
        for lo in range(0, n, TABLE_BLOCK):
            prods = kernels.mul_arrays(elements[lo:lo + TABLE_BLOCK, None],
                                       elements[None, :], modulus)
            pos = np.searchsorted(elements, prods)
            if pos.max(initial=0) >= n or not np.array_equal(elements[pos], prods):
                raise ValueError("element set is not closed under multiplication")
            table[lo:lo + TABLE_BLOCK] = pos
        self.table = table
        self.identity = kernels.index_of(elements, kernels.IDENTITY)
        inv = np.empty(n, dtype=np.int32)
        rows, cols = np.nonzero(table == self.identity)
        inv[rows] = cols
        self.inverse = inv
        self.generator_indices = list(generator_indices or [])
        self._orders: np.ndarray | None = None
        self._conj_perms: np.ndarray | None = None

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

    # -- subgroups -------------------------------------------------------------

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

    def _generate(self, candidates, sub=None, gens=()):
        """(group, generators) grown from sub, whose generators are gens, by
        each candidate in turn that the group does not yet contain."""
        cand = np.asarray(candidates, dtype=np.int32)
        gens = list(gens)
        if sub is None:
            sub = np.array([self.identity], dtype=np.int32)
        known = np.zeros(self.n, dtype=bool)
        known[sub] = True
        while True:
            left = cand[~known[cand]]
            if not left.size:
                return sub, gens
            gens.append(int(left[0]))
            sub = self.closure_indices(gens, sub)
            known[sub] = True

    def derived_series(self) -> list[tuple[np.ndarray, list[int]]]:
        """G = G_0 > G_1 > ... down to the first perfect term, each as
        (sorted index array, generator list).  G_(k+1) is the normal closure
        in G_k of the commutators of the generators of G_k: conjugates of
        its generators by those of G_k are added until none is new."""
        if not self.generator_indices:
            raise ValueError("table was built without generator indices")
        t, inv = self.table, self.inverse
        series = [(np.arange(self.n, dtype=np.int32), list(self.generator_indices))]
        while len(series[-1][0]) > 1:
            sub, gens = series[-1]
            g = np.asarray(gens, dtype=np.int32)
            ab = t[g[:, None], g]
            der, dgens = self._generate(t[inv[ab.T], ab].ravel())  # (ba)^-1 ab
            while True:
                d = np.asarray(dgens, dtype=np.int32)
                conj = t[t[g[:, None], d], inv[g][:, None]].ravel()
                grown, dgens = self._generate(conj, der, dgens)
                if len(grown) == len(der):
                    break
                der = grown
            if len(der) == len(sub):
                break
            series.append((der, dgens))
        return series

    def conj_permutations(self) -> np.ndarray:
        """Conjugation permutations x -> g x g^-1, one row per table
        generator g."""
        if self._conj_perms is None:
            if not self.generator_indices:
                raise ValueError("table was built without generator indices")
            g = np.array(self.generator_indices)
            self._conj_perms = self.table[self.table[g], self.inverse[g][:, None]]
        return self._conj_perms

    def conjugation_orbit(self, idx: np.ndarray) -> set[bytes]:
        """The sorted index tuples, as bytes, of every member of the
        conjugation orbit of the subgroup idx.

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
        return orbit

    def canonical_subgroup_key(self, idx: np.ndarray) -> bytes:
        """Minimal sorted index tuple over the full conjugation orbit."""
        return min(self.conjugation_orbit(idx))

    def subgroup_classes(self) -> list[tuple[np.ndarray, list[int]]]:
        """Conjugacy-class representatives of all subgroups, as (sorted
        index array, generator index list) pairs sorted by (order, key).

        The walk by normal extensions of prime index and why it is complete
        are in the module docstring.  Each representative is the least
        member of its conjugation orbit, and its generators are greedy.
        """
        perfect, perfect_gens = self.derived_series()[-1]
        if len(perfect) >= 300:
            raise ValueError(f"the last derived subgroup has order {len(perfect)}: "
                             "a perfect subgroup of order 60 or more could be missed")
        t, inv = self.table, self.inverse
        every = np.arange(self.n, dtype=np.int32)
        powers = {}  # p -> the map x -> x^p, for each prime p dividing |G|
        for p in _prime_factors(self.n):
            power = every
            for _ in range(p - 1):
                power = t[power, every]
            powers[p] = power
        walk = [(np.array([self.identity], dtype=np.int32), [])]
        if len(perfect) > 1:
            walk.append((perfect, perfect_gens))
        seen = set()  # every member of every class orbit found so far
        keys = []
        for sub, _ in walk:
            orbit = self.conjugation_orbit(sub)
            seen |= orbit
            keys.append(min(orbit))
        for sub, gens in walk:  # grows while it is walked
            inside = np.zeros(self.n, dtype=bool)
            inside[sub] = True
            covered = inside.copy()
            g = np.asarray(gens, dtype=np.int32)
            normalises = inside[t[t[:, g], inv[:, None]]].all(axis=1)
            for p, power in powers.items():
                for x in np.flatnonzero(normalises & inside[power]).tolist():
                    if covered[x]:
                        continue
                    cosets, y = [sub], x
                    for _ in range(p - 1):
                        cosets.append(t[sub, y])
                        y = int(t[y, x])
                    ext = np.sort(np.concatenate(cosets))
                    covered[ext] = True
                    if ext.tobytes() in seen:
                        continue
                    orbit = self.conjugation_orbit(ext)
                    seen |= orbit
                    keys.append(min(orbit))
                    walk.append((ext, gens + [x]))
        out = []
        for key in sorted(keys, key=lambda k: (len(k), k)):
            rep = np.frombuffer(key, dtype=np.int32).copy()
            out.append((rep, self._generate(rep)[1]))
        return out
