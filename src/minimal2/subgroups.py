"""Open subgroups of GL_2(Z_p) represented at a finite prime-power modulus.

An OpenSubgroup stores generators mod p^k, as packed ints (see kernels), and
stands for the full preimage of the generated group in GL_2(Z_p).  Element
sets are frozen sorted arrays of packed matrices; membership of one
element is binary search.  Level, index, determinant surjectivity,
Frattini quotient, index-2 subgroups, nilpotency and a conjugacy canonical
key are all computed from the element set.

The Frattini machinery applies to 2-group images, the only case the search
needs.  For a finite 2-group Phi(H) = <x^2 : x in H>, since every commutator
[x, y] = x^-2 (x y^-1)^2 y^2 is a product of squares, so Phi(H) is the
closure of the squares.  ``OpenSubgroup.frattini_subgroup`` grows it as in
Dimino's algorithm: the first missing square gives its powers, and each
further missing square g extends the group C built so far one whole right
coset C y at a time (``kernels.coset_closure``), never re-multiplying C by
the old generators.

A subgroup K with Phi(H) <= K <= H, such as a hyperplane subgroup, needs no
growth.  Its squares are squares of H, and the squares of Phi(H) are
squares of K, so Phi(Phi(H)) <= Phi(K) <= Phi(H).  Hence Phi(K) is the
preimage of the span of the images of the squares of K in the small
elementary abelian group V = Phi(H)/Phi(Phi(H)).  A group built with a
``_parent`` link (the census links its hyperplane children so, and its
lifted children to a parent model that holds only Phi) keeps it until it
knows its Phi; the parent lays out V once, when a child first asks, and
the child masks Phi(H) by the F_2 span of its squares' coordinates.
``hyperplane_subgroup`` returns unlinked groups, which grow their Phi from
the squares.

The quotient H/Phi(H) is then laid out coset by coset: the first element
of H, in sorted packed order, outside the part labelled so far becomes the
next basis vector, and right-multiplying the labelled part by it labels one
new layer of cosets.  By the Burnside basis theorem the generators of H
generate exactly when their coordinate vectors span F_2^rank, which is
checked on every quotient.  A sweep, run by default whatever the group's
size, re-checks all generator edges and the index of Phi.  It checks no
squares or commutators: the edge check, coords(x g) = coords(x) +
coords(g) for every x and generator g, already makes the coordinates a
homomorphism onto the elementary abelian F_2^rank, which kills every
square and every commutator.

Both the layers and the sweep look up a whole array the size of H in H, so
they merge sorted keys (``kernels.keyed``: element in the high half,
coordinates in the low half) instead of binary-searching: the labelled
part is one sorted key array that each layer joins by one sort, and the
sweep sorts the keys of the edges x -> x g once per generator and compares
them with the keys of the quotient.

Conjugacy dedup walks only the conjugates that can occur.  Let S = {c = 0
mod 2} be the pro-2 Sylow subgroup and Gamma(2) the kernel of reduction mod
2; every census node lies in S.  If H <= S and H is not inside Gamma(2),
then H mod 2 is the subgroup of GL_2(F_2) = S_3 generated by a
transposition, which is its own normaliser.  So g H g^-1 <= S forces g in
S: the conjugates of H inside S are exactly its S-conjugates, a third as
many as its G-conjugates, and ``conjugacy_digests`` walks them with the
generators of S (``sylow_conjugators``).  Gamma(2) is normal in G, so every
conjugate of a group inside it lies in S; such groups, and groups not
inside S, keep the walk by the ambient generators, as does
``canonical_key``, the minimum over the whole G-orbit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import kernels
from .modmat import _prime_factors, _prime_power, gl2_order

# An orbit is never larger than the index, so this binds only on groups of
# index above 4096.
ORBIT_BUDGET = 4096

# Conjugates per kernels.conjugate_set call in an orbit walk.  Every batch
# of census(16, 48) is smaller, so a small model's layer is one call.  Over
# the 64 walks of 65536-element models in the genus-0 census(64, 96)
# (2-vCPU Xeon, CPU s per pass), caps of 2^13 to 2^17, one member by one or
# two of the four generators, took 15-18 s; 2^18, all four, 18-21 s; whole
# layers 28 s.
_ORBIT_BATCH = 1 << 15

UNIT_RESIDUES_MOD_8 = frozenset((1, 3, 5, 7))


def _parity(v: np.ndarray) -> np.ndarray:
    """Bitwise parity (popcount mod 2) of each entry, vectorized."""
    v = v.copy()
    v ^= v >> 16
    v ^= v >> 8
    v ^= v >> 4
    v ^= v >> 2
    v ^= v >> 1
    return v & 1


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass
class FrattiniQuotient:
    """The quotient H/Phi(H) of a finite 2-group, with explicit coordinates.

    basis holds rank packed coset representatives whose coordinate vectors
    are the unit vectors; coordinates are additive: coords(xy) = coords(x) +
    coords(y) over F_2.
    """

    rank: int
    basis: list[int]
    _modulus: int
    _elements: np.ndarray
    _coords: np.ndarray  # uint32, parallel to _elements, basis-adapted

    def coords(self, x: int) -> tuple[int, ...]:
        i = kernels.index_of(self._elements, x)
        if i < 0:
            raise ValueError("element not in the subgroup")
        v = int(self._coords[i])
        return tuple((v >> j) & 1 for j in range(self.rank))

    def hyperplane_mask(self, mu: int) -> np.ndarray:
        """Boolean mask of the index-2 subgroup killed by the functional mu."""
        if not 0 < mu < (1 << self.rank):
            raise ValueError(f"mu must be a nonzero {self.rank}-bit mask")
        return _parity(self._coords & np.uint32(mu)) == 0


def _positions(elements: np.ndarray, xs: np.ndarray, missing: str) -> np.ndarray:
    """Indices of xs in the sorted element set; raises AssertionError with
    the given message when some x is absent."""
    pos = np.searchsorted(elements, xs)
    pos[pos >= len(elements)] = 0
    if not (elements[pos] == xs).all():
        raise AssertionError(missing)
    return pos


def _frattini_layers(elements: np.ndarray, phi: np.ndarray, modulus: int):
    """Basis and coordinates of H/Phi(H) for the 2-group with these elements,
    given the sorted element array of Phi(H).

    The labelled part is one sorted key array of (element, coordinates),
    starting from Phi with coordinates 0.  Basis element k is the first
    element of H where the labelled elements stop matching H, and right
    multiplication by it labels the next coset layer, merged in by one
    sort.  Returns (packed basis elements, uint32 coordinate array).
    """
    labelled = kernels.keyed(phi, 0)
    basis: list[int] = []
    while len(labelled) < len(elements):
        values = kernels.key_values(labelled)
        same = values == elements[:len(values)]
        b = int(elements[len(values) if same.all() else np.argmin(same)])
        layer = kernels.keyed(kernels.mul_array_scalar(values, b, modulus),
                              kernels.key_labels(labelled) | np.uint32(1 << len(basis)))
        labelled = np.sort(np.concatenate([labelled, layer]))
        basis.append(b)
    if not np.array_equal(kernels.key_values(labelled), elements):
        raise AssertionError("element set is not closed under multiplication")
    return basis, kernels.key_labels(labelled)


def _level_and_image(elements: np.ndarray, modulus: int, prime: int,
                     start: int = 1, stop: int | None = None):
    """(level, sorted image mod level) of the group with these
    mod-``modulus`` elements, trying n = start, start*p, ... up to stop
    (default: modulus).  The group is the full preimage of its image mod n
    exactly when |H| = |H mod n| * |ker(GL_2(Z/modulus) -> GL_2(Z/n))|.

    start must divide the level: a subgroup's level is a multiple of the
    level of any group containing it, so a parent's level is a valid start
    for its children.  Returns None when the level is above stop.
    """
    n = start
    stop = modulus if stop is None else stop
    while n <= stop:
        if n == modulus:
            return n, elements
        kernel = gl2_order(modulus) // gl2_order(n)
        if len(elements) % kernel == 0:
            image = kernels.unique(kernels.reduce_array(elements, n))
            if len(image) * kernel == len(elements):
                return n, image
        n *= prime
    return None


def _f2_rank(vectors) -> int:
    """Rank over F_2 of int bitmask vectors."""
    rows: list[int] = []  # distinct leading bits, descending
    for v in vectors:
        for row in rows:
            v = min(v, v ^ row)
        if v:
            rows.append(v)
            rows.sort(reverse=True)
    return len(rows)


class OpenSubgroup:
    """Finite-modulus model of an open subgroup of GL_2(Z_p).

    The object denotes the full preimage of <generators> under reduction
    from GL_2(Z_p); models at different moduli denote the same open group
    when one is the lift of the other.  Immutable after construction.

    Each generator is a packed int (a Python or numpy integer) or a sequence
    of the four entries (a, b, c, d); entries are reduced mod the modulus,
    and ``generators`` holds the packed results.
    """

    def __init__(self, prime: int, modulus: int, generators, _elements=None,
                 _parent: "OpenSubgroup | None" = None):
        p = _packable_prime(modulus)
        if p != prime:
            raise ValueError(f"modulus {modulus} is not a power of {prime}")
        gens = []
        for g in generators:
            if isinstance(g, (int, np.integer)):
                g = kernels.unpack(int(g))
            x = kernels.pack(*(int(v) % modulus for v in g))
            if kernels.det(x, p) == 0:
                raise ValueError(f"generator {kernels.unpack(x)} is not "
                                 f"invertible mod {modulus}")
            gens.append(x)
        self.prime = prime
        self.modulus = modulus
        self.generators: tuple[int, ...] = tuple(gens)
        self._elements = _elements
        # a group H with Phi(H) <= self <= H, kept until Phi(self) is known
        self._parent = _parent
        self._phi: np.ndarray | None = None
        # coordinates of Phi in Phi/Phi(Phi), laid out when a child first asks
        self._phi_coords: np.ndarray | None = None
        self._level: int | None = None
        self._fq: FrattiniQuotient | None = None
        self._fq_verified = False
        # conjugation orbits, by conjugator list
        self._orbits: dict[tuple[int, ...], frozenset[bytes]] = {}
        self._genus = None  # modcurve.GenusData, kept by modcurve.genus

    # -- element set ---------------------------------------------------------

    @property
    def elements(self) -> np.ndarray:
        if self._elements is None:
            self._elements = kernels.closure(self.generators, self.modulus)
        return self._elements

    def order(self) -> int:
        return len(self.elements)

    def contains(self, x: int) -> bool:
        return kernels.contains(self.elements, x)

    def contains_minus_identity(self) -> bool:
        return self.contains(kernels.neg(kernels.IDENTITY, self.modulus))

    def index_in_ambient(self) -> int:
        total = gl2_order(self.modulus)
        n = self.order()
        if total % n:
            raise AssertionError("element count does not divide the ambient order")
        return total // n

    def is_two_group(self) -> bool:
        n = self.order()
        return n & (n - 1) == 0

    # -- level, reduction, lift ------------------------------------------------

    def level(self) -> int:
        """Smallest p^j such that the group is the preimage of its mod-p^j image."""
        if self._level is None:
            self._level, _ = _level_and_image(self.elements, self.modulus,
                                             self.prime)
        return self._level

    def reduce(self, m2: int) -> "OpenSubgroup":
        """Image mod m2: the same open group, with the same level, when level | m2."""
        if m2 < 2 or self.modulus % m2 != 0:
            raise ValueError(f"{m2} does not divide modulus {self.modulus}")
        elems = None
        if self._elements is not None:
            elems = kernels.unique(kernels.reduce_array(self._elements, m2))
        out = OpenSubgroup(self.prime, m2, self.generators, _elements=elems)
        if self._level is not None and m2 % self._level == 0:
            out._level = self._level
        return out

    def lift(self, m2: int) -> "OpenSubgroup":
        """Full preimage at the larger modulus m2: the same open group and level."""
        if m2 % self.modulus != 0:
            raise ValueError(f"{self.modulus} does not divide {m2}")
        if m2 == self.modulus:
            return self
        m = self.modulus
        # I + m E_ij generate the kernel of reduction mod m, except from
        # m = 2, where their dets lie in {1, 3} mod 8 and I + 4 E_ij are
        # needed as well.
        steps = [m, 4] if m == 2 and m2 >= 8 else [m]
        kernel_gens = [g for e in steps
                       for g in ((1 + e, 0, 0, 1), (1, e, 0, 1),
                                 (1, 0, e, 1), (1, 0, 0, 1 + e))]
        elems = None
        if self._elements is not None:
            ratio4 = (m2 // m) ** 4
            if len(self._elements) * ratio4 > kernels.ELEMENT_BUDGET:
                raise kernels.BudgetExceeded(
                    f"lift to modulus {m2} exceeds the element budget")
            elems = kernels.lift_array(self._elements, m, m2)
        out = OpenSubgroup(self.prime, m2, [*self.generators, *kernel_gens],
                           _elements=elems)
        out._level = self._level
        return out

    # -- determinant ------------------------------------------------------------

    def det_surjective_2adic(self) -> bool:
        """True iff det of the full preimage is all of Z_2^x.

        A closed subgroup of Z_2^x with full image mod 8 contains the square
        of a residue-3 unit, which generates 1 + 8Z_2 topologically, so
        fullness mod 8 already certifies 2-adic fullness.  The minimality
        module re-derives this lemma by brute force before relying on it.
        """
        if self.prime != 2:
            raise ValueError("the 2-adic determinant test needs p = 2")
        if self.modulus < 8:
            raise ValueError("modulus must be at least 8")
        return kernels.det_image(self.elements, self.modulus, 8) == UNIT_RESIDUES_MOD_8

    # -- Frattini quotient and maximal subgroups ---------------------------------

    def frattini_subgroup(self) -> np.ndarray:
        """Phi(H) = <x^2 : x in H> as a sorted element array; input must be
        a 2-group.

        A group built with a parent link reads it off the parent (see the
        module docstring) and drops the link; any other group grows it
        from its squares."""
        if self._phi is None:
            if not self.is_two_group():
                raise ValueError("Frattini subgroup implemented for 2-groups only")
            squares = kernels.square_array(self.elements, self.modulus)
            if self._parent is None:
                _, self._phi = _greedy_generators(kernels.unique(squares), self.modulus)
            else:
                self._phi = self._parent._phi_below(squares)
                self._parent = None
        return self._phi

    def _phi_below(self, squares: np.ndarray) -> np.ndarray:
        """Phi(K) for a subgroup K with Phi(H) <= K <= H, from the squares
        of K: the elements of Phi(H) whose coordinates in
        V = Phi(H)/Phi(Phi(H)) lie in the F_2 span of the squares'."""
        phi = self.frattini_subgroup()
        if self._phi_coords is None:
            _, phi_phi = _greedy_generators(
                kernels.unique(kernels.square_array(phi, self.modulus)), self.modulus)
            _, self._phi_coords = _frattini_layers(phi, phi_phi, self.modulus)
        found = self._phi_coords[_positions(phi, squares, "a square outside Phi(H)")]
        span = {0}
        for v in np.flatnonzero(np.bincount(found)).tolist():
            if v not in span:
                span |= {s ^ v for s in span}
        return phi[kernels.in_sorted(self._phi_coords,
                                     np.sort(kernels.as_packed(list(span))))]

    def frattini_quotient(self, verify: bool = True) -> FrattiniQuotient:
        """Quotient by Phi(H) = <x^2 : x in H>; input must be a 2-group.

        With verify (the default) the exhaustive sweep runs once per group,
        whatever its size."""
        if self._fq is None:
            elements = self.elements
            basis_packed, coords = _frattini_layers(elements, self.frattini_subgroup(),
                                                    self.modulus)
            rank = len(basis_packed)
            gens = kernels.as_packed(self.generators)
            missing = "generators do not generate the element set"
            gen_coords = coords[_positions(elements, gens, missing)]
            if _f2_rank(int(c) for c in gen_coords) != rank:
                raise AssertionError(missing)
            self._fq = FrattiniQuotient(
                rank=rank,
                basis=basis_packed,
                _modulus=self.modulus,
                _elements=elements,
                _coords=coords)
        if verify and not self._fq_verified:
            self._verify_frattini(self._fq)
            self._fq_verified = True
        return self._fq

    def _verify_frattini(self, fq: FrattiniQuotient):
        """Exhaustive sweep: coordinates are multiplicative on every edge,
        and Phi has index 2^rank.

        Squares and commutators need no check of their own: coords(x g) =
        coords(x) xor coords(g) for every x and generator g makes coords a
        homomorphism onto the elementary abelian F_2^rank, which sends
        every commutator and every square to 0."""
        elements, coords, m = self.elements, fq._coords, self.modulus
        gen_coords = coords[_positions(elements, kernels.as_packed(self.generators),
                                       "a generator outside the element set")]
        for gp, gc in zip(self.generators, gen_coords):
            # sorted, the keys of the edges x -> x g split into the element
            # set and its coordinates exactly when x -> x g maps the set
            # onto itself and coords(x g) = coords(x) ^ coords(g) on every
            # edge
            xg = kernels.keyed(kernels.mul_array_scalar(elements, gp, m), coords ^ gc)
            xg.sort()
            if not np.array_equal(kernels.key_values(xg), elements):
                raise AssertionError("a product x g outside the element set")
            if not np.array_equal(kernels.key_labels(xg), coords):
                raise AssertionError("coordinates are not multiplicative")
            del xg
        n_phi = int((coords == 0).sum())
        if n_phi << fq.rank != len(elements):
            raise AssertionError("Phi index does not match the rank")

    def hyperplane_subgroup(self, mu: int) -> "OpenSubgroup":
        """The maximal (index-2) subgroup killed by the Frattini functional mu."""
        fq = self.frattini_quotient()
        return OpenSubgroup(self.prime, self.modulus,
                            schreier_generators(fq, self.generators, mu),
                            _elements=self.elements[fq.hyperplane_mask(mu)])

    def index2_subgroups(self) -> list["OpenSubgroup"]:
        """All maximal (index-2) subgroups, one per Frattini hyperplane."""
        return [self.hyperplane_subgroup(mu)
                for mu in range(1, 1 << self.frattini_quotient().rank)]

    # -- nilpotency ---------------------------------------------------------------

    def is_nilpotent(self) -> bool:
        """A finite group is nilpotent iff each Sylow subgroup is normal, that
        is unique.  The q-elements (order dividing the q-part n_q of |H|) are
        the union of the Sylow q-subgroups, so there are exactly n_q of them
        iff the Sylow q-subgroup is unique."""
        n = self.order()
        orders = kernels.order_array(self.elements, self.modulus)
        for q in _prime_factors(n):
            n_q = 1
            while n % (n_q * q) == 0:
                n_q *= q
            if int((n_q % orders == 0).sum()) != n_q:
                return False
        return True

    # -- conjugacy -------------------------------------------------------------------

    def canonical_key(self) -> bytes:
        """Lexicographically minimal packed-element list over the ambient
        conjugation orbit, as big-endian uint32 bytes."""
        return min(self._conjugation_orbit())

    def own_digest(self) -> bytes:
        """sha256 of (level | index | element bytes); conjugates of this
        subgroup produce digests inside conjugacy_digests()."""
        prefix = f"{self.level()}|{self.index_in_ambient()}|".encode()
        kb = kernels.big_endian(self.elements).tobytes()
        return hashlib.sha256(prefix + kb).digest()

    def conjugacy_digests(self) -> set[bytes]:
        """own_digest of every conjugate of the group that lies in the
        Sylow S, and of the whole conjugation orbit when the group is not
        inside S.

        A group inside S and outside Gamma(2) is walked by the generators
        of S only (``sylow_conjugators``), which reach exactly its
        conjugates inside S (see the module docstring); any other group is
        walked by the ambient generators.  Either way the set holds the
        digest of every conjugate that a census node, which lies in S, can
        be."""
        prefix = f"{self.level()}|{self.index_in_ambient()}|".encode()
        e = self.elements
        inside_sylow = self.prime == 2 and not (e & np.uint32(1 << 16)).any()
        if inside_sylow and (e & np.uint32(1 << 8)).any():
            orbit = self._conjugation_orbit(sylow_conjugators(self.modulus))
        else:
            orbit = self._conjugation_orbit()
        return {hashlib.sha256(prefix + kb).digest() for kb in orbit}

    def _conjugation_orbit(self, conjugators: list[int] | None = None
                           ) -> frozenset[bytes]:
        """Element bytes (big-endian uint32) of every member of the orbit
        under conjugation by the group the conjugators generate (default:
        the ambient generators), walked once per group and conjugator list
        and kept.

        The walk is breadth-first over whole layers: the members new in a
        layer are stacked into a (k, s) array, s = |H|, and
        ``kernels.conjugate_set`` conjugates them by every conjugator at
        once.  One batch holds at most ngen * k * s conjugates, ngen times
        the layer's elements, the same order as the frontier product of
        ``kernels.closure``.  A call is cut to max(_ORBIT_BATCH, s)
        conjugates, by taking fewer members and then fewer conjugators.
        Raises BudgetExceeded iff the orbit has more than ORBIT_BUDGET
        members.
        """
        m = self.modulus
        if conjugators is None:
            conjugators = ambient_generators(self.prime, m)
        key = tuple(conjugators)
        if key in self._orbits:
            return self._orbits[key]
        s = len(self.elements)
        members = max(1, _ORBIT_BATCH // (len(key) * s))  # per call
        gens = max(1, _ORBIT_BATCH // s)  # per call
        layer = self.elements[None, :]
        orbit = {kernels.big_endian(self.elements).tobytes()}
        while len(layer):
            fresh = []
            for lo in range(0, len(layer), members):
                for glo in range(0, len(key), gens):
                    conj = kernels.conjugate_set(layer[lo:lo + members],
                                                 key[glo:glo + gens], m).reshape(-1, s)
                    big_endian = kernels.big_endian(conj)
                    for i in range(len(conj)):
                        kb = big_endian[i].tobytes()
                        if kb not in orbit:
                            if len(orbit) >= ORBIT_BUDGET:
                                raise kernels.BudgetExceeded(
                                    f"conjugation orbit exceeds {ORBIT_BUDGET}")
                            orbit.add(kb)
                            fresh.append(conj[i])
            layer = kernels.as_packed(fresh).reshape(-1, s)
        self._orbits[key] = frozenset(orbit)
        return self._orbits[key]

    # -- serialization ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "modulus": self.modulus,
            "generators": [list(kernels.unpack(g)) for g in self.generators],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "OpenSubgroup":
        """Inverse of to_json_dict; raises ValueError naming the bad field."""
        if not isinstance(d, dict):
            raise ValueError("group JSON must be an object with keys "
                             "prime, modulus, generators")
        for key in ("prime", "modulus", "generators"):
            if key not in d:
                raise ValueError(f"group JSON is missing the key {key!r}")
        for key in ("prime", "modulus"):
            if not _is_int(d[key]):
                raise ValueError(f"group JSON {key!r} must be an integer")
        if not isinstance(d["generators"], list):
            raise ValueError("group JSON 'generators' must be a list")
        for k, e in enumerate(d["generators"]):
            if not (isinstance(e, list) and len(e) == 4 and all(map(_is_int, e))):
                raise ValueError(f"group JSON generators[{k}] must be a list "
                                 f"of 4 integers, got {e!r}")
        return cls(d["prime"], d["modulus"], d["generators"])

    def __repr__(self):
        return (f"OpenSubgroup(p={self.prime}, mod {self.modulus}, "
                f"{len(self.generators)} gens)")


def _packable_prime(modulus: int) -> int:
    """The prime p with modulus = p^k.  The bound is tested first, since
    trial division of a huge modulus takes time in its square root."""
    if modulus > kernels.MAX_PACK_MODULUS:
        # larger entries would overlap the packed 8-bit fields
        raise ValueError(f"modulus {modulus} is above "
                         f"{kernels.MAX_PACK_MODULUS}, the largest "
                         "supported modulus")
    return _prime_power(modulus)[0]


def closure(gens, modulus: int) -> OpenSubgroup:
    """Subgroup generated by gens at the given prime-power modulus."""
    H = OpenSubgroup(_packable_prime(modulus), modulus, gens)
    H.elements  # force now so budget errors surface eagerly
    return H


def ambient_generators(prime: int, modulus: int) -> list[int]:
    """Packed generators of GL_2(Z/modulus): the two elementary transvections
    plus diagonal unit generators."""
    if prime == 2:
        units = [u % modulus for u in (3, 5) if u % modulus != 1]
    else:
        units = [_primitive_root(prime, modulus)]
    gens = [kernels.pack(1, 1, 0, 1), kernels.pack(1, 0, 1, 1)]
    gens += [kernels.pack(u, 0, 0, 1) for u in units]
    return gens


def sylow_conjugators(modulus: int) -> list[int]:
    """Packed (1 1; 0 1), (1 0; 2 1), diag(3, 1) and diag(5, 1) mod a power
    of 2, the identity dropped.  With -I, which acts trivially by
    conjugation, they generate the pro-2 Sylow S = {c = 0 mod 2} mod the
    modulus: the first two and -I generate Gamma_0(2) in SL_2(Z), which maps
    onto the determinant-1 part of S, and the diagonals give every
    determinant."""
    gens = [kernels.pack(*(v % modulus for v in g))
            for g in ((1, 1, 0, 1), (1, 0, 2, 1), (3, 0, 0, 1), (5, 0, 0, 1))]
    return [g for g in gens if g != kernels.IDENTITY]


def _is_primitive_root(g: int, modulus: int) -> bool:
    """Whether g generates (Z/p^k)^x, for an odd prime power modulus."""
    p, _ = _prime_power(modulus)
    if g % p == 0:
        return False
    phi = modulus // p * (p - 1)
    return all(pow(g, phi // q, modulus) != 1 for q in _prime_factors(phi))


def _primitive_root(p: int, modulus: int) -> int:
    """A generator of (Z/p^k)^x for odd p."""
    for g in range(2, modulus):
        if _is_primitive_root(g, modulus):
            return g
    raise AssertionError("no primitive root found")


def _greedy_generators(targets: np.ndarray, m: int) -> tuple[list[int], np.ndarray]:
    """Generators picked greedily, the first missing target each time, until
    the group they generate contains every target; returns (generators,
    group).  As in Dimino's algorithm, the first pick gives its powers and
    each later pick grows the group by right cosets of the last one."""
    gens: list[int] = []
    current = kernels.as_packed([kernels.IDENTITY])
    while True:
        missing = targets[~kernels.in_sorted(targets, current)]
        if not missing.size:
            return gens, current
        gens.append(int(missing[0]))
        current = (kernels.coset_closure(current, gens, m) if len(gens) > 1
                   else kernels.powers(gens[0], m))


def sylow_subgroup(elements: np.ndarray, m: int, q: int) -> np.ndarray:
    """A Sylow q-subgroup of the group with the given sorted element set.

    Greedy growth is complete: a q-subgroup that is not Sylow admits a
    normalizer element of q-power order whose adjunction stays a q-group.
    Orders of elements and subgroups divide the group order, so "q-power"
    means "divides the q-part" throughout.
    """
    target = 1
    while len(elements) % (target * q) == 0:
        target *= q
    q_elems = elements[target % kernels.order_array(elements, m) == 0]
    gens: list[int] = []
    current = kernels.closure([], m)
    while len(current) < target:
        for x in q_elems:
            xi = int(x)
            if kernels.contains(current, xi):
                continue
            cand = kernels.closure(gens + [xi], m)
            if target % len(cand) == 0:
                gens.append(xi)
                current = cand
                break
        else:
            raise AssertionError("Sylow growth stalled before the full q-part")
    return current


def schreier_generators(fq: FrattiniQuotient, gens: list[int] | tuple[int, ...],
                        mu: int) -> list[int]:
    """Packed generators of the hyperplane subgroup ker(mu) of <gens>.

    With the transversal {I, t}, t the first basis element outside ker(mu),
    the Schreier generators of <gens> are g, t g t^-1 for g in ker(mu) and
    g t^-1, t g otherwise.  They come in first-appearance order with the
    identity dropped.
    """
    m = fq._modulus
    t = fq.basis[(mu & -mu).bit_length() - 1]
    t_inv = kernels.inv(t, m)
    out: dict[int, None] = {}
    for g in gens:
        if sum(c & (mu >> i) for i, c in enumerate(fq.coords(g))) % 2 == 0:
            cand = (g, kernels.mul(kernels.mul(t, g, m), t_inv, m))
        else:
            cand = (kernels.mul(g, t_inv, m), kernels.mul(t, g, m))
        out.update(dict.fromkeys(cand))
    out.pop(kernels.IDENTITY, None)
    return list(out)
