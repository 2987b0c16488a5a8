"""Minimality certificates and the census of minimal subgroups of GL_2(Z_2).

An open subgroup H <= GL_2(Z_2) with full determinant is *minimal* when every
maximal closed subgroup has strictly smaller determinant image.  The working
characterization, certified here at a finite modulus:

    minimal  <=>  H is pro-2, det(H) is full mod 8, and H has Frattini rank 2.

The certifying modulus M (``certifying_modulus``: twice the level, and at
least 8) is exact: once M >= 8 and H contains the kernel of reduction mod
M/2, every kernel element I + (M/2) A is a square of I + (M/4) A' up to a
deeper kernel term, so the mod-M congruence kernel lies inside the closure
of the squares and hence inside the Frattini subgroup.  The Frattini
quotient of the mod-M image therefore equals the Frattini quotient of the
open group, and rank / maximal-subgroup questions are decided exactly.

The maximal subgroups are the hyperplanes of the Frattini quotient, and
``_hyperplane_det_images`` reads their det images mod 8 off its basis.  A
det-full group that is not pro-2 is never minimal: |GL_2(Z/2^k)| =
3 * 2^(4k-3), so its Sylow 2-subgroup (``_index3_sylow``) has index 3, which
makes it maximal, and odd index, which keeps the full determinant.

Determinant fullness reduces to fullness mod 8 because any unit d = 3 (mod 8)
has d^2 - 1 = 8 * odd, so d^2 topologically generates 1 + 8 Z_2; the same
lemma is re-checked by brute force over the unit groups (Z/2^k)^* in
``verify_unit_square_lemma``.

The census walks downward from the pro-2 Sylow subgroup (index 3, level 2)
through index-2 subgroups, pruning children whose determinant image drops
or whose level exceeds the bound, and expanding a node of Frattini rank r
and index idx only when idx * 2^(r-2) <= index bound (the rank bound; it
keeps every child's index within the bound).  The prune is complete: any
minimal H below the bounds sits under a maximal chain inside the Sylow,
every intermediate group above a det-full group is det-full, and level and
index only grow downward.  For the rank bound: an index-2 subgroup K of a
pro-2 group G contains Phi(G) and has Phi(K) <= Phi(G), so K/Phi(K) maps
onto K/Phi(G) = F_2^(rank G - 1) and rank K >= rank G - 1; reaching rank 2
from rank r takes at least r - 2 halvings, each doubling the index.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .modcurve import GenusData, genus
from .modmat import gl2_order
from .smallgroups import FiniteGroupTable
from .subgroups import (
    FrattiniQuotient,
    OpenSubgroup,
    UNIT_RESIDUES_MOD_8,
    _greedy_generators,
    _is_primitive_root,
    _level_and_image,
    _primitive_root,
    ambient_generators,
    schreier_generators,
    sylow_subgroup,
)

# Generators of the pro-2 Sylow subgroup, written mod 8: the preimage of the
# upper-triangular unipotent subgroup of GL_2(F_2).
SYLOW_PRO2_GENERATORS = (
    (1, 1, 0, 1),
    (1, 0, 2, 1),
    (3, 0, 0, 1),
    (1, 0, 0, 3),
    (5, 0, 0, 1),
    (1, 0, 0, 5),
)

# The three index-2 subgroups of (Z/8)^*, as determinant images of the three
# maximal subgroups of a minimal group, in sorted(..., key=sorted) order.
INDEX2_DET_IMAGES = (frozenset({1, 3}), frozenset({1, 5}), frozenset({1, 7}))


def certifying_modulus(level: int) -> int:
    """The modulus at which minimality of a group of this level is decided."""
    return max(8, 2 * level)


def sylow_pro2_subgroup() -> OpenSubgroup:
    """The pro-2 Sylow subgroup of GL_2(Z_2), modeled mod 8."""
    syl = OpenSubgroup(2, 8, list(SYLOW_PRO2_GENERATORS))
    if syl.order() != 512 or syl.index_in_ambient() != 3 or syl.level() != 2:
        raise AssertionError("Sylow model is wrong")
    return syl


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of a minimality check at a certifying modulus."""

    verdict: bool
    is_two_group: bool
    det_surjective: bool
    frattini_rank: Optional[int]
    certifying_modulus: int
    witnesses: dict
    sanity_recheck: Optional[dict] = None

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if d["sanity_recheck"] is None:
            del d["sanity_recheck"]
        # every verdict is certified; the key keeps check reports' bytes
        d["provisional"] = False
        return d


def _hyperplane_det_images(fq: FrattiniQuotient, modulus: int) -> list[frozenset[int]]:
    """det images mod 8 of the hyperplane subgroups ker(mu), at index mu - 1.

    Squares have det 1 mod 8, so det kills Phi(H) mod 8 and the image of
    ker(mu) is generated by the dets of b_j (mu_j = 0) and of b_j b_t
    (mu_j = 1), where t is the lowest set bit of mu.
    """
    dets = [kernels.det(b, modulus) % 8 for b in fq.basis]
    images = []
    for mu in range(1, 1 << fq.rank):
        t = (mu & -mu).bit_length() - 1
        image = {1}
        for j, d in enumerate(dets):
            if j != t:
                g = d * dets[t] % 8 if (mu >> j) & 1 else d
                image |= {x * g % 8 for x in image}
        images.append(frozenset(image))
    return images


def _model_at(H: OpenSubgroup, modulus: int) -> OpenSubgroup:
    """The same open group modeled at another faithful modulus."""
    if H.modulus == modulus:
        return H
    return H.lift(modulus) if H.modulus < modulus else H.reduce(modulus)


def maximal_determinant_images(H: OpenSubgroup) -> list[frozenset[int]]:
    """det images mod 8 of the maximal (index-2) subgroups of a pro-2 group.

    Computed at the certifying modulus.  For a minimal group these are the
    three proper index-2 subgroups of (Z/8)^*, each realized exactly once.
    """
    HM = _model_at(H, certifying_modulus(H.level()))
    return _hyperplane_det_images(HM.frattini_quotient(verify=False), HM.modulus)


def _index3_sylow(elements: np.ndarray, modulus: int) -> np.ndarray:
    """Sylow 2-subgroup of a non-2-group H <= GL_2(Z/2^k), as an element set.

    |GL_2(Z/2^k)| = 3 * 2^(4k-3), so it has index 3 in H, which makes it
    maximal; the index is odd, so its det image mod 8 is det(H) mod 8.
    Both facts are asserted.
    """
    syl = sylow_subgroup(elements, modulus, 2)
    if 3 * len(syl) != len(elements):
        raise AssertionError("Sylow 2-subgroup does not have index 3")
    if kernels.det_image(syl, modulus, 8) != kernels.det_image(elements, modulus, 8):
        raise AssertionError("odd-index Sylow lost determinant image")
    return syl


def _full_det_maximal_witness(HM: OpenSubgroup) -> OpenSubgroup:
    """A maximal subgroup of a det-full non-2-group with full determinant:
    its index-3 Sylow 2-subgroup."""
    syl = _index3_sylow(HM.elements, HM.modulus)
    gens, _ = _greedy_generators(syl, HM.modulus)
    return OpenSubgroup(2, HM.modulus, gens, _elements=syl)


def _det_full_hyperplane_witness(HM: OpenSubgroup,
                                 fq: FrattiniQuotient) -> OpenSubgroup:
    """An index-2 subgroup with full determinant (exists when rank >= 3)."""
    images = _hyperplane_det_images(fq, HM.modulus)
    if UNIT_RESIDUES_MOD_8 not in images:
        raise AssertionError("rank >= 3 group without det-full hyperplane")
    return HM.hyperplane_subgroup(images.index(UNIT_RESIDUES_MOD_8) + 1)


def _core_minimality(HM: OpenSubgroup):
    """(verdict, is_two_group, det_surjective, rank, witnesses) at HM's modulus."""
    det_full = HM.det_surjective_2adic()
    two_group = HM.is_two_group()
    rank: Optional[int] = None

    if not det_full:
        verdict = False
        witnesses = {
            "kind": "failed_precondition",
            "reason": "determinant not surjective",
            "det_image_mod8": sorted(kernels.det_image(HM.elements, HM.modulus, 8)),
        }
    elif not two_group:
        verdict = False
        wit = _full_det_maximal_witness(HM)
        witnesses = {
            "kind": "maximal_subgroup_with_full_det",
            "subgroup": wit.to_json_dict(),
            "index_in_group": len(HM.elements) // len(wit.elements),
            "det_image_mod8": sorted(kernels.det_image(wit.elements,
                                                       wit.modulus, 8)),
        }
    else:
        fq = HM.frattini_quotient()
        rank = fq.rank
        if rank < 2:
            raise AssertionError("det-full 2-group with Frattini rank < 2")
        if rank == 2:
            verdict = True
            images = _hyperplane_det_images(fq, HM.modulus)
            if tuple(sorted(images, key=sorted)) != INDEX2_DET_IMAGES:
                raise AssertionError("maximal det images are not the three "
                                     "index-2 unit subgroups")
            witnesses = {
                "kind": "minimal",
                "maximal_det_images_mod8": [sorted(s) for s in images],
            }
        else:
            verdict = False
            wit = _det_full_hyperplane_witness(HM, fq)
            witnesses = {
                "kind": "maximal_subgroup_with_full_det",
                "subgroup": wit.to_json_dict(),
                "index_in_group": 2,
                "det_image_mod8": sorted(kernels.det_image(wit.elements,
                                                           wit.modulus, 8)),
            }
    return verdict, two_group, det_full, rank, witnesses


def is_minimal(H: OpenSubgroup) -> MinimalityReport:
    """Decide minimality of the open subgroup represented by H.

    The check runs at the certifying modulus M, so the level can be at most
    half the largest packed modulus.  For level <= 2 the whole check is
    repeated at 2M and the agreement recorded, as a guard on the modulus
    argument in the cheapest regime where that costs nothing.
    """
    if H.prime != 2:
        raise ValueError("minimality is defined for subgroups of GL_2(Z_2)")
    lvl = H.level()
    cert = certifying_modulus(lvl)
    if cert > kernels.MAX_PACK_MODULUS:
        raise ValueError(f"level {lvl} is above "
                         f"{kernels.MAX_PACK_MODULUS // 2}, the largest level "
                         "that can be certified")
    HM = _model_at(H, cert)
    verdict, two_group, det_full, rank, witnesses = _core_minimality(HM)

    sanity = None
    if lvl <= 2:
        v2, _, _, r2, _ = _core_minimality(_model_at(H, 2 * cert))
        if v2 != verdict or r2 != rank:
            raise AssertionError("sanity recheck at doubled modulus disagrees")
        sanity = {"modulus": 2 * cert, "agrees": True}

    return MinimalityReport(
        verdict=verdict,
        is_two_group=two_group,
        det_surjective=det_full,
        frattini_rank=rank,
        certifying_modulus=cert,
        witnesses=witnesses,
        sanity_recheck=sanity,
    )


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CensusEntry:
    """One conjugacy class of minimal subgroups."""

    level: int
    index: int
    genus: int
    contains_minus_I: bool
    modulus: int
    generators: tuple[tuple[int, int, int, int], ...]
    canonical_key: str
    genus_data: GenusData

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "index": self.index,
            "genus": self.genus,
            "contains_minus_I": self.contains_minus_I,
            "modulus": self.modulus,
            "generators": [list(g) for g in self.generators],
            "canonical_key": self.canonical_key,
            "genus_data": self.genus_data.to_json_dict(),
        }

    def subgroup(self) -> OpenSubgroup:
        return OpenSubgroup(2, self.modulus, list(self.generators))


class CensusBudgetError(kernels.BudgetExceeded):
    """Raised when the census runs out of budget; carries partial progress."""

    def __init__(self, message: str, entries: list, nodes_visited: int):
        super().__init__(f"{message} ({nodes_visited} nodes visited, "
                         f"{len(entries)} minimal classes found so far)")
        self.partial_entries = entries
        self.nodes_visited = nodes_visited


def check_census_bounds(level_bound: int, index_bound: int) -> None:
    """Raise ValueError unless the census can run with these bounds."""
    if level_bound < 1 or level_bound & (level_bound - 1):
        raise ValueError("level_bound must be a power of 2")
    if level_bound > 128:
        raise ValueError("level_bound above 128 is out of scope")
    if index_bound < 3:
        raise ValueError("index_bound below the Sylow index finds nothing")


def census(level_bound: int = 64, index_bound: int = 96,
           genus_filter: Optional[int] = None, *,
           progress: Optional[Callable[[str], None]] = None) -> list[CensusEntry]:
    """All conjugacy classes of minimal subgroups within the given bounds.

    Walks index-2 descent from the pro-2 Sylow subgroup.  A node of Frattini
    rank 2 is a minimal class (recorded, not descended: its maximal subgroups
    have deficient determinant); a node of higher rank contributes exactly its
    det-full, level-bounded hyperplane children, provided a rank-2
    descendant can still fit under the index bound.  Conjugate duplicates are
    cut by canonical-key digests at the level modulus.  Every entry is
    re-certified by ``is_minimal`` before it is returned.

    The rank bound: let K be an index-2 subgroup of a pro-2 group G of
    Frattini rank r.  Then Phi(G) <= K, and Phi(K) <= Phi(G) because the
    squares of K are squares of G, so K/Phi(K) maps onto K/Phi(G) = F_2^(r-1)
    and rank(K) >= r - 1.  Each step halves the group and doubles the index,
    so a rank-2 descendant of a node of rank r and index idx has index at
    least idx * 2^(r-2); a node with idx << (r - 2) above the bound is not
    expanded.  Rank and index are conjugacy invariants and the bound only
    grows downward, so the cut subtrees hold no entry, and every entry keeps
    the representative the uncut walk pops first.  The rank is read as
    log_2 |HM : Phi(HM)| before the quotient is laid out, so a node the
    bound drops never builds its basis and coordinates; a child at its
    parent's certifying modulus reads its Phi off the parent's (see
    ``OpenSubgroup.frattini_subgroup``).

    So does a child certified at twice its parent's modulus.  The parent
    model HM is at its certifying modulus M, so Gamma(M) <= Phi(H) and
    Phi(H) mod 2M is the full preimage of Phi(HM).  A child K contains
    Phi(H); if its level is M, then Phi(H) mod 2M <= K mod 2M <= H mod 2M,
    which is the premise of reading Phi(K) off H mod 2M.  So each expanded
    parent with such children builds one model at 2M that holds only
    Phi(H) mod 2M (``_lifted_phi_model``), and the lifted children link to
    it: Phi(Phi(H)) mod 2M is laid out once per parent, not grown once per
    child.  The model lives only as long as a child on the stack holds it.

    Each candidate child is reduced once: its level search starts at the
    parent's level and keeps the image mod the level, which both prunes by
    the level bound and gives the level model whose digest is tested
    against ``seen`` before the child is built.  The stack carries
    (digest, level model, group, lifted parent model or None); a child
    that became a duplicate while it waited is skipped when popped.
    Dedup stores the digests of the conjugates inside the Sylow only (see
    ``OpenSubgroup.conjugacy_digests``), which are all the conjugates a
    later node can be.
    """
    check_census_bounds(level_bound, index_bound)

    entries: list[CensusEntry] = []
    seen: set[bytes] = set()
    nodes = 0
    syl = sylow_pro2_subgroup()
    root = _level_model(*_level_and_image(syl.elements, syl.modulus, 2))
    stack = [(root.own_digest(), root, syl, None)]

    try:
        while stack:
            digest, HL, H, lifted_parent = stack.pop()
            if digest in seen:
                continue
            seen.update(HL.conjugacy_digests())
            nodes += 1
            if progress and nodes % 25 == 0:
                progress(f"census: {nodes} nodes, {len(entries)} minimal, "
                         f"stack {len(stack)}")

            lvl, idx = HL.modulus, H.index_in_ambient()
            HM = _model_at(H, certifying_modulus(lvl))
            if lifted_parent is not None:  # HM is a fresh lift of H
                HM._parent = lifted_parent
            rank = (len(HM.elements) // len(HM.frattini_subgroup())).bit_length() - 1
            if rank < 2:
                raise AssertionError("det-full 2-group with rank < 2")
            if rank > 2 and idx << (rank - 2) > index_bound:
                continue
            fq = HM.frattini_quotient(verify=False)
            if rank == 2:
                entries.append(_make_entry(HM, HL, idx, fq))
                continue
            images = _hyperplane_det_images(fq, HM.modulus)
            lifted = None  # _lifted_phi_model(HM), once a child needs it
            for mu in range(1, 1 << fq.rank):
                if images[mu - 1] != UNIT_RESIDUES_MOD_8:
                    continue
                child_elems = HM.elements[fq.hyperplane_mask(mu)]
                found = _level_and_image(child_elems, HM.modulus, 2, lvl,
                                         min(HM.modulus, level_bound))
                if found is None:  # level above the bound
                    continue
                CL = _level_model(*found)
                child_digest = CL.own_digest()
                if child_digest in seen:
                    continue
                gens = schreier_generators(fq, fq.basis, mu)
                if CL.modulus < HM.modulus:  # certified at HM's modulus
                    child = OpenSubgroup(2, HM.modulus, gens, _elements=child_elems,
                                         _parent=HM)
                    link = None
                else:  # certified at twice HM's modulus, after a lift
                    child = OpenSubgroup(2, HM.modulus, gens, _elements=child_elems)
                    if lifted is None:
                        lifted = _lifted_phi_model(HM)
                    link = lifted
                child._level = CL.modulus
                stack.append((child_digest, CL, child, link))
    except kernels.BudgetExceeded as exc:
        if isinstance(exc, CensusBudgetError):
            raise
        raise CensusBudgetError(str(exc), entries, nodes) from exc

    for e in entries:
        rep = is_minimal(e.subgroup())
        if not rep.verdict or rep.certifying_modulus != certifying_modulus(e.level):
            raise AssertionError("census entry failed independent recheck")

    if genus_filter is not None:
        entries = [e for e in entries if e.genus == genus_filter]
    entries.sort(key=lambda e: (e.level, e.index, e.canonical_key))
    return entries


def _lifted_phi_model(HM: OpenSubgroup) -> OpenSubgroup:
    """The open group of HM modeled at twice HM's modulus M, with Phi laid
    out and the elements left unbuilt: HM is at its certifying modulus, so
    Gamma(M) <= Phi(H) and Phi(H) mod 2M is the full preimage of Phi(HM)."""
    m = HM.modulus
    lifted = OpenSubgroup(2, m, HM.generators).lift(2 * m)
    lifted._phi = kernels.lift_array(HM.frattini_subgroup(), m, 2 * m)
    return lifted


def _level_model(lvl: int, image: np.ndarray) -> OpenSubgroup:
    """The group's image mod its level, as an element set only: enough for
    the digests and the canonical key, which read level, index and
    elements."""
    HL = OpenSubgroup(2, lvl, [], _elements=image)
    HL._level = lvl
    return HL


def _make_entry(HM: OpenSubgroup, HL: OpenSubgroup, idx: int,
                fq: FrattiniQuotient) -> CensusEntry:
    gdata = genus(HM)
    key = hashlib.sha256(HL.canonical_key()).hexdigest()
    gens = tuple(kernels.unpack(b) for b in fq.basis)
    return CensusEntry(
        level=HL.modulus,
        index=idx,
        genus=gdata.genus,
        contains_minus_I=HM.contains_minus_identity(),
        modulus=HM.modulus,
        generators=gens,
        canonical_key=key,
        genus_data=gdata,
    )


# ---------------------------------------------------------------------------
# Supporting lemma oracles
# ---------------------------------------------------------------------------

def verify_unit_square_lemma(max_k: int = 6) -> dict[int, int]:
    """Brute-force check: a subgroup of (Z/2^k)^* full mod 8 is everything.

    Returns {k: number of subgroups checked} for k = 3..max_k.
    """
    out = {}
    for k in range(3, max_k + 1):
        m = 1 << k
        units = [u for u in range(1, m) if u % 2]
        subgroups = {frozenset({1})}
        frontier = [frozenset({1})]
        while frontier:
            s = frontier.pop()
            for u in units:
                if u in s:
                    continue
                t = set(s)
                new = [u]
                while new:
                    x = new.pop()
                    if x in t:
                        continue
                    t.add(x)
                    new.extend((x * y) % m for y in list(t))
                t = frozenset(t)
                if t not in subgroups:
                    subgroups.add(t)
                    frontier.append(t)
        for s in subgroups:
            if {x % 8 for x in s} == {1, 3, 5, 7} and len(s) != len(units):
                raise AssertionError(f"unit square lemma fails at k={k}: {sorted(s)}")
        out[k] = len(subgroups)
    return out


def verify_non_two_group_witness(progress: Optional[Callable[[str], None]] = None
                                 ) -> dict:
    """Exhaustive mod-8 check: det-full non-2-groups have a det-full maximal.

    |GL_2(Z/8)| = 2^9 * 3, so the non-2-subgroups are the subgroup classes
    of order divisible by 3, read off the whole lattice.  A Sylow
    2-subgroup of such an H has index 3 in H: it is maximal outright, and
    its odd index forces det(Syl_2) = det(H).  ``_index3_sylow`` asserts
    both on every det-full class.
    """
    table = FiniteGroupTable.from_generators(ambient_generators(2, 8), 8)
    if table.n != gl2_order(8):
        raise AssertionError("GL_2(Z/8) table has wrong size")
    classes = [sub for sub, _gens in table.subgroup_classes() if len(sub) % 3 == 0]
    checked = 0
    for sub in classes:
        if kernels.det_image(table.elements[sub], 8, 8) != UNIT_RESIDUES_MOD_8:
            continue
        _index3_sylow(table.elements[sub], 8)
        checked += 1
        if progress and checked % 50 == 0:
            progress(f"witness sweep: {checked} det-full classes checked")
    return {"classes_containing_order3": len(classes),
            "det_full_non_two_groups": checked}


# ---------------------------------------------------------------------------
# Odd primes: the falsifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OddPrimeWitness:
    """A cyclic subgroup mod p^2 with full det inside a proper preimage."""

    base_class_index: int
    base_order: int
    generator: tuple[int, int, int, int]
    det_order: int
    cyclic_order: int
    preimage_order: int

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self) | {"generator": list(self.generator)}


@dataclass(frozen=True)
class FalsifierReport:
    prime: int
    subgroup_classes: int
    det_full_classes: int
    witnesses: tuple[OddPrimeWitness, ...]

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "subgroup_classes": self.subgroup_classes,
            "det_full_classes": self.det_full_classes,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }


def falsify_odd_prime(p: int, progress: Optional[Callable[[str], None]] = None
                      ) -> FalsifierReport:
    """Show no analogue of minimality lives in GL_2(Z_p) for odd p in {3, 5}.

    For every subgroup class of GL_2(F_p) with surjective determinant, the
    full level-p^2 preimage contains a proper open subgroup whose determinant
    is already surjective mod p^2 (hence p-adically full, since a subgroup of
    Z_p^* full mod p^2 is full for odd p).  The witness is cyclic: a single
    matrix whose determinant has the maximal order p(p-1).
    Failure to find one would falsify the expectation and aborts loudly.
    """
    if p not in (3, 5):
        raise ValueError("falsifier is scoped to p in {3, 5}")
    table = FiniteGroupTable.from_generators(ambient_generators(p, p), p)
    if table.n != gl2_order(p):
        raise AssertionError("GL_2(F_p) table has wrong size")
    classes = table.subgroup_classes()
    dets = kernels.det_array(table.elements, p)
    full = frozenset(range(1, p))
    det_order_target = p * (p - 1)
    found = []  # (class index, class order, witness)
    g0 = _primitive_root(p, p)
    for ci, (sub, _gens) in enumerate(classes):
        if kernels.det_image(table.elements[sub], p, p) != full:
            continue
        cand = sub[dets[sub] == g0 % p]
        if not len(cand):
            raise AssertionError("det-full subgroup missing a primitive-root det")
        h = int(table.elements[cand[0]])
        witness = None
        for t in range(p):
            # multiply by the kernel element diag(1 + pt, 1): scales det by
            # exactly 1 + pt mod p^2 while fixing the mod-p image
            h2 = kernels.mul(h, kernels.pack(1 + p * t, 0, 0, 1), p * p)
            # det order p(p-1) = |(Z/p^2)^x| means det is a primitive root
            if _is_primitive_root(kernels.det(h2, p * p), p * p):
                witness = h2
                break
        if witness is None:
            raise AssertionError(
                f"falsifier failed for p={p}, class {ci}: no lift of the "
                "primitive-det element has full det order mod p^2; this "
                "would contradict the odd-prime non-minimality argument")
        found.append((ci, len(sub), witness))
        if progress and len(found) % 10 == 0:
            progress(f"falsifier p={p}: {len(found)} det-full classes witnessed")
    if not found:
        raise AssertionError("no det-full subgroup classes found at all")
    cyc_orders = kernels.order_array(kernels.as_packed([w for _, _, w in found]), p * p)
    witnesses = []
    for (ci, base_order, witness), cyc_order in zip(found, cyc_orders.tolist()):
        preimage_order = base_order * p ** 4
        if cyc_order >= preimage_order:
            raise AssertionError("cyclic witness is not proper")
        witnesses.append(OddPrimeWitness(
            base_class_index=ci,
            base_order=base_order,
            generator=kernels.unpack(witness),
            det_order=det_order_target,
            cyclic_order=cyc_order,
            preimage_order=preimage_order,
        ))
    return FalsifierReport(
        prime=p,
        subgroup_classes=len(classes),
        det_full_classes=len(found),
        witnesses=tuple(witnesses),
    )


def nilpotent_lift_check(progress: Optional[Callable[[str], None]] = None) -> dict:
    """Mod-9 sweep: nilpotent full preimages have trivial det image mod 3.

    Lifts every subgroup class of GL_2(F_3) to its full preimage in
    GL_2(Z/9) and checks that whenever that preimage is nilpotent its
    determinant image mod 3 is {1}; the det-full analogues of minimal
    groups therefore cannot be pro-nilpotent at odd primes.
    """
    table = FiniteGroupTable.from_generators(ambient_generators(3, 3), 3)
    classes = table.subgroup_classes()
    nilpotent_count = 0
    for ci, (sub, gens) in enumerate(classes):
        base = OpenSubgroup(3, 3, [table.elements[g] for g in gens],
                            _elements=table.elements[sub])
        lifted = base.lift(9)
        if lifted.is_nilpotent():
            nilpotent_count += 1
            if kernels.det_image(lifted.elements, 9, 3) != {1}:
                raise AssertionError(
                    f"nilpotent lift with nontrivial det image, class {ci}")
        if progress and (ci + 1) % 20 == 0:
            progress(f"nilpotent lift check: {ci + 1}/{len(classes)} classes")
    return {"classes": len(classes), "nilpotent_lifts": nilpotent_count}
