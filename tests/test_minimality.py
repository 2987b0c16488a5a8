"""Minimality verdicts, the census, and the supporting sweeps."""

import hashlib
import json

import numpy as np
import pytest

from minimal2 import kernels, minimality, report, subgroups
from minimal2.minimality import (
    CensusBudgetError,
    is_minimal,
    maximal_determinant_images,
    sylow_pro2_subgroup,
)
from minimal2.report import RunConfig
from minimal2.subgroups import OpenSubgroup, ambient_generators, closure


def full_group(modulus):
    return OpenSubgroup(2, modulus,
                        [kernels.unpack(g) for g in ambient_generators(2, modulus)])


class TestIsMinimal:
    def test_full_group_rejected_with_witness(self):
        rep = is_minimal(full_group(8))
        assert rep.verdict is False
        assert rep.det_surjective is True
        assert rep.is_two_group is False
        wit = rep.witnesses
        assert wit["kind"] == "maximal_subgroup_with_full_det"
        assert wit["det_image_mod8"] == [1, 3, 5, 7]
        W = OpenSubgroup.from_json_dict(wit["subgroup"])
        assert wit["index_in_group"] == 3
        assert W.order() * 3 == full_group(8).order()

    def test_sylow_rejected_by_rank(self):
        rep = is_minimal(sylow_pro2_subgroup())
        assert rep.verdict is False
        assert rep.is_two_group and rep.det_surjective
        assert rep.frattini_rank == 4
        assert rep.certifying_modulus == 8
        # the witness is index 2 with full determinant image
        assert rep.witnesses["index_in_group"] == 2
        assert rep.witnesses["det_image_mod8"] == [1, 3, 5, 7]

    def test_mod2_model_of_the_sylow_agrees(self):
        ref = is_minimal(sylow_pro2_subgroup())
        rep = is_minimal(OpenSubgroup(2, 2, [(1, 1, 0, 1)]))
        assert rep.verdict == ref.verdict
        assert rep.det_surjective is True
        assert rep.frattini_rank == ref.frattini_rank == 4
        for key in ("kind", "index_in_group", "det_image_mod8"):
            assert rep.witnesses[key] == ref.witnesses[key]

    def test_det_deficient_group_rejected(self):
        rep = is_minimal(closure([(3, 0, 0, 1)], 8))
        assert rep.verdict is False
        assert rep.det_surjective is False
        assert rep.witnesses["kind"] == "failed_precondition"

    def test_sanity_recheck_recorded_for_shallow_levels(self):
        rep = is_minimal(sylow_pro2_subgroup())
        assert rep.sanity_recheck == {"modulus": 16, "agrees": True}

    def test_minimal_entry_accepted(self, census8):
        H = census8[0].subgroup()
        rep = is_minimal(H)
        assert rep.verdict is True
        assert rep.frattini_rank == 2
        assert rep.certifying_modulus == 16
        assert rep.to_json_dict()["provisional"] is False
        imgs = rep.witnesses["maximal_det_images_mod8"]
        assert sorted(map(tuple, imgs)) == [(1, 3), (1, 5), (1, 7)]

    def test_level8_diagonal_group_is_certified_at_16(self):
        # rank 2 mod 8, but the open group S denotes has level 8 and is
        # not minimal: the certificate needs modulus 16
        S = closure([(3, 0, 0, 1), (5, 0, 0, 1)], 8)
        assert S.level() == 8
        assert S.frattini_quotient().rank == 2
        honest = is_minimal(S)
        assert honest.verdict is False
        assert honest.frattini_rank == 5
        assert honest.certifying_modulus == 16

    def test_odd_prime_rejected(self):
        with pytest.raises(ValueError):
            is_minimal(OpenSubgroup(3, 3, []))

    def test_hyperplane_witness_builds_one_subgroup(self, monkeypatch):
        # <diag(3,1), diag(5,1)> has rank 5 at 16: 31 hyperplanes, of which
        # only the det-full witness needs Schreier generators
        calls = []
        real = subgroups.schreier_generators

        def spy(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(subgroups, "schreier_generators", spy)
        rep = is_minimal(OpenSubgroup(2, 8, [(3, 0, 0, 1), (5, 0, 0, 1)]))
        assert rep.frattini_rank == 5
        assert rep.witnesses["index_in_group"] == 2
        assert len(calls) == 1


class TestNonTwoGroupWitness:
    """The witness for a det-full non-2-group is its index-3 Sylow subgroup."""

    def test_level4_check_report_bytes(self, tmp_path, monkeypatch):
        # level 4, 384 elements at its certifying modulus 8; the digest was
        # recorded while the witness was still grown upward by closures
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.json").write_text(json.dumps(
            {"prime": 2, "modulus": 16,
             "generators": [[12, 13, 13, 7], [15, 9, 15, 12]]}))
        rep = report.run(RunConfig(command="check", group_path="g.json"))
        assert rep.results["witnesses"]["index_in_group"] == 3
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == \
            "80f351875667bfd9a8844f5c5517e3e8dcb249d04fcb4a7ee62b48af1fb2e3ec"

    def test_level16_group_above_2_to_the_14_elements(self):
        H = OpenSubgroup(2, 16, [(15, 11, 13, 0), (3, 5, 11, 6), (15, 9, 6, 13)])
        rep = is_minimal(H)
        assert rep.certifying_modulus == 32
        assert rep.verdict is False
        assert rep.det_surjective and not rep.is_two_group
        wit = rep.witnesses
        assert wit["kind"] == "maximal_subgroup_with_full_det"
        assert wit["index_in_group"] == 3
        assert wit["det_image_mod8"] == [1, 3, 5, 7]
        HM = H.lift(32)
        assert HM.order() == 24576
        W = OpenSubgroup.from_json_dict(wit["subgroup"])
        assert W.modulus == 32 and W.order() == 8192
        assert kernels.in_sorted(W.elements, HM.elements).all()


class TestMaximalDetImages:
    def test_minimal_group_gives_the_three_index2_unit_groups(self, census8):
        imgs = maximal_determinant_images(census8[0].subgroup())
        assert sorted(sorted(s) for s in imgs) == [[1, 3], [1, 5], [1, 7]]

    def test_rank_counts_match(self):
        H = sylow_pro2_subgroup()
        imgs = maximal_determinant_images(H)
        assert len(imgs) == 2 ** 4 - 1  # one per index-2 subgroup
        full = [s for s in imgs if s == frozenset({1, 3, 5, 7})]
        assert full  # witnesses non-minimality


class TestCensus:
    def test_no_minimal_groups_of_level_at_most_2(self):
        assert minimality.census(2, 96) == []

    def test_level_8_count_and_labels(self, census8):
        assert len(census8) == 4
        assert [(e.level, e.index, e.genus) for e in census8] == [(8, 24, 0)] * 4
        assert not any(e.contains_minus_I for e in census8)
        keys = [e.canonical_key for e in census8]
        assert len(set(keys)) == 4
        assert keys == sorted(keys)

    def test_census_is_deterministic(self, census8):
        again = minimality.census(8, 96)
        assert [e.canonical_key for e in again] == \
            [e.canonical_key for e in census8]
        assert [e.generators for e in again] == [e.generators for e in census8]

    def test_entries_reverify(self, census8):
        for e in census8:
            H = e.subgroup()
            rep = is_minimal(H)
            assert rep.verdict is True
            assert H.level() == e.level
            assert H.index_in_ambient() == e.index

    def test_genus_filter_subsets(self, genus0_census, census8):
        g0keys = {e.canonical_key for e in genus0_census}
        assert {e.canonical_key for e in census8} <= g0keys

    def test_genus0_totals(self, genus0_census):
        assert len(genus0_census) == 28
        tally = {}
        for e in genus0_census:
            tally[(e.level, e.index)] = tally.get((e.level, e.index), 0) + 1
        assert tally == {(8, 24): 4, (16, 48): 8, (32, 96): 16}
        assert not any(e.contains_minus_I for e in genus0_census)
        assert all(e.genus == 0 for e in genus0_census)

    def test_genus0_entries_sorted_and_distinct(self, genus0_census):
        keys = [(e.level, e.index, e.canonical_key) for e in genus0_census]
        assert keys == sorted(keys)
        assert len({e.canonical_key for e in genus0_census}) == 28

    def test_genus0_json_roundtrip(self, genus0_census):
        e = genus0_census[0]
        d = e.to_json_dict()
        assert d["level"] == 8 and d["index"] == 24 and d["genus"] == 0
        assert d["genus_data"]["genus"] == 0
        H = e.subgroup()
        assert H.modulus == e.modulus

    def test_budget_error_carries_progress(self, monkeypatch):
        # the lift bound reads the budget at call time: the first lift of a
        # level-8 node to its certifying modulus 16 passes it
        monkeypatch.setattr(kernels, "ELEMENT_BUDGET", 1000)
        with pytest.raises(CensusBudgetError) as exc:
            minimality.census(8, 96)
        assert isinstance(exc.value, kernels.BudgetExceeded)
        assert exc.value.partial_entries == []


class TestSupportingSweeps:
    def test_unit_square_lemma_counts(self):
        assert minimality.verify_unit_square_lemma(6) == \
            {3: 5, 4: 8, 5: 11, 6: 14}

    def test_non_two_group_witness_sweep(self, non_two_group_sweep):
        assert non_two_group_sweep == {
            "classes_containing_order3": 105,
            "det_full_non_two_groups": 27,
        }

    def test_nilpotent_lift_counts(self, nilpotent_sweep):
        assert nilpotent_sweep == {"classes": 16, "nilpotent_lifts": 4}


class TestFalsifier:
    def test_class_counts(self, falsifier_reports):
        assert falsifier_reports[3].subgroup_classes == 16
        assert falsifier_reports[3].det_full_classes == 9
        assert falsifier_reports[5].subgroup_classes == 48
        assert falsifier_reports[5].det_full_classes == 19

    def test_every_det_full_class_is_witnessed(self, falsifier_reports):
        for p in (3, 5):
            rep = falsifier_reports[p]
            assert len(rep.witnesses) == rep.det_full_classes
            seen = {w.base_class_index for w in rep.witnesses}
            assert len(seen) == rep.det_full_classes

    def test_witnesses_verify(self, falsifier_reports):
        for p in (3, 5):
            for w in falsifier_reports[p].witnesses:
                m = p * p
                g = kernels.pack(*w.generator)
                assert w.cyclic_order < w.preimage_order
                # det of the cyclic group covers all units mod p^2
                assert w.det_order == p * (p - 1)
                dets = set()
                acc = g
                for k in range(1, w.cyclic_order + 1):
                    # g^k is the identity first at k = cyclic_order
                    assert (acc == kernels.IDENTITY) == (k == w.cyclic_order)
                    dets.add(kernels.det(acc, m))
                    acc = kernels.mul(acc, g, m)
                assert len(dets) == p * (p - 1)

    def test_rejects_unsupported_prime(self):
        with pytest.raises(ValueError):
            minimality.falsify_odd_prime(7)


def _pop_time_census_nodes(level_bound, index_bound):
    """(level, own digest) of the kept census nodes, in order, by the
    earlier pop-time path: every child is pushed once it passes the level
    bound, and its level, reduction and digest are computed when popped.
    A node is expanded under the same rank bound as the census."""
    from minimal2.minimality import (
        _hyperplane_det_images,
        _model_at,
        certifying_modulus,
    )
    from minimal2.subgroups import UNIT_RESIDUES_MOD_8, schreier_generators

    seen, kept = set(), []
    stack = [sylow_pro2_subgroup()]
    while stack:
        H = stack.pop()
        lvl, idx = H.level(), H.index_in_ambient()
        HL = H.reduce(lvl)
        HL._level = lvl
        if HL.own_digest() in seen:
            continue
        seen.update(HL.conjugacy_digests())
        kept.append((lvl, HL.own_digest()))
        HM = _model_at(H, certifying_modulus(lvl))
        fq = HM.frattini_quotient(verify=False)
        if fq.rank == 2 or idx * 2 ** (fq.rank - 2) > index_bound:
            continue
        images = _hyperplane_det_images(fq, HM.modulus)
        for mu in range(1, 1 << fq.rank):
            if images[mu - 1] != UNIT_RESIDUES_MOD_8:
                continue
            gens = schreier_generators(fq, fq.basis, mu)
            child = OpenSubgroup(2, HM.modulus, [kernels.unpack(g) for g in gens],
                                 _elements=HM.elements[fq.hyperplane_mask(mu)])
            if child.level() <= level_bound:
                stack.append(child)
    return kept


@pytest.fixture(scope="module")
def traced_census_16_48():
    """census(16, 48) with its models recorded: every group passed to
    _model_at with the model returned, and (level, own digest) of every
    kept node."""
    popped, models, kept = [], [], []
    model_at = minimality._model_at
    digests = OpenSubgroup.conjugacy_digests

    def record_model_at(H, modulus):
        popped.append(H)
        models.append(model_at(H, modulus))
        return models[-1]

    def record_digests(self):
        kept.append((self.level(), self.own_digest()))
        return digests(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimality, "_model_at", record_model_at)
        mp.setattr(OpenSubgroup, "conjugacy_digests", record_digests)
        entries = minimality.census(16, 48)
    return entries, popped, models, kept


class TestHyperplaneDetImages:
    """The det images read off the Frattini basis, against the det image of
    every hyperplane subgroup's whole element set."""

    def _check(self, HM):
        """Compare the two on every hyperplane of HM; return its rank."""
        fq = HM.frattini_quotient(verify=False)
        brute = [kernels.det_image(HM.elements[fq.hyperplane_mask(mu)], HM.modulus, 8)
                 for mu in range(1, 1 << fq.rank)]
        assert minimality._hyperplane_det_images(fq, HM.modulus) == brute
        return fq.rank

    def test_mod8_sylow(self):
        assert self._check(sylow_pro2_subgroup()) == 4

    def test_level8_diagonal_group_at_its_certifying_modulus(self):
        S = closure([(3, 0, 0, 1), (5, 0, 0, 1)], 8)
        HM = minimality._model_at(S, minimality.certifying_modulus(S.level()))
        assert HM.modulus == 16
        assert self._check(HM) == 5

    def test_every_census_node(self, traced_census_16_48):
        _, _, models, _ = traced_census_16_48
        ranks = [self._check(HM) for HM in models]
        assert len(ranks) > 100
        assert max(ranks) >= 3 and min(ranks) == 2


class TestRankBound:
    def test_hyperplane_children_lose_at_most_one_rank(self, traced_census_16_48):
        """rank(K) >= rank(H) - 1 for every det-full hyperplane child K of a
        census node H of rank >= 3, each rank read at its own certifying
        modulus; the census's rank bound rests on it."""
        from minimal2.subgroups import UNIT_RESIDUES_MOD_8

        _, _, models, _ = traced_census_16_48
        children = tight = 0
        for HM in models:
            fq = HM.frattini_quotient(verify=False)
            if fq.rank < 3:
                continue
            images = minimality._hyperplane_det_images(fq, HM.modulus)
            for mu in range(1, 1 << fq.rank):
                if images[mu - 1] != UNIT_RESIDUES_MOD_8:
                    continue
                K = HM.hyperplane_subgroup(mu)
                KM = minimality._model_at(
                    K, minimality.certifying_modulus(K.level()))
                rank = KM.frattini_quotient(verify=False).rank
                assert rank >= fq.rank - 1
                children += 1
                tight += rank == fq.rank - 1
        assert children > 1000
        # the bound is reached, so a weaker bound would be visible here
        assert tight > 0


# sha256 of json.dumps([e.to_json_dict() for e in census(lb, ib)]), recorded
# before the census had its rank bound.
CENSUS_JSON_SHA256 = {
    (32, 96): "eb08b31c512457dc150e8d541a9d7f00756b97e07cf1545928790555b5be8b12",
    (16, 192): "e5ad9532b7b477d16ed458ef45a96bcd3e7a690d7f97be9848cc72530b85a04b",
}


@pytest.mark.parametrize("bounds", sorted(CENSUS_JSON_SHA256),
                         ids=lambda b: f"{b[0]}-{b[1]}")
def test_census_entry_bytes(bounds):
    entries = minimality.census(*bounds)
    blob = json.dumps([e.to_json_dict() for e in entries]).encode()
    assert hashlib.sha256(blob).hexdigest() == CENSUS_JSON_SHA256[bounds]


def test_census_lays_out_one_quotient_per_expanded_node_or_entry(monkeypatch):
    """census(16, 24) reads each node's rank off |H : Phi(H)| and calls
    frattini_quotient only for a node it expands or records, not for the
    nodes the rank bound drops.  The is_minimal rechecks of the entries
    build fresh groups and are not counted."""
    calls, expanded, in_recheck = [], [], []
    frattini_quotient = OpenSubgroup.frattini_quotient
    hyperplane_det_images = minimality._hyperplane_det_images
    recheck = minimality.is_minimal

    def count_quotients(self, verify=True):
        if not in_recheck:
            calls.append(self)
        return frattini_quotient(self, verify)

    def count_expanded(fq, modulus):
        if not in_recheck:
            expanded.append(fq)
        return hyperplane_det_images(fq, modulus)

    def rechecked(H):
        in_recheck.append(H)
        try:
            return recheck(H)
        finally:
            in_recheck.pop()

    kept = []
    conjugacy_digests = OpenSubgroup.conjugacy_digests

    def count_kept(self):
        kept.append(None)
        return conjugacy_digests(self)

    monkeypatch.setattr(OpenSubgroup, "frattini_quotient", count_quotients)
    monkeypatch.setattr(minimality, "_hyperplane_det_images", count_expanded)
    monkeypatch.setattr(minimality, "is_minimal", rechecked)
    monkeypatch.setattr(OpenSubgroup, "conjugacy_digests", count_kept)
    entries = minimality.census(16, 24)
    assert len(kept) == 63
    assert len({id(H) for H in calls}) == len(calls)  # once per group
    assert len(calls) == len(expanded) + len(entries) == 23 + 4


class TestCensusChildLevels:
    def test_child_levels_and_digests_match_the_pop_time_path(
            self, traced_census_16_48):
        entries, popped, _, kept = traced_census_16_48
        assert len(entries) == 12
        assert len(kept) > 100
        # every popped node's level, set by the child path, against a fresh
        # object that recomputes it from its generators
        for H in popped:
            fresh = OpenSubgroup(2, H.modulus, H.generators)
            assert H._level == fresh.level()
            assert (fresh.elements == H.elements).all()
        assert kept == _pop_time_census_nodes(16, 48)


def test_lattice_at_level_8_finds_the_census_classes(gl2_z8_table, gl2_z8_lattice):
    """Second method at level 8: ``is_minimal`` on every det-full 2-group
    class of the whole subgroup lattice of GL_2(Z/8), with no descent,
    digest or cut, accepts exactly the classes of census(8, 1 << 30).
    Classes are compared by the sha256 of the table's conjugacy key.
    About 4.5 s: 1 s for the shared lattice, 3 s for is_minimal and the
    census."""
    t = gl2_z8_table

    def key(idx):
        return hashlib.sha256(t.canonical_subgroup_key(idx)).hexdigest()

    candidates = [(idx, gens) for idx, gens in gl2_z8_lattice
                  if len(idx) & (len(idx) - 1) == 0
                  and kernels.det_image(t.elements[idx], 8, 8)
                  == minimality.UNIT_RESIDUES_MOD_8]
    assert len(candidates) == 1239
    accepted = {key(idx) for idx, gens in candidates
                if is_minimal(OpenSubgroup(2, 8, t.elements[gens],
                                           _elements=t.elements[idx])).verdict}

    entries = minimality.census(8, 1 << 30)
    assert [(e.level, e.index) for e in entries] == [(8, 24)] * 4
    census_keys = {key(np.searchsorted(t.elements, e.subgroup().reduce(8).elements))
                   for e in entries}
    assert len(census_keys) == 4
    assert accepted == census_keys
