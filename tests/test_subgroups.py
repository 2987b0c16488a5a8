"""Open subgroup models: levels, determinant images, Frattini data."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from minimal2 import kernels, subgroups
from minimal2.minimality import census
from minimal2.modmat import _prime_factors, gl2_order
from minimal2.subgroups import (
    FrattiniQuotient,
    OpenSubgroup,
    _is_primitive_root,
    ambient_generators,
    closure,
    schreier_generators,
    sylow_subgroup,
)
from test_kernels import conj_array

D31 = (3, 0, 0, 1)
D51 = (5, 0, 0, 1)
D71 = (7, 0, 0, 1)
SHEAR = (1, 1, 0, 1)


def full_group(modulus):
    return OpenSubgroup(2, modulus,
                        [kernels.unpack(g) for g in ambient_generators(2, modulus)])


def sylow8():
    return OpenSubgroup(2, 8, [(1, 1, 0, 1), (1, 0, 2, 1), (3, 0, 0, 1),
                               (1, 0, 0, 3), (5, 0, 0, 1), (1, 0, 0, 5)])


def rank3_group():
    # a det-full index-2 subgroup of the Sylow, Frattini rank 3
    return OpenSubgroup(2, 8, [(5, 1, 0, 1), (5, 5, 0, 1), (1, 0, 2, 1),
                               (3, 0, 0, 1), (1, 0, 0, 3), (5, 0, 0, 5)])


def phi_mask(fq):
    """Mask of Phi(H) in the element set: the intersection of the
    hyperplane subgroups ker(e_j), one per basis vector."""
    return np.logical_and.reduce([fq.hyperplane_mask(1 << j)
                                  for j in range(fq.rank)])


class TestConstruction:
    def test_rejects_modulus_prime_mismatch(self):
        with pytest.raises(ValueError):
            OpenSubgroup(2, 9, [])
        with pytest.raises(ValueError):
            OpenSubgroup(3, 8, [])

    def test_huge_modulus_is_refused_before_factoring(self, monkeypatch):
        # factoring 2^61 - 1 by trial division would take minutes
        real = subgroups._prime_power

        def spy(m):
            assert m <= kernels.MAX_PACK_MODULUS, f"factored {m}"
            return real(m)

        monkeypatch.setattr(subgroups, "_prime_power", spy)
        huge = (1 << 61) - 1
        with pytest.raises(ValueError, match=f"modulus {huge} is above 256"):
            OpenSubgroup(2, huge, [])
        with pytest.raises(ValueError, match=f"modulus {huge} is above 256"):
            closure([SHEAR], huge)

    def test_rejects_singular_generator(self):
        with pytest.raises(ValueError):
            OpenSubgroup(2, 8, [(2, 0, 0, 1)])

    def test_trivial_closure(self):
        H = OpenSubgroup(2, 8, [])
        assert H.order() == 1
        assert list(H.elements) == [kernels.IDENTITY]

    def test_order_times_index_is_ambient_order(self):
        for H in (full_group(8), sylow8(), closure([D31, D51], 8)):
            assert H.order() * H.index_in_ambient() == gl2_order(8)


class TestLevel:
    def test_full_group_has_level_one(self):
        assert full_group(8).level() == 1
        assert full_group(16).level() == 1

    def test_sylow_has_level_two(self):
        assert sylow8().level() == 2

    def test_congruence_kernel_level(self):
        # full preimage of the identity mod 4, modeled at 8
        K = OpenSubgroup(2, 8, [(1, 4, 0, 1), (1, 0, 4, 1),
                                (5, 0, 0, 1), (1, 0, 0, 5)])
        assert K.order() == 16
        assert K.level() == 4

    def test_small_closed_group_has_full_level(self):
        # <diag(3,1), diag(5,1)> mod 8 is not a preimage from any lower
        # modulus, so its level equals the modulus
        H = closure([D31, D51], 8)
        assert H.order() == 4
        assert H.level() == 8

    def test_level_rebuild_roundtrip_random(self):
        g16 = full_group(16)
        rng = np.random.default_rng(0)
        pool = g16.elements
        for _ in range(100):
            a = kernels.unpack(int(pool[int(rng.integers(len(pool)))]))
            b = kernels.unpack(int(pool[int(rng.integers(len(pool)))]))
            H = closure([a, b], 16)
            lvl = H.level()
            assert 16 % lvl == 0 or lvl == 1
            if lvl == 1:
                assert H.order() == gl2_order(16)
                continue
            back = H.reduce(lvl).lift(16)
            assert np.array_equal(back.elements, H.elements)


class TestReduceLift:
    def test_reduce_to_divisor_only(self):
        with pytest.raises(ValueError):
            sylow8().reduce(3)

    def test_lift_multiplies_order_by_kernel(self):
        H = sylow8()
        up = H.lift(16)
        assert up.modulus == 16
        assert up.order() == H.order() * 16
        assert up.level() == H.level()

    def test_reduce_then_lift_fixes_preimage_groups(self):
        H = sylow8()  # level 2 <= 8, a genuine preimage
        again = H.reduce(4).lift(8)
        assert np.array_equal(again.elements, H.elements)

    @pytest.mark.parametrize("gens", [[], [SHEAR], [(0, 1, 1, 0)], [D31],
                                      [SHEAR, (1, 0, 1, 1)]])
    def test_lift_generators_generate_the_preimage(self, gens):
        # the lift's own generators close up to the full preimage
        for m, m2 in ((2, 4), (2, 8), (2, 16), (4, 8), (4, 16), (8, 16)):
            H = OpenSubgroup(2, m, gens)
            up = H.lift(m2)
            got = kernels.closure(up.generators, m2)
            want = kernels.lift_array(H.elements, m, m2)
            assert np.array_equal(got, want), (m, m2)

    def test_mod2_sylow_model_lifts_to_the_sylow(self):
        H = OpenSubgroup(2, 2, [SHEAR])
        assert H.lift(8).order() == sylow8().order() == 512
        assert H.lift(8).det_surjective_2adic() is True

    def test_lift_keeps_a_known_level(self):
        for H in (sylow8(), rank3_group(), closure([D31, D51], 8)):
            assert H.lift(16)._level is None  # nothing known, nothing kept
            lvl = H.level()
            for m2 in (16, 32):
                up = H.lift(m2)
                assert up._level == lvl
                # a fresh group from the lifted generators agrees
                assert OpenSubgroup(2, m2, up.generators).level() == lvl

    def test_reduce_keeps_the_level_only_when_it_divides(self):
        H = closure([D31, D51], 8).lift(32)
        assert H.level() == 8
        for m2 in (16, 8):
            down = H.reduce(m2)
            assert down._level == 8
            assert OpenSubgroup(2, m2, down.generators).level() == 8
        # below the level the image is another group, with its own level
        low = H.reduce(4)
        assert low._level is None
        assert low.level() == OpenSubgroup(2, 4, low.generators).level() == 4


def det_image8(H):
    return kernels.det_image(H.elements, H.modulus, 8)


class TestDetImage:
    def test_full_group(self):
        assert det_image8(full_group(8)) == {1, 3, 5, 7}
        assert full_group(8).det_surjective_2adic() is True

    def test_sl2_has_trivial_det(self):
        H = closure([SHEAR, (1, 0, 1, 1)], 8)
        assert H.order() == 384
        assert det_image8(H) == {1}
        assert H.det_surjective_2adic() is False

    def test_single_diagonal_generators(self):
        assert det_image8(closure([D31], 8)) == {1, 3}
        assert closure([D71], 8).det_surjective_2adic() is False
        assert closure([D31, D51], 8).det_surjective_2adic() is True

    def test_det_image_needs_modulus_at_least_8(self):
        with pytest.raises(ValueError):
            closure([D31], 4).det_surjective_2adic()
        with pytest.raises(ValueError):
            kernels.det_image(closure([D31], 4).elements, 4, 8)

    def test_det_image_shrinks_with_subgroups(self):
        H = closure([D31, D51], 8)
        full = det_image8(H)
        for child in H.index2_subgroups():
            assert det_image8(child) <= full


class TestFrattini:
    def test_trivial_group_rank_zero(self):
        fq = OpenSubgroup(2, 8, []).frattini_quotient()
        assert fq.rank == 0

    def test_cyclic_rank_one(self):
        fq = closure([SHEAR], 8).frattini_quotient()
        assert fq.rank == 1

    def test_diagonal_group_rank_two(self):
        H = closure([D31, D51], 8)
        fq = H.frattini_quotient()
        assert fq.rank == 2
        assert len(H.elements[phi_mask(fq)]) == 1  # Phi = {I} here

    def test_coords_are_additive(self):
        H = sylow8()
        fq = H.frattini_quotient()
        rng = np.random.default_rng(1)
        pool = H.elements
        for _ in range(100):
            x = int(pool[int(rng.integers(len(pool)))])
            y = int(pool[int(rng.integers(len(pool)))])
            cx = fq.coords(x)
            cy = fq.coords(y)
            cxy = fq.coords(kernels.mul(x, y, 8))
            assert cxy == tuple((a + b) % 2 for a, b in zip(cx, cy))

    def test_basis_coords_are_unit_vectors(self):
        fq = sylow8().frattini_quotient()
        for i, b in enumerate(fq.basis):
            v = fq.coords(b)
            assert v == tuple(1 if j == i else 0 for j in range(fq.rank))

    def test_squares_land_in_phi(self):
        H = closure([D31, D51], 8)
        fq = H.frattini_quotient()
        for x in H.elements:
            sq = kernels.mul(int(x), int(x), 8)
            assert fq.coords(sq) == (0, 0)

    def test_rejects_non_two_group(self):
        with pytest.raises(ValueError):
            full_group(8).frattini_quotient()

    def test_sweep_runs_above_2_to_the_20_elements(self, monkeypatch):
        # the Sylow pro-2 subgroup at modulus 64 has 2^21 elements; asking
        # for the quotient runs the sweep whatever the size
        calls = []
        real = OpenSubgroup._verify_frattini

        def spy(self, fq):
            calls.append(len(self.elements))
            return real(self, fq)

        monkeypatch.setattr(OpenSubgroup, "_verify_frattini", spy)
        H = sylow8().lift(64)
        assert H.order() == 1 << 21
        H.frattini_quotient()
        assert calls == [1 << 21]

    def test_scalar_lookups_do_not_copy_the_element_set(self):
        # np.searchsorted of a uint32 set and a Python int first copies the
        # set to int64, 8 MB for these 2^20 elements; the lookups cast x
        H = sylow8().hyperplane_subgroup(1).lift(64)
        assert H.order() == 1 << 20
        fq = H.frattini_quotient(verify=False)
        x = int(H.elements[-1])
        tracemalloc.start()
        try:
            assert kernels.contains(H.elements, x)
            fq.coords(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rank_is_the_fewest_generators(self):
        # Burnside basis theorem, checked against an exhaustive search
        sylow4 = sylow8().reduce(4)
        assert sylow4.order() == 32
        pool = [int(x) for x in sylow4.elements]
        groups = {}
        for x in pool:
            for y in pool:
                elems = kernels.closure([x, y], 4)
                groups.setdefault(elems.tobytes(), (elems, [x, y]))
        assert len(groups) > 50
        for elems, gens in groups.values():
            H = OpenSubgroup(2, 4, [kernels.unpack(g) for g in gens],
                             _elements=elems)
            assert H.frattini_quotient().rank == _fewest_generators(elems, 4)
        H = sylow8()
        assert H.frattini_quotient().rank == _fewest_generators(H.elements, 8) == 4

    def test_non_generating_generators_rejected(self):
        # <diag(3,1), diag(5,1)> is a proper subgroup of the stored set
        H = OpenSubgroup(2, 8, [D31, D51], _elements=sylow8().elements)
        with pytest.raises(AssertionError, match="do not generate"):
            H.frattini_quotient(verify=False)

    @pytest.mark.parametrize("drop", ["first", "last"])
    def test_sweep_rejects_an_element_set_missing_a_non_phi_element(self, drop):
        # Remove one element outside Phi from the element set and from the
        # quotient; some product x g then lands outside the stored set.
        H = rank3_group()
        fq = H.frattini_quotient(verify=False)
        outside = np.flatnonzero(fq._coords != 0)
        i = int(outside[0] if drop == "first" else outside[-1])
        elems = np.delete(H.elements, i)
        cut = OpenSubgroup(2, 8, H.generators,
                           _elements=elems)
        bad = FrattiniQuotient(rank=fq.rank, basis=fq.basis, _modulus=8,
                               _elements=elems, _coords=np.delete(fq._coords, i))
        with pytest.raises(AssertionError, match="outside the element set"):
            cut._verify_frattini(bad)

    def test_sweep_rejects_tampered_coordinates(self):
        H = rank3_group()
        fq = H.frattini_quotient(verify=False)
        H._verify_frattini(fq)  # the true quotient passes
        coords = fq._coords.copy()
        coords[np.flatnonzero(coords != 0)[0]] ^= 1
        bad = FrattiniQuotient(rank=fq.rank, basis=fq.basis, _modulus=8,
                               _elements=fq._elements, _coords=coords)
        with pytest.raises(AssertionError):
            H._verify_frattini(bad)

    def test_sweep_rejects_a_phi_element_with_nonzero_coordinates(self):
        # a square with a nonzero coordinate breaks some edge x g -> x g,
        # so the edge check alone rejects it
        H = sylow8()
        fq = H.frattini_quotient(verify=False)
        phi = np.flatnonzero((fq._coords == 0) & (H.elements != kernels.IDENTITY))
        assert len(phi) > 0
        coords = fq._coords.copy()
        coords[phi[0]] = 1
        bad = FrattiniQuotient(rank=fq.rank, basis=fq.basis, _modulus=8,
                               _elements=fq._elements, _coords=coords)
        with pytest.raises(AssertionError, match="not multiplicative"):
            H._verify_frattini(bad)


def _sylow_element(rng, m, det8=None):
    """A random element of the mod-m pro-2 Sylow model (a, d odd, c even),
    with the given determinant mod 8 when det8 is set."""
    while True:
        a, d = (2 * int(v) + 1 for v in rng.integers(0, m // 2, 2))
        b, c = int(rng.integers(0, m)), 2 * int(rng.integers(0, m // 2))
        if det8 is None or (a * d - b * c) % 8 == det8:
            return a, b, c, d


def _bfs_greedy_generators(targets, m):
    """The greedy generator pick of subgroups._greedy_generators, with every
    group rebuilt by the breadth-first kernels.closure."""
    gens, current = [], kernels.closure([], m)
    while True:
        missing = targets[~np.isin(targets, current)]
        if not missing.size:
            return gens, current
        gens.append(int(missing[0]))
        current = kernels.closure(gens, m)


class TestFrattiniPath:
    # sha256 of (rank, basis, coordinate bytes) over the quotients of the 40
    # pairs <A, B> mod 32 (det A = 3, det B = 5 mod 8) drawn as in the
    # benchmark's certify workload, then of the Sylow model mod 8, 16 and 32
    QUOTIENTS_SHA256 = "abd0e08cebe11ad38d443ee086b67f3fccb26577dd4f57bb485edd6905900ee8"

    def test_quotients_are_pinned(self):
        rng = np.random.default_rng(20240217)
        groups = [closure([_sylow_element(rng, 32, 3), _sylow_element(rng, 32, 5)], 32)
                  for _ in range(40)]
        groups += [sylow8(), sylow8().lift(16), sylow8().lift(32)]
        h = hashlib.sha256()
        for H in groups:
            fq = H.frattini_quotient()
            h.update(f"{fq.rank}|{','.join(map(str, fq.basis))}|".encode())
            h.update(fq._coords.astype("<u4").tobytes())
        assert h.hexdigest() == self.QUOTIENTS_SHA256

    @pytest.mark.parametrize("m", [4, 8, 16, 32, 64])
    def test_coset_growth_matches_the_bfs(self, m):
        rng = np.random.default_rng(m)
        for k in (1, 2, 3, 4):
            xs = kernels.as_packed([kernels.pack(*_sylow_element(rng, m))
                                    for _ in range(k)])
            targets = kernels.unique(kernels.square_array(xs, m))
            gens, group = subgroups._greedy_generators(targets, m)
            want_gens, want = _bfs_greedy_generators(targets, m)
            assert gens == want_gens
            assert np.array_equal(group, want)

    def test_sweep_rejects_swapped_coordinates(self):
        # swapping the coordinates of two elements keeps every coordinate
        # and every element, so only the edges can tell
        H = rank3_group()
        fq = H.frattini_quotient(verify=False)
        gens = np.isin(H.elements, kernels.as_packed(H.generators))
        i = int(np.flatnonzero(~gens & (fq._coords == 1))[0])
        j = int(np.flatnonzero(~gens & (fq._coords == 2))[0])
        coords = fq._coords.copy()
        coords[[i, j]] = coords[[j, i]]
        bad = FrattiniQuotient(rank=fq.rank, basis=fq.basis, _modulus=8,
                               _elements=fq._elements, _coords=coords)
        with pytest.raises(AssertionError, match="not multiplicative"):
            H._verify_frattini(bad)


def _grown_phi(H):
    """Phi of a fresh, unlinked object with H's elements: the greedy
    closure of its squares."""
    fresh = OpenSubgroup(H.prime, H.modulus, H.generators, _elements=H.elements.copy())
    squares = kernels.unique(kernels.square_array(fresh.elements, fresh.modulus))
    return subgroups._greedy_generators(squares, fresh.modulus)[1]


class TestInheritedPhi:
    """Phi(K) read off the parent's Phi(H)/Phi(Phi(H)) equals Phi(K) grown
    from the squares of K."""

    def test_every_census_node_with_an_inherited_phi(self, monkeypatch):
        from minimal2 import minimality

        inherited, grown, in_recheck = [], [], []
        frattini_subgroup = OpenSubgroup.frattini_subgroup
        is_minimal = minimality.is_minimal

        def spy(self):
            first = self._phi is None and not in_recheck
            linked = self._parent is not None
            phi = frattini_subgroup(self)
            if first:
                (inherited if linked else grown).append((self, phi))
                assert self._parent is None  # the link is dropped
            return phi

        def recheck(H):
            in_recheck.append(H)
            try:
                return is_minimal(H)
            finally:
                in_recheck.pop()

        monkeypatch.setattr(OpenSubgroup, "frattini_subgroup", spy)
        monkeypatch.setattr(minimality, "is_minimal", recheck)
        assert len(census(16, 48)) == 12
        # 310 popped nodes: only the root grows Phi; the 241 children at
        # their parent's certifying modulus and the 68 lifted to twice it
        # inherit it
        assert (len(inherited), len(grown)) == (309, 1)
        for K, phi in inherited:
            assert np.array_equal(phi, _grown_phi(K))

    @pytest.mark.parametrize("make", [
        lambda: sylow8().lift(16),
        *(lambda seed=seed: _seeded_det_full_group(seed) for seed in (1, 2, 3)),
    ], ids=["sylow-16", "seed1-32", "seed2-32", "seed3-32"])
    def test_every_hyperplane_subgroup(self, make):
        H = make()
        fq = H.frattini_quotient()
        assert fq.rank >= 3
        for mu in range(1, 1 << fq.rank):
            unlinked = H.hyperplane_subgroup(mu)
            assert unlinked._parent is None
            K = OpenSubgroup(H.prime, H.modulus, unlinked.generators,
                             _elements=unlinked.elements, _parent=H)
            phi = K.frattini_subgroup()
            assert K._parent is None
            assert np.array_equal(phi, _grown_phi(K))
            K.frattini_quotient()  # the sweep passes on the inherited Phi


def _seeded_det_full_group(seed):
    """<A, B, C, D> mod 32 in the Sylow with det A = 3 and det B = 5 mod 8:
    a det-full 2-group."""
    rng = np.random.default_rng(seed)
    H = closure([_sylow_element(rng, 32, 3), _sylow_element(rng, 32, 5),
                 _sylow_element(rng, 32), _sylow_element(rng, 32)], 32)
    assert H.is_two_group() and H.det_surjective_2adic()
    return H


def _fewest_generators(elements, m):
    """Fewest elements that generate the group, by exhaustive search.

    Layer k holds every distinct subgroup <S, x_1, ..., x_k>, where S is the
    set of all squares; x_k runs over one element per coset of the layer
    below, which is enough since <K, x> = <K, kx> for k in K.  Elements that
    fail to generate even together with S fail alone, so the first layer
    that reaches the group gives a lower bound; the generators found there
    are then checked to generate without S.  Uses closure only.
    """
    squares = [int(v) for v in
               np.unique(kernels.mul_arrays(elements, elements, m))]
    layer = {kernels.closure(squares, m).tobytes(): []}
    while elements.tobytes() not in layer:
        grown = {}
        for kb, gens in layer.items():
            K = np.frombuffer(kb, dtype=elements.dtype)
            todo = ~np.isin(elements, K)
            while todo.any():
                x = int(elements[np.argmax(todo)])
                coset = kernels.mul_array_scalar(K, x, m)
                todo[np.searchsorted(elements, coset)] = False
                grown.setdefault(
                    kernels.closure(squares + gens + [x], m).tobytes(),
                    gens + [x])
        layer = grown
    gens = layer[elements.tobytes()]
    assert np.array_equal(kernels.closure(gens, m), elements)
    return len(gens)


class TestIndexTwoSubgroups:
    def test_count_and_index(self):
        H = closure([D31, D51], 8)
        children = H.index2_subgroups()
        assert len(children) == 3
        for child in children:
            assert child.order() * 2 == H.order()

    def test_det_images_of_children_are_the_three_index2_unit_groups(self):
        H = closure([D31, D51], 8)
        images = sorted(tuple(sorted(det_image8(child)))
                        for child in H.index2_subgroups())
        assert images == [(1, 3), (1, 5), (1, 7)]

    def test_children_contain_phi_and_intersect_to_phi(self):
        H = closure([SHEAR, D31], 8)
        fq = H.frattini_quotient()
        phi = set(int(x) for x in H.elements[phi_mask(fq)])
        child_sets = [set(int(x) for x in c.elements)
                      for c in H.index2_subgroups()]
        for s in child_sets:
            assert phi <= s
        inter = set.intersection(*child_sets)
        assert inter == phi


class TestSchreierGenerators:
    @pytest.mark.parametrize("make", [sylow8, rank3_group])
    def test_generate_every_hyperplane_subgroup(self, make):
        H = make()
        fq = H.frattini_quotient()
        assert fq.rank == (4 if make is sylow8 else 3)
        for gens in (fq.basis, H.generators):
            for mu in range(1, 1 << fq.rank):
                sg = schreier_generators(fq, gens, mu)
                assert kernels.IDENTITY not in sg
                assert len(set(sg)) == len(sg)
                want = H.elements[fq.hyperplane_mask(mu)]
                assert np.array_equal(kernels.closure(sg, 8), want)

    def test_index2_subgroups_use_the_generators_in_order(self):
        H = rank3_group()
        fq = H.frattini_quotient()
        for mu, child in enumerate(H.index2_subgroups(), start=1):
            assert list(child.generators) == \
                schreier_generators(fq, H.generators, mu)


class TestPrimitiveRoot:
    @pytest.mark.parametrize("modulus", [9, 25, 27])
    def test_matches_brute_force_orders(self, modulus):
        p = 3 if modulus % 3 == 0 else 5
        phi = modulus // p * (p - 1)
        for g in range(modulus):
            order = None
            if g % p:
                order, acc = 1, g
                while acc != 1:
                    acc, order = acc * g % modulus, order + 1
            assert _is_primitive_root(g, modulus) == (order == phi), g


class TestNilpotency:
    def test_two_group_is_nilpotent(self):
        assert sylow8().is_nilpotent() is True

    def test_full_gl2_mod8_is_not(self):
        assert full_group(8).is_nilpotent() is False

    def test_full_gl2_mod3_is_not(self):
        G = OpenSubgroup(3, 3, [kernels.unpack(g)
                                for g in ambient_generators(3, 3)])
        assert G.order() == 48
        assert G.is_nilpotent() is False

    def test_lcs_matches_sylow_decomposition_mod9(self):
        # A finite group is nilpotent iff every Sylow subgroup is normal;
        # this oracle tests normality by conjugating each Sylow subgroup.
        # Random two-generator subgroups of GL_2(Z/9), GL_2(Z/8) and the
        # Borel subgroup mod 25 give nilpotent groups of one and of two
        # primes and non-nilpotent ones.
        def sylows_normal(H):
            for q in _prime_factors(H.order()):
                syl = sylow_subgroup(H.elements, H.modulus, q)
                for g in H.generators:
                    conj = kernels.conjugate_set(syl, [g], H.modulus)[0]
                    if not np.array_equal(conj, syl):
                        return False
            return True

        pools = (
            (9, 40, OpenSubgroup(3, 9, [kernels.unpack(g)
                                        for g in ambient_generators(3, 9)])),
            (8, 40, full_group(8)),
            (25, 20, closure([(2, 0, 0, 1), (1, 0, 0, 2), (1, 1, 0, 1)], 25)),
        )
        rng = np.random.default_rng(2)
        for modulus, draws, G in pools:
            pool = G.elements
            for _ in range(draws):
                a = kernels.unpack(int(pool[int(rng.integers(len(pool)))]))
                b = kernels.unpack(int(pool[int(rng.integers(len(pool)))]))
                H = closure([a, b], modulus)
                assert H.is_nilpotent() == sylows_normal(H)

    def test_abelian_group_is_nilpotent(self):
        assert closure([D31, D51], 8).is_nilpotent() is True


class TestCanonicalKey:
    def test_conjugation_invariance(self):
        H = sylow8()
        base = H.canonical_key()
        pool = full_group(8).elements
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = int(pool[int(rng.integers(len(pool)))])
            gens = [kernels.mul(kernels.mul(g, x, 8), kernels.inv(g, 8), 8)
                    for x in H.generators]
            assert OpenSubgroup(2, 8, gens).canonical_key() == base

    def test_upper_and_lower_triangular_preimages_conjugate(self):
        upper = sylow8()
        lower = OpenSubgroup(2, 8, [(1, 0, 1, 1), (1, 2, 0, 1), (3, 0, 0, 1),
                                    (1, 0, 0, 3), (5, 0, 0, 1), (1, 0, 0, 5)])
        assert lower.order() == upper.order()
        assert lower.canonical_key() == upper.canonical_key()

    def test_distinguishes_non_conjugate_groups(self):
        assert closure([D31], 8).canonical_key() != closure([D51], 8).canonical_key()
        assert sylow8().canonical_key() != full_group(8).canonical_key()

    def test_digest_set_closed_under_conjugation(self):
        H = closure([D31, D51], 8)
        digests = H.conjugacy_digests()
        assert H.own_digest() in digests


def _reference_orbit(H):
    """The conjugation orbit walked one member and one generator at a time."""
    amb = ambient_generators(H.prime, H.modulus)
    orbit = {H.elements.astype(">u4").tobytes()}
    stack = [H.elements]
    while stack:
        xs = stack.pop()
        for g in amb:
            conj = np.sort(conj_array(xs, g, H.modulus))
            kb = conj.astype(">u4").tobytes()
            if kb not in orbit:
                orbit.add(kb)
                stack.append(conj)
    return orbit


def _in_sylow(kb):
    """Whether the big-endian element bytes lie in S = {c = 0 mod 2}."""
    return not (np.frombuffer(kb, dtype=">u4") & (1 << 16)).any()


def _in_gamma2(elements):
    """Whether every element of the pro-2 Sylow is I mod 2 (b even)."""
    return not (elements & np.uint32(1 << 8)).any()


def _digests(H, orbit):
    """own_digest of every member of the orbit, given as element bytes."""
    prefix = f"{H.level()}|{H.index_in_ambient()}|".encode()
    return {hashlib.sha256(prefix + kb).digest() for kb in orbit}


class TestConjugationOrbit:
    def test_matches_reference_walk_on_census_nodes(self, monkeypatch):
        # every kept node of census(16, 48), with the orbit its census walk
        # computed
        kept = []
        digests = OpenSubgroup.conjugacy_digests

        def record(self):
            kept.append(self)
            return digests(self)

        monkeypatch.setattr(OpenSubgroup, "conjugacy_digests", record)
        census(16, 48)
        assert len(kept) == 310
        for HL in kept:
            assert HL._conjugation_orbit() == _reference_orbit(HL)

    def test_census_nodes_get_the_digests_of_their_conjugates_in_the_sylow(
            self, monkeypatch):
        kept = []
        digests = OpenSubgroup.conjugacy_digests

        def record(self):
            kept.append((self, digests(self)))
            return kept[-1][1]

        monkeypatch.setattr(OpenSubgroup, "conjugacy_digests", record)
        census(16, 48)
        assert len(kept) == 310
        in_gamma2 = 0
        for HL, got in kept:
            assert _in_sylow(HL.elements.astype(">u4").tobytes())
            orbit = _reference_orbit(HL)
            want = _digests(HL, [kb for kb in orbit if _in_sylow(kb)])
            assert got == want
            if _in_gamma2(HL.elements):
                # Gamma(2) is normal: the whole G-orbit lies in the Sylow
                in_gamma2 += 1
                assert got == _digests(HL, orbit)
            else:
                # a third of the G-orbit: the Sylow has index 3 and
                # contains the normaliser
                assert 3 * len(got) == len(orbit)
        assert 0 < in_gamma2 < len(kept)

    def test_a_group_outside_the_sylow_gets_its_whole_orbit(self):
        H = closure([(0, 1, 1, 0)], 8)
        orbit = _reference_orbit(H)
        assert 0 < sum(map(_in_sylow, orbit)) < len(orbit)
        assert H.conjugacy_digests() == _digests(H, orbit)

    @pytest.mark.parametrize("m", [4, 8, 16, 32, 64])
    def test_sylow_conjugators_generate_the_sylow(self, m):
        gens = subgroups.sylow_conjugators(m) + [kernels.neg(kernels.IDENTITY, m)]
        S = kernels.closure(gens, m)
        assert len(S) == gl2_order(m) // 3
        assert _in_sylow(S.astype(">u4").tobytes())

    def test_sylow_conjugators_generate_the_sylow_mod_128(self):
        # A closure mod 128 holds 2^25 elements.  Instead: the conjugators
        # mod 128 reduce to those mod 64, which with -I generate the Sylow
        # there (above), and words in them give the generators I + 64 E_ij
        # of the kernel of reduction mod 64, so with -I they generate
        # 16 |GL_2(Z/64)| / 3 = |GL_2(Z/128)| / 3 elements mod 128.
        m = 128
        t, lower, d3, _ = subgroups.sylow_conjugators(m)

        def power(x, n):
            out = kernels.IDENTITY
            for _ in range(n):
                out = kernels.mul(out, x, m)
            return out

        t8, l4 = power(t, 8), power(lower, 4)
        scalar = kernels.mul(kernels.mul(t8, l4, m),
                             kernels.mul(kernels.inv(t8, m), kernels.inv(l4, m), m), m)
        words = [power(d3, 16), power(t, 64), power(lower, 32),
                 kernels.mul(power(d3, 16), scalar, m)]
        assert [kernels.unpack(w) for w in words] == [
            (65, 0, 0, 1), (1, 64, 0, 1), (1, 0, 64, 1), (1, 0, 0, 65)]
        assert 16 * gl2_order(64) == gl2_order(m)

    def test_budget_boundary(self, monkeypatch):
        # a fresh group for each walk: the orbit is kept on the instance
        gens = [D31]
        size = len(_reference_orbit(closure(gens, 16)))
        assert size == 96
        monkeypatch.setattr(subgroups, "ORBIT_BUDGET", size)
        assert len(closure(gens, 16)._conjugation_orbit()) == size
        monkeypatch.setattr(subgroups, "ORBIT_BUDGET", size - 1)
        with pytest.raises(kernels.BudgetExceeded):
            closure(gens, 16)._conjugation_orbit()

    @pytest.mark.parametrize("factor", [1, 2, 8])
    def test_cut_batches_give_the_same_orbit(self, monkeypatch, factor):
        # batches of |H| conjugates take one member and one generator per
        # call, 2|H| two generators, 8|H| two members and all four
        H = closure([D31, SHEAR], 16)
        monkeypatch.setattr(subgroups, "_ORBIT_BATCH", factor * H.order())
        assert H._conjugation_orbit() == _reference_orbit(H)

    def test_walked_once_per_group(self, monkeypatch):
        calls = []
        conjugate_set = kernels.conjugate_set

        def count(*args):
            calls.append(None)
            return conjugate_set(*args)

        monkeypatch.setattr(kernels, "conjugate_set", count)
        H = closure([D31, D51], 16)
        H.conjugacy_digests()
        walked = len(calls)
        assert walked > 0
        H.canonical_key()
        H.conjugacy_digests()
        assert len(calls) == walked


class TestSerialization:
    def test_json_roundtrip(self):
        H = sylow8()
        d = H.to_json_dict()
        assert d["prime"] == 2 and d["modulus"] == 8
        back = OpenSubgroup.from_json_dict(d)
        assert np.array_equal(back.elements, H.elements)

    def test_generators_recorded_verbatim(self):
        H = closure([D31, D51], 8)
        d = H.to_json_dict()
        assert [3, 0, 0, 1] in d["generators"]
