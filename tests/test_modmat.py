"""2x2 matrix arithmetic mod p^k: the packed scalar kernels, the generator
checks of OpenSubgroup, the order of GL_2(Z/p^k), and the one trial-division
factoriser with the helpers read off it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimal2 import kernels
from minimal2.ellcurve import _odd_primes, _squarefree_split
from minimal2.modmat import _factorization, _prime_factors, _prime_power, gl2_order
from minimal2.subgroups import OpenSubgroup, ambient_generators

I = kernels.IDENTITY
P = kernels.pack


class TestResidueMatrixBasics:
    def test_identity_product(self):
        assert kernels.mul(I, I, 8) == I

    def test_hand_product_mod_2(self):
        swap = P(0, 1, 1, 0)
        shear = P(1, 1, 0, 1)
        assert kernels.unpack(kernels.mul(swap, shear, 2)) == (0, 1, 1, 1)

    def test_entries_are_reduced(self):
        H = OpenSubgroup(2, 8, [(9, -1, 16, 23)])
        assert [kernels.unpack(g) for g in H.generators] == [(1, 7, 0, 7)]
        # packed ints, numpy integers among them, are taken as they are
        H = OpenSubgroup(2, 8, [P(1, 7, 0, 7), np.int64(P(3, 0, 0, 1))])
        assert H.generators == (P(1, 7, 0, 7), P(3, 0, 0, 1))

    def test_modulus_must_be_prime_power(self):
        with pytest.raises(ValueError, match="not a prime power"):
            OpenSubgroup(2, 12, [(1, 0, 0, 1)])
        with pytest.raises(ValueError, match=">= 2"):
            OpenSubgroup(2, 1, [(1, 0, 0, 1)])
        with pytest.raises(ValueError, match="not a power of 3"):
            OpenSubgroup(3, 8, [(1, 0, 0, 1)])

    def test_modulus_must_pack(self):
        # entries of 256 and more would overlap the packed 8-bit fields
        with pytest.raises(ValueError, match="modulus 512 is above 256"):
            OpenSubgroup(2, 512, [(1, 256, 0, 1)])

    def test_det_values(self):
        assert kernels.det(I, 8) == 1
        assert kernels.det(P(3, 0, 0, 1), 8) == 3
        assert kernels.det(P(1, 2, 3, 4), 8) == 6

    def test_inverse(self):
        assert kernels.inv(I, 8) == I
        d31 = P(3, 0, 0, 1)
        assert kernels.inv(d31, 8) == d31
        shear = P(1, 1, 0, 1)
        assert kernels.inv(shear, 8) == P(1, 7, 0, 1)
        assert kernels.mul(shear, kernels.inv(shear, 8), 8) == I

    def test_inverse_requires_unit_det(self):
        with pytest.raises(ValueError):
            kernels.inv(P(2, 0, 0, 1), 8)
        with pytest.raises(ValueError, match="not invertible"):
            OpenSubgroup(2, 8, [(2, 0, 0, 1)])

    def test_order(self):
        xs = kernels.as_packed([I, P(3, 0, 0, 3), P(1, 1, 0, 1)])
        assert kernels.order_array(xs[:1], 8).tolist() == [1]
        assert kernels.order_array(xs[1:2], 4).tolist() == [2]
        assert kernels.order_array(xs[2:], 8).tolist() == [8]

    def test_reduce(self):
        xs = kernels.as_packed([P(5, 0, 0, 1), P(1, 4, 0, 1), P(3, 2, 1, 1)])
        assert kernels.reduce_array(xs[:1], 2).tolist() == [I]
        assert kernels.reduce_array(xs[1:2], 4).tolist() == [I]
        assert kernels.reduce_array(xs[2:], 4).tolist() == [P(3, 2, 1, 1)]
        H = OpenSubgroup(2, 16, [(3, 2, 1, 1), (5, 0, 0, 1)])
        assert H.reduce(4).generators == (P(3, 2, 1, 1), P(1, 0, 0, 1))

    def test_reduce_needs_divisor_modulus(self):
        with pytest.raises(ValueError):
            OpenSubgroup(2, 8, [(1, 0, 0, 1)]).reduce(3)

    def test_gl2_order(self):
        assert gl2_order(2) == 6
        assert gl2_order(4) == 96
        assert gl2_order(8) == 1536
        assert gl2_order(3) == 48
        assert gl2_order(9) == 48 * 81


class TestResidueMatrixProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 15), min_size=12, max_size=12))
    def test_mul_associative_mod_16(self, vals):
        x, y, z = (P(*vals[i:i + 4]) for i in (0, 4, 8))
        assert kernels.mul(kernels.mul(x, y, 16), z, 16) == \
            kernels.mul(x, kernels.mul(y, z, 16), 16)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 15), min_size=4, max_size=4))
    def test_inverse_is_two_sided_mod_16(self, vals):
        x = P(*vals)
        if kernels.det(x, 2) == 0:
            with pytest.raises(ValueError):
                kernels.inv(x, 16)
            return
        xi = kernels.inv(x, 16)
        assert kernels.mul(x, xi, 16) == I
        assert kernels.mul(xi, x, 16) == I

    def test_det_multiplicative_bulk(self):
        rng = np.random.default_rng(7)
        for m in (2, 4, 8, 16, 32):
            cols = [rng.integers(0, m, size=10_000) for _ in range(8)]
            xs = kernels.pack_array(*cols[:4])
            ys = kernels.pack_array(*cols[4:])
            prod = kernels.mul_arrays(xs, ys, m)
            lhs = kernels.det_array(prod, m)
            rhs = (kernels.det_array(xs, m) * kernels.det_array(ys, m)) % m
            assert (lhs == rhs).all()

    def test_order_divides_group_order(self):
        rng = np.random.default_rng(11)
        xs = kernels.pack_array(*rng.integers(0, 8, size=(4, 50)))
        xs = xs[kernels.det_array(xs, 8) % 2 == 1]
        assert len(xs) > 10
        assert (gl2_order(8) % kernels.order_array(xs, 8) == 0).all()


class TestReduceHomomorphism:
    def test_reduce_commutes_exhaustively_mod8_to_mod2(self):
        g8 = kernels.closure(ambient_generators(2, 8), 8)
        assert len(g8) == gl2_order(8)
        xs = np.repeat(g8, 64)
        ys = np.tile(g8[:64], len(g8))
        prod8 = kernels.mul_arrays(xs, ys, 8)
        lhs = kernels.reduce_array(prod8, 2)
        rhs = kernels.mul_arrays(kernels.reduce_array(xs, 2),
                                 kernels.reduce_array(ys, 2), 2)
        assert (lhs == rhs).all()
        assert (kernels.det_array(prod8, 8) % 2
                == kernels.det_array(lhs, 2)).all()

    def test_pack_unpack_roundtrip_over_gl2_mod8(self):
        g8 = kernels.closure(ambient_generators(2, 8), 8)
        repacked = kernels.pack_array(*kernels.unpack_array(g8))
        assert (repacked == g8).all()
        x = int(g8[137])
        assert kernels.pack(*kernels.unpack(x)) == x
        assert OpenSubgroup(2, 8, [kernels.unpack(x)]).generators == (x,)


# The four trial-division loops that the factoriser replaced, kept as
# references for the helpers now read off it.

def reference_prime_power(m):
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    p = 2
    while p * p <= m:
        if m % p == 0:
            break
        p += 1
    else:
        p = m
    k = 0
    mm = m
    while mm % p == 0:
        mm //= p
        k += 1
    if mm != 1:
        raise ValueError(f"modulus {m} is not a prime power")
    return p, k


def reference_prime_factors(n):
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def reference_squarefree_split(n):
    if n <= 0:
        raise ValueError("positive integer required")
    m, k = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            m *= d ** (e // 2)
            if e % 2:
                k *= d
        d += 1 if d == 2 else 2
    return m, k * n


def reference_odd_primes(count, start):
    out = []
    n = max(3, start) | 1
    while len(out) < count:
        is_prime = n > 1
        d = 3
        while d * d <= n:
            if n % d == 0:
                is_prime = False
                break
            d += 2
        if is_prime:
            out.append(n)
        n += 2
    return out


FACTORED = list(range(1, 5001)) + [2 ** n + 1 for n in range(1, 31)]


class TestFactorization:
    def test_pairs_multiply_back_and_primes_ascend(self):
        for n in FACTORED:
            pairs = _factorization(n)
            product = 1
            for p, e in pairs:
                assert e >= 1
                assert p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))
                product *= p ** e
            assert product == n
            primes = [p for p, _ in pairs]
            assert primes == sorted(set(primes))

    def test_helpers_match_the_loops_they_replaced(self):
        for n in FACTORED:
            assert _prime_factors(n) == reference_prime_factors(n)
            assert _squarefree_split(n) == reference_squarefree_split(n)
            if n >= 2:
                try:
                    want = reference_prime_power(n)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc)):
                        _prime_power(n)
                else:
                    assert _prime_power(n) == want
        for count, start in [(25, 401), (100, 0), (40, 2), (30, 9973), (5, 1 << 20)]:
            assert _odd_primes(count, start) == reference_odd_primes(count, start)

    def test_error_messages(self):
        for m in (1, 0, -8):
            with pytest.raises(ValueError, match=f"modulus must be >= 2, got {m}"):
                _prime_power(m)
        with pytest.raises(ValueError, match="modulus 12 is not a prime power"):
            _prime_power(12)
        for n in (0, -4):
            with pytest.raises(ValueError, match="positive integer required"):
                _squarefree_split(n)
