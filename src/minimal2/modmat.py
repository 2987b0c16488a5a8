"""Integer factorisation, prime-power moduli and the order of GL_2(Z/p^k).

``_factorization`` is the one trial-division loop of the package.
Matrices themselves are packed integers, and every operation on them
lives in kernels.
"""

from __future__ import annotations

from functools import lru_cache


def _factorization(n: int) -> list[tuple[int, int]]:
    """The (prime, exponent) pairs of n >= 1, primes ascending, by trial
    division over 2 and then the odd numbers."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            out.append((q, e))
        q += 1 if q == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _prime_power(m: int) -> tuple[int, int]:
    """Return (p, k) with m = p^k, or raise ValueError."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    factors = _factorization(m)
    if len(factors) != 1:
        raise ValueError(f"modulus {m} is not a prime power")
    return factors[0]


@lru_cache(maxsize=None)
def gl2_order(m: int) -> int:
    """|GL_2(Z/m)| for a prime power m = p^k, and 1 for the zero ring Z/1."""
    if m == 1:
        return 1
    p, k = _prime_power(m)
    return p ** (4 * (k - 1)) * (p * p - 1) * (p * p - p)


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in _factorization(n))
