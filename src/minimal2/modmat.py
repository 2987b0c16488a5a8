"""Prime-power moduli and the order of GL_2(Z/p^k).

Matrices themselves are packed integers, and every operation on them lives
in kernels.
"""

from __future__ import annotations

from functools import lru_cache


def _prime_power(m: int) -> tuple[int, int]:
    """Return (p, k) with m = p^k, or raise ValueError."""
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


@lru_cache(maxsize=None)
def gl2_order(m: int) -> int:
    """|GL_2(Z/m)| for a prime power m = p^k, and 1 for the zero ring Z/1."""
    if m == 1:
        return 1
    p, k = _prime_power(m)
    return p ** (4 * (k - 1)) * (p * p - 1) * (p * p - p)


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
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
