"""Exact 2x2 matrix arithmetic over Z/p^k.

ResidueMatrix is the basic atom used by the subgroup machinery: an immutable
2x2 matrix with entries reduced mod a prime power.  For moduli up to 256 a
matrix packs into a single integer (see kernels), which is how bulk element
sets are stored; this class is the friendly scalar view.  Its ``order`` is
the single-matrix order routine; whole element arrays use
``kernels.order_array``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import kernels


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


@dataclass(frozen=True)
class ResidueMatrix:
    """A 2x2 matrix [[a, b], [c, d]] with entries reduced mod a prime power."""

    modulus: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        _prime_power(self.modulus)
        m = self.modulus
        object.__setattr__(self, "a", self.a % m)
        object.__setattr__(self, "b", self.b % m)
        object.__setattr__(self, "c", self.c % m)
        object.__setattr__(self, "d", self.d % m)

    @classmethod
    def identity(cls, m: int) -> "ResidueMatrix":
        return cls(m, 1, 0, 0, 1)

    @classmethod
    def from_packed(cls, x: int, m: int) -> "ResidueMatrix":
        a, b, c, d = kernels.unpack(x)
        if max(a, b, c, d) >= m:
            raise ValueError(f"packed value {x} has entries outside [0, {m})")
        return cls(m, a, b, c, d)

    def packed(self) -> int:
        if self.modulus > kernels.MAX_PACK_MODULUS:
            raise ValueError(f"modulus {self.modulus} too large to pack")
        return kernels.pack(self.a, self.b, self.c, self.d)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "ResidueMatrix") -> "ResidueMatrix":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        m = self.modulus
        return ResidueMatrix(
            m,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __pow__(self, n: int) -> "ResidueMatrix":
        if n < 0:
            return self.inverse() ** (-n)
        result = ResidueMatrix.identity(self.modulus)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.modulus

    def is_invertible(self) -> bool:
        p, _ = _prime_power(self.modulus)
        return self.det() % p != 0

    def inverse(self) -> "ResidueMatrix":
        m = self.modulus
        dt = self.det()
        try:
            di = pow(dt, -1, m)
        except ValueError:
            raise ValueError(f"{self} is not invertible mod {m}") from None
        return ResidueMatrix(m, self.d * di, -self.b * di, -self.c * di, self.a * di)

    def order(self) -> int:
        """Least n >= 1 with self^n = I, via repeated squaring.

        The candidate exponent starts at |GL_2(Z/m)| and is stripped prime by
        prime, so the cost is logarithmic in the group order.
        """
        if not self.is_invertible():
            raise ValueError("order is only defined for invertible matrices")
        ident = ResidueMatrix.identity(self.modulus)
        n = gl2_order(self.modulus)
        for q in _prime_factors(n):
            while n % q == 0 and self ** (n // q) == ident:
                n //= q
        return n

    def reduce(self, m2: int) -> "ResidueMatrix":
        """Reduction mod m2; m2 must divide the modulus (ring homomorphism)."""
        if self.modulus % m2 != 0:
            raise ValueError(f"{m2} does not divide modulus {self.modulus}")
        return ResidueMatrix(m2, self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]] mod {self.modulus}"
