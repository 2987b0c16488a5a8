"""Exact 2x2 matrix arithmetic over Z/p^k and symplectic similitude checks.

ResidueMatrix is the basic atom used by the subgroup machinery: an immutable
2x2 matrix with entries reduced mod a prime power.  For moduli up to 256 a
matrix packs into a single integer (see kernels), which is how bulk element
sets are stored; this class is the friendly scalar view.

SymplecticMatrix covers the general-symplectic-group side: (2g)x(2g) matrices
over a prime field together with the similitude multiplier map and the
centralizer test used in the odd-characteristic contradiction argument.
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
    """|GL_2(Z/m)| for a prime power m = p^k."""
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

    def __neg__(self) -> "ResidueMatrix":
        return ResidueMatrix(self.modulus, -self.a, -self.b, -self.c, -self.d)

    def __repr__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]] mod {self.modulus}"


# ---------------------------------------------------------------------------
# symplectic similitude matrices
# ---------------------------------------------------------------------------

Rows = tuple[tuple[int, ...], ...]


def _mat_mul_rows(x: Rows, y: Rows, p: int) -> Rows:
    n = len(x)
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def _mat_transpose(x: Rows) -> Rows:
    n = len(x)
    return tuple(tuple(x[j][i] for j in range(n)) for i in range(n))


def _omega(g: int, p: int) -> Rows:
    """The fixed symplectic form [[0, -I_g], [I_g, 0]]."""
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(g):
        rows[i][g + i] = (-1) % p
        rows[g + i][i] = 1
    return tuple(tuple(r) for r in rows)


@dataclass(frozen=True)
class SymplecticMatrix:
    """A (2g)x(2g) matrix over Z/pZ, tested against the fixed form Omega."""

    p: int
    g: int
    rows: Rows

    def __post_init__(self):
        n = 2 * self.g
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError(f"expected a {n}x{n} matrix")
        object.__setattr__(
            self, "rows", tuple(tuple(e % self.p for e in r) for r in self.rows)
        )

    def mul(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        if (self.p, self.g) != (other.p, other.g):
            raise ValueError("shape/field mismatch")
        return SymplecticMatrix(self.p, self.g, _mat_mul_rows(self.rows, other.rows, self.p))


def gsp_mult(x: SymplecticMatrix) -> int | None:
    """Similitude multiplier of x, or None when x is not in GSp_2g.

    x belongs to GSp iff x^T Omega x = lambda * Omega for a unit lambda; the
    returned value is that lambda.
    """
    p, g = x.p, x.g
    om = _omega(g, p)
    lhs = _mat_mul_rows(_mat_mul_rows(_mat_transpose(x.rows), om, p), x.rows, p)
    lam = lhs[g][0]  # Omega has a 1 at position (g, 0)
    if lam % p == 0:
        return None
    for i in range(2 * g):
        for j in range(2 * g):
            if lhs[i][j] != (lam * om[i][j]) % p:
                return None
    return lam


def _basis_test_matrices(g: int, p: int) -> list[Rows]:
    """Test matrices whose span equals the span of all displayed shapes.

    The first shape is [[A, 0], [0, -A^T]] with A running over GL_g; since
    commutation with a matrix is linear in that matrix and GL_g spans all of
    M_g, running A over the g^2 matrix units E_ij tests the identical
    condition.  The two unipotent block shapes are included as-is.
    """
    n = 2 * g
    out: list[Rows] = []
    for i in range(g):
        for j in range(g):
            rows = [[0] * n for _ in range(n)]
            rows[i][j] = 1
            rows[g + j][g + i] = (-1) % p  # -(E_ij)^T
            out.append(tuple(tuple(r) for r in rows))
    for lower in (False, True):
        rows = [[0] * n for _ in range(n)]
        for i in range(g):
            rows[i][i] = 1
            rows[g + i][g + i] = (-1) % p
            if lower:
                rows[g + i][i] = 1
            else:
                rows[i][g + i] = 1
        out.append(tuple(tuple(r) for r in rows))
    return out


def gsp_centralizer_is_scalar(x: SymplecticMatrix) -> bool:
    """True iff x commutes with every test matrix of the three block shapes.

    pre: x in GSp_2g (ValueError otherwise).  When this returns True, x is
    scalar: x = lambda*I with gsp_mult(x) = lambda^2.
    """
    lam = gsp_mult(x)
    if lam is None:
        raise ValueError("x is not a symplectic similitude")
    p = x.p
    for z in _basis_test_matrices(x.g, p):
        if _mat_mul_rows(x.rows, z, p) != _mat_mul_rows(z, x.rows, p):
            return False
    return True
