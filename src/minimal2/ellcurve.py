"""Exact arithmetic for curves of the shape y^2 = x^3 + A*x^2 + B*x.

Twists, 2-isogenies, discriminants and j-invariants over the rationals
and over quadratic fields Q(sqrt(d)), plus two verification drivers: one
for the parametrized curve families stored in ``families.json`` and one
for the quadratic-field family whose discriminant is a power of 2.

Everything here is exact: rationals are ``fractions.Fraction``, quadratic
irrationalities carry their squarefree radicand, and residues mod a prime
are plain ints.  No floating point is used anywhere in this module.

The curve formulas (discriminant, c4, quadratic twist, 2-isogeny) are
module-level functions of (A, B), written once for any ring.
``WeierstrassCurve`` calls them on field elements; the family sweep calls
them on plain ints reduced mod p, so its lattice check builds no field or
curve object per specialization.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import json
import math
import random
from fractions import Fraction
from importlib import resources
from typing import Callable, Union

from .modmat import _factorization

__all__ = [
    "SingularCurveError",
    "FamilyIdentityError",
    "QuadFieldElem",
    "WeierstrassCurve",
    "FamilySpec",
    "quad_sqrt",
    "load_family_specs",
    "family_identity_check",
    "quadfamily_check",
]


class SingularCurveError(ArithmeticError):
    """Raised when an operation needs a nonsingular curve and got one with
    vanishing discriminant."""


class FamilyIdentityError(AssertionError):
    """Raised when a twist/isogeny identity fails at a nonsingular
    specialization of a curve family."""


def _squarefree_split(n: int) -> tuple[int, int]:
    """Write n = m*m * k with k squarefree, n > 0.  Returns (m, k)."""
    if n <= 0:
        raise ValueError("positive integer required")
    m, k = 1, 1
    for p, e in _factorization(n):
        m *= p ** (e // 2)
        k *= p ** (e % 2)
    return m, k


Rational = Union[int, Fraction]


class QuadFieldElem:
    """An element u + v*sqrt(d) of Q(sqrt(d)) with d squarefree, d != 0, 1.

    u and v are exact rationals.  Elements of different radicands do not
    mix; rationals coerce into any radicand.
    """

    __slots__ = ("d", "u", "v")

    def __init__(self, d: int, u: Rational, v: Rational = 0) -> None:
        d = int(d)
        if d in (0, 1):
            raise ValueError("radicand must not be 0 or 1")
        m, k = _squarefree_split(abs(d))
        if m != 1 or k != abs(d):
            raise ValueError("radicand must be squarefree")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "u", Fraction(u))
        object.__setattr__(self, "v", Fraction(v))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadFieldElem is immutable")

    def _coerce(self, other: object) -> "QuadFieldElem | None":
        if isinstance(other, QuadFieldElem):
            if other.d != self.d:
                raise ValueError("mixed radicands")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadFieldElem(self.d, other, 0)
        return None

    def __add__(self, other: object) -> "QuadFieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadFieldElem(self.d, self.u + o.u, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadFieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadFieldElem(self.d, self.u - o.u, self.v - o.v)

    def __rsub__(self, other: object) -> "QuadFieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "QuadFieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadFieldElem(
            self.d,
            self.u * o.u + self.d * self.v * o.v,
            self.u * o.v + self.v * o.u,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QuadFieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        inv = QuadFieldElem(self.d, o.u / n, -o.v / n)
        return self * inv

    def __rtruediv__(self, other: object) -> "QuadFieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self) -> "QuadFieldElem":
        return QuadFieldElem(self.d, -self.u, -self.v)

    def __pos__(self) -> "QuadFieldElem":
        return self

    def __pow__(self, exponent: int) -> "QuadFieldElem":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return 1 / (self ** (-exponent))
        out = QuadFieldElem(self.d, 1, 0)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.v == 0 and self.u == other
        if isinstance(other, QuadFieldElem):
            if other.d != self.d:
                return self.v == 0 == other.v and self.u == other.u
            return self.u == other.u and self.v == other.v
        return NotImplemented

    def __hash__(self) -> int:
        if self.v == 0:
            return hash(self.u)
        return hash((self.d, self.u, self.v))

    def __repr__(self) -> str:
        return f"QuadFieldElem(d={self.d}, u={self.u}, v={self.v})"

    def conjugate(self) -> "QuadFieldElem":
        return QuadFieldElem(self.d, self.u, -self.v)

    def norm(self) -> Fraction:
        """Field norm u^2 - d*v^2 down to Q."""
        return self.u * self.u - self.d * self.v * self.v

    @property
    def is_rational(self) -> bool:
        return self.v == 0

    def rational(self) -> Fraction:
        if self.v != 0:
            raise ValueError("element is irrational")
        return self.u


def quad_sqrt(r: Rational) -> "QuadFieldElem | Fraction":
    """Exact square root of a nonzero rational.

    Returns a Fraction when r is a perfect rational square, otherwise the
    element m*sqrt(k) of Q(sqrt(k)) with k the squarefree part of r.
    """
    r = Fraction(r)
    if r == 0:
        return Fraction(0)
    # sqrt(p/q) = sqrt(p*q)/q keeps everything integral.
    pq = abs(r.numerator * r.denominator)
    m, k = _squarefree_split(pq)
    if r < 0:
        k = -k
    if k == 1:
        return Fraction(m, r.denominator)
    return QuadFieldElem(k, 0, Fraction(m, r.denominator))


FieldElem = Union[Fraction, int, QuadFieldElem]


def _discriminant(A, B):
    """16 * B^2 * (A^2 - 4B); zero exactly for singular parameters."""
    return B * B * (A * A - 4 * B) * 16


def _c4(A, B):
    return (A * A - 3 * B) * 16


def _twist(A, B, D):
    """Quadratic twist by D != 0: (A, B) -> (D*A, D^2*B)."""
    if D == 0:
        raise ZeroDivisionError("twist by zero")
    return D * A, D * D * B


def _two_isogeny(A, B):
    """Codomain of the 2-isogeny with kernel {O, (0,0)}:
    (A, B) -> (-2A, A^2 - 4B).  Requires B != 0 so that (0,0) is a
    point of order 2."""
    if B == 0:
        raise SingularCurveError("(0,0) is not a smooth point when B = 0")
    return -2 * A, A * A - 4 * B


class WeierstrassCurve:
    """The curve y^2 = x^3 + A*x^2 + B*x over whatever field A, B live in.

    The shape is preserved by quadratic twists and by the 2-isogeny with
    kernel {O, (0,0)}, which is why A and B are the only data kept.
    Singular parameter values are representable; operations that need
    nonsingularity raise SingularCurveError.
    """

    __slots__ = ("A", "B")

    def __init__(self, A: FieldElem, B: FieldElem) -> None:
        # two bare ints would make c4^3 / delta a float; field-element
        # coefficients absorb a plain-int partner on their own
        if isinstance(A, int) and isinstance(B, int):
            A = Fraction(A)
            B = Fraction(B)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("WeierstrassCurve is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeierstrassCurve):
            return NotImplemented
        return self.A == other.A and self.B == other.B

    def __repr__(self) -> str:
        return f"WeierstrassCurve(A={self.A!r}, B={self.B!r})"

    def discriminant(self) -> FieldElem:
        return _discriminant(self.A, self.B)

    def c4(self) -> FieldElem:
        return _c4(self.A, self.B)

    def is_singular(self) -> bool:
        return self.discriminant() == 0

    def j_invariant(self) -> FieldElem:
        """c4^3 / discriminant."""
        delta = self.discriminant()
        if delta == 0:
            raise SingularCurveError("j-invariant of a singular curve")
        c = self.c4()
        return c * c * c / delta

    def twist(self, D: FieldElem) -> "WeierstrassCurve":
        return WeierstrassCurve(*_twist(self.A, self.B, D))

    def two_isogenous(self) -> "WeierstrassCurve":
        return WeierstrassCurve(*_two_isogeny(self.A, self.B))


def _sqrt_mod_prime(n: int, p: int) -> "int | None":
    """A square root of n modulo the odd prime p, or None if n is not a
    residue.  Tonelli-Shanks with the p % 4 == 3 shortcut."""
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Pow)

# Compiled polynomials see only the values they are given: no builtins.
_NO_BUILTINS = {"__builtins__": {}}


def _check_node(node: ast.expr, variables) -> None:
    """Raise ValueError unless the syntax tree is an integer polynomial in
    the given variables."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int):
            return
        raise ValueError("only integer constants are allowed")
    if isinstance(node, ast.Name):
        if node.id in variables:
            return
        raise ValueError(f"unknown variable {node.id!r}")
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, (ast.USub, ast.UAdd)):
            _check_node(node.operand, variables)
            return
        raise ValueError("unary operator not allowed")
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        _check_node(node.left, variables)
        if isinstance(node.op, ast.Pow):
            # Exponents must be literal nonnegative integers.
            exp = node.right
            if not (isinstance(exp, ast.Constant) and isinstance(exp.value, int)
                    and exp.value >= 0):
                raise ValueError("exponent must be a nonnegative integer literal")
            return
        _check_node(node.right, variables)
        return
    raise ValueError("expression form not allowed")


def _compile_poly(text: str, variables) -> Callable[[dict], object]:
    """Parse a polynomial once; the result evaluates it at a dict of values.

    Only integer literals, the given variables, +, -, * and ** with
    literal nonnegative integer exponents are accepted; anything else
    raises ValueError here, before any evaluation.  The checked tree is
    compiled to one code object, run with no builtins.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"not a polynomial: {text!r}") from exc
    _check_node(tree.body, frozenset(variables))
    return functools.partial(eval, compile(tree, "<polynomial>", "eval"),
                             _NO_BUILTINS)


class FamilySpec:
    """One row of the curve-family table: a label, a base variety and
    polynomial formulas for A and B in the base variables.

    The formulas are parsed and checked once, when the row is built, so a
    malformed row fails with ValueError at load."""

    __slots__ = ("label", "level", "index", "genus", "base", "A_expr", "B_expr",
                 "_A", "_B")

    def __init__(self, label: str, base: str, A_expr: str, B_expr: str) -> None:
        parts = label.split(".")
        if len(parts) != 4:
            raise ValueError("label must have four dot-separated components")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "level", int(parts[0]))
        object.__setattr__(self, "index", int(parts[1]))
        object.__setattr__(self, "genus", int(parts[2]))
        if base not in ("conic", "line"):
            raise ValueError("base must be 'conic' or 'line'")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "A_expr", A_expr)
        object.__setattr__(self, "B_expr", B_expr)
        object.__setattr__(self, "_A", _compile_poly(A_expr, self.variables))
        object.__setattr__(self, "_B", _compile_poly(B_expr, self.variables))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FamilySpec is immutable")

    @property
    def variables(self) -> tuple[str, ...]:
        return ("a", "b") if self.base == "conic" else ("t",)


def _canonical_families_blob(families: dict) -> bytes:
    return json.dumps(families, sort_keys=True, separators=(",", ":")).encode()


def load_family_specs() -> dict[str, FamilySpec]:
    """Load the packaged family table, verifying its checksum."""
    raw = resources.files(__package__).joinpath("families.json").read_text()
    data = json.loads(raw)
    digest = hashlib.sha256(_canonical_families_blob(data["families"])).hexdigest()
    if digest != data["sha256"]:
        raise ValueError("families.json checksum mismatch")
    return {
        label: FamilySpec(label, row["base"], row["A"], row["B"])
        for label, row in data["families"].items()
    }


def _odd_primes(count: int, start: int) -> list[int]:
    out: list[int] = []
    n = max(3, start) | 1
    while len(out) < count:
        if _factorization(n) == [(n, 1)]:
            out.append(n)
        n += 2
    return out


def _random_base_point(spec: FamilySpec, p: int, rng: random.Random) -> dict:
    """A random F_p point of the row's base, as residues in [0, p)."""
    if spec.base == "line":
        return {"t": rng.randrange(p)}
    while True:
        b = rng.randrange(p)
        a = _sqrt_mod_prime(-1 - b * b, p)
        if a is None:
            continue
        if rng.random() < 0.5:
            a = (p - a) % p
        return {"a": a, "b": b}


# Primes for specialization start here: large enough that the singular
# locus of every family (a divisor of bounded degree on the base) covers
# well under half of the residue points.
_SPECIALIZATION_PRIME_START = 401


def _curve_residues(spec: FamilySpec, point: dict, p: int) -> tuple[int, int, int]:
    """A, B and the discriminant mod p of the row at an integer point."""
    A = spec._A(point) % p
    B = spec._B(point) % p
    return A, B, _discriminant(A, B) % p


def _j_residue(A: int, B: int, delta: int, p: int) -> int:
    """c4^3 / delta mod p, given the discriminant delta mod p."""
    if delta == 0:
        raise SingularCurveError("j-invariant of a singular curve")
    c = _c4(A, B) % p
    return c * c * c * pow(delta, -1, p) % p


def _mod(pair: tuple, p: int) -> tuple[int, int]:
    return pair[0] % p, pair[1] % p


def _lattice_failures(A: int, B: int, delta: int, p: int,
                      rng: random.Random) -> list[str]:
    """All twist/isogeny identities that must hold at the nonsingular
    curve (A, B) over F_p with discriminant delta, all residues mod p.
    Returns a list of failure descriptions."""
    bad: list[str] = []
    j = _j_residue(A, B, delta, p)
    if _mod(_twist(A, B, 1), p) != (A, B):
        bad.append("twist by 1 is not the identity")
    Am, Bm = _mod(_twist(A, B, -1), p)
    if _mod(_twist(Am, Bm, -1), p) != (A, B):
        bad.append("twist by -1 is not an involution")
    twists = [-1, 2, -2] + [rng.randrange(1, p) for _ in range(3)]
    for D in twists:
        if D % p == 0:
            continue
        At, Bt = _mod(_twist(A, B, D), p)
        delta_t = _discriminant(At, Bt) % p
        if _j_residue(At, Bt, delta_t, p) != j:
            bad.append(f"j changed under twist by {D}")
        if delta_t != pow(D, 6, p) * delta % p:
            bad.append(f"discriminant not scaled by D^6 under twist by {D}")
    A2, B2 = _mod(_two_isogeny(A, B), p)
    if _discriminant(A2, B2) % p == 0:
        bad.append("2-isogenous curve is singular")
    else:
        A4, B4 = _mod(_two_isogeny(A2, B2), p)
        if (A4, B4) != (4 * A % p, 16 * B % p):
            bad.append("double 2-isogeny is not (4A, 16B)")
        if _j_residue(A4, B4, _discriminant(A4, B4) % p, p) != j:
            bad.append("j changed under double 2-isogeny")
    return bad


def family_identity_check(spec: FamilySpec, trials: int = 40,
                          primes: int = 25, seed: int = 0) -> dict:
    """Verify the twist/isogeny lattice for one family by specializing at
    random base points over many prime fields.

    The sweep runs on plain residues: the row's polynomials are evaluated
    at the integer coordinates of each point and reduced mod p, and the
    identities go through the same curve formulas as ``WeierstrassCurve``.

    Raises FamilyIdentityError on any identity failure at a nonsingular
    point.  Singular specializations are skipped but counted; they must
    stay below half of the sample, as befits a dense nonsingular locus.
    """
    prime_list = _odd_primes(primes, _SPECIALIZATION_PRIME_START)
    nonsingular = 0
    singular = 0
    failures: list[dict] = []
    for p in prime_list:
        rng = random.Random(seed * 1_000_003 + p)
        for _ in range(trials):
            point = _random_base_point(spec, p, rng)
            A, B, delta = _curve_residues(spec, point, p)
            if delta == 0:
                singular += 1
                continue
            nonsingular += 1
            bad = _lattice_failures(A, B, delta, p, rng)
            if bad:
                failures.append({"prime": p, "point": point, "failures": bad})
    report = {
        "label": spec.label,
        "base": spec.base,
        "primes": prime_list,
        "trials_per_prime": trials,
        "nonsingular": nonsingular,
        "singular": singular,
        "failures": failures,
        "pass": not failures and nonsingular > singular,
    }
    if failures:
        raise FamilyIdentityError(
            f"{spec.label}: {len(failures)} specialization(s) broke the "
            f"twist/isogeny identities: {failures[:3]}")
    return report


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


# The largest n that quadfamily_check takes: it factors 2^n + 1 by trial
# division, which stays under 0.1 s up to here and can take minutes above.
QUADFAMILY_N_MAX = 40


def quadfamily_check(n: int) -> dict:
    """Checks for the curve y^2 = x^3 + 2a*x^2 + (a^2+1)*x with
    a = sqrt(-(2^n + 1)).

    The report records the exact discriminant -2^(2n+6), how the field
    Q(a) sits among the quadratic fields ramified only at 2, whether
    a^2 + 1 = -2u^2 is solvable, the twist of the curve by a, and the
    expected (level, index, genus) of the 2-adic image where the
    classification pins one down.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > QUADFAMILY_N_MAX:
        raise ValueError(f"n above {QUADFAMILY_N_MAX} is out of scope")
    k2 = 2 ** n + 1
    a = quad_sqrt(-k2)
    assert isinstance(a, QuadFieldElem)
    E = WeierstrassCurve(2 * a, a * a + 1)

    delta = E.discriminant()
    assert isinstance(delta, QuadFieldElem)
    delta_q = delta.rational()
    expected_delta = -(Fraction(2) ** (2 * n + 6))
    if delta_q != expected_delta:
        raise AssertionError(f"discriminant {delta_q} != -2^{2 * n + 6}")

    # Field classification: 2^n + 1 odd, so never twice a square; a square
    # only for n = 3, which lands in Q(i).
    square = _is_square(k2)
    twice_square = k2 % 2 == 0 and _is_square(k2 // 2)

    # a^2 + 1 = -2^n equals -2u^2 exactly when 2^(n-1) is a square.
    solvable = (n - 1) % 2 == 0
    u = 2 ** ((n - 1) // 2) if solvable else None

    Et = E.twist(a)
    At, Bt = Et.A, Et.B
    assert isinstance(At, QuadFieldElem) and isinstance(Bt, QuadFieldElem)
    twist_A = At.rational()
    twist_B = Bt.rational()
    twist_j = WeierstrassCurve(twist_A, twist_B).j_invariant()

    if n == 3:
        expected_label = None
    elif n % 2 == 1:
        expected_label = (8, 24, 0)
    elif n in (2, 10):
        expected_label = (16, 384, 9)
    else:
        expected_label = None

    return {
        "n": n,
        "two_n_plus_one": k2,
        "radicand": a.d,
        "field_is_gaussian": a.d == -1,
        "discriminant": int(delta_q),
        "discriminant_exponent": 2 * n + 6,
        "discriminant_is_minus_power_of_two": True,
        "two_n_plus_one_is_square": square,
        "two_n_plus_one_is_twice_square": twice_square,
        "minus_two_u_squared_solvable": solvable,
        "u": u,
        "twist_by_a": {
            "A": int(twist_A),
            "B": int(twist_B),
            "j_numerator": twist_j.numerator,
            "j_denominator": twist_j.denominator,
        },
        "expected_label": expected_label,
    }
