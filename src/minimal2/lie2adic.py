"""Truncated 2-adic matrix logarithm/exponential with precision tracking.

Entries live in Z_2 truncated to one working window of P = 64 guaranteed
bits.  Internally every residue is carried mod 2^(2P): the extra guard bits
absorb the right-shifts that exact division by n or n! performs, so series
arithmetic never eats into the tracked window; what the guard cannot excuse
is recorded in ``effective_precision``, a certified lower bound on the
number of correct low-order bits.

Both series run through one routine, ``_series``.  For X = 4Y = 0 mod 4 the
n-th term is 4^n Y^n / d_n, with d_n = (-1)^(n+1) n for the log and n! for
the exp, so its valuation is at least 2n - v_2(d_n) (for the exp this is
n + s_2(n), s_2 the binary digit sum, since v_2(n!) = n - s_2(n)).  Each
series is summed up to the last n where that bound is within the window,
so the truncation error stays above it.

The determinant check at the bottom of the file is the exhaustive sweep
over all 96^2 pairs of classes mod 4: for random lifts of each pair the
4x4 matrix built from log(A^12), log(B^12) and their brackets must have
determinant nonzero mod 2^50.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import product
from math import factorial
from typing import Callable, Optional

import numpy as np

from . import kernels
from .modmat import gl2_order
from .subgroups import ambient_generators

DEFAULT_PRECISION = 64
D_RESIDUE_BITS = 50

# residues are carried mod 2^(2P): P tracked bits plus P guard bits
_MASK = (1 << (2 * DEFAULT_PRECISION)) - 1


class PrecisionError(ArithmeticError):
    """Tracked precision fell below what the operation must guarantee."""


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1


@dataclass(frozen=True)
class PrecisionMatrix:
    """2x2 matrix over Z_2 with a certified correct-bit count.

    ``entries`` = (a, b, c, d) reduced mod 2^(2 * DEFAULT_PRECISION); the
    true 2-adic matrix is congruent to it mod 2^effective_precision.
    """

    entries: tuple[int, int, int, int]
    effective_precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if not 0 <= self.effective_precision <= DEFAULT_PRECISION:
            raise ValueError("effective_precision out of range")
        object.__setattr__(self, "entries",
                           tuple(int(e) & _MASK for e in self.entries))

    @classmethod
    def from_entries(cls, entries, effective: int = DEFAULT_PRECISION
                     ) -> "PrecisionMatrix":
        return cls(tuple(entries), effective)

    @classmethod
    def identity(cls) -> "PrecisionMatrix":
        return cls((1, 0, 0, 1))

    @classmethod
    def zero(cls) -> "PrecisionMatrix":
        return cls((0, 0, 0, 0))

    def _join(self, other: "PrecisionMatrix") -> int:
        return min(self.effective_precision, other.effective_precision)

    def __add__(self, other: "PrecisionMatrix") -> "PrecisionMatrix":
        return PrecisionMatrix(
            tuple(x + y for x, y in zip(self.entries, other.entries)),
            self._join(other))

    def __sub__(self, other: "PrecisionMatrix") -> "PrecisionMatrix":
        return PrecisionMatrix(
            tuple(x - y for x, y in zip(self.entries, other.entries)),
            self._join(other))

    def __matmul__(self, other: "PrecisionMatrix") -> "PrecisionMatrix":
        a, b, c, d = self.entries
        w, x, y, z = other.entries
        return PrecisionMatrix(
            (a * w + b * y, a * x + b * z, c * w + d * y, c * x + d * z),
            self._join(other))

    def __pow__(self, n: int) -> "PrecisionMatrix":
        if n < 0:
            raise ValueError("negative powers are not needed here")
        acc = PrecisionMatrix.identity()
        base = self
        while n:
            if n & 1:
                acc = acc @ base
            base = base @ base
            n >>= 1
        return acc

    def shift_left(self, k: int) -> "PrecisionMatrix":
        """Multiply by 2^k: every correct bit moves up, gaining k."""
        return PrecisionMatrix(tuple(x << k for x in self.entries),
                               min(self.effective_precision + k,
                                   DEFAULT_PRECISION))

    def shift_right(self, k: int) -> "PrecisionMatrix":
        """Exact division by 2^k; requires divisible entries, costs k bits."""
        if any(x & ((1 << k) - 1) for x in self.entries):
            raise ValueError(f"entries not divisible by 2^{k}")
        if self.effective_precision < k:
            raise PrecisionError("shift below zero tracked bits")
        return PrecisionMatrix(tuple(x >> k for x in self.entries),
                               self.effective_precision - k)

    def div_exact(self, n: int) -> "PrecisionMatrix":
        """Exact 2-adic division: odd part by modular inverse, 2-part by shift."""
        v = _v2(n)
        inv = pow(n >> v, -1, _MASK + 1)
        scaled = PrecisionMatrix(tuple(x * inv for x in self.entries),
                                 self.effective_precision)
        return scaled.shift_right(v) if v else scaled

    def congruent_to(self, other: "PrecisionMatrix", bits: int) -> bool:
        m = 1 << bits
        return all((x - y) % m == 0
                   for x, y in zip(self.entries, other.entries))

    def is_zero_mod(self, bits: int) -> bool:
        m = 1 << bits
        return all(x % m == 0 for x in self.entries)


def _denominators(d: Callable[[int], int]) -> tuple[int, ...]:
    """d_1, ..., d_N, where N is the last n whose term bound 2n - v_2(d_n)
    is within the window.  The bound is not monotone, so this asserts that
    no earlier term lies beyond the window either: the series then sums
    every term it computes."""
    bounds = [2 * n - _v2(d(n)) for n in range(1, 2 * DEFAULT_PRECISION + 1)]
    last = max(n for n, b in enumerate(bounds, start=1) if b <= DEFAULT_PRECISION)
    if max(bounds[:last]) > DEFAULT_PRECISION:
        raise AssertionError("a series term inside the run lies beyond the window")
    return tuple(d(n) for n in range(1, last + 1))


_LOG_DENOMINATORS = _denominators(lambda n: n if n % 2 else -n)
_EXP_DENOMINATORS = _denominators(factorial)


def _series(X: PrecisionMatrix, start: PrecisionMatrix,
            denominators: tuple[int, ...]) -> PrecisionMatrix:
    """start + sum over n of X^n / d_n, for X = 4Y = 0 mod 4.

    Term n is 4^n Y^n / d_n: Y^n is divided by the odd part of |d_n| and
    then scaled once by 2^(2n - v_2(d_n)) > 0, so no step dips below the
    guard bits.  Its tracked precision is e - 2 + 2n - v_2(d_n), e that of
    X; the sum keeps the least of them through ``_join``.
    """
    Y = X.shift_right(2)
    acc = start
    ypow = PrecisionMatrix.identity()
    for n, d in enumerate(denominators, start=1):
        ypow = ypow @ Y
        v = _v2(d)
        term = ypow.div_exact(abs(d) >> v).shift_left(2 * n - v)
        acc = acc - term if d < 0 else acc + term
    return acc


def mat_log(M: PrecisionMatrix) -> PrecisionMatrix:
    """log of M = I mod 4: the series in X = M - I with d_n = (-1)^(n+1) n.

    The least term bound, 2 at n = 1, keeps the input precision."""
    X = M - PrecisionMatrix.identity()
    if not X.is_zero_mod(2):
        raise ValueError("mat_log needs M = I mod 4")
    out = _series(X, PrecisionMatrix.zero(), _LOG_DENOMINATORS)
    if not out.is_zero_mod(2):
        raise AssertionError("log landed outside 4 * gl_2(Z_2)")
    return out


def mat_exp(X: PrecisionMatrix) -> PrecisionMatrix:
    """exp of X = 0 mod 4: the series from I with d_n = n!."""
    if not X.is_zero_mod(2):
        raise ValueError("mat_exp needs X = 0 mod 4")
    out = _series(X, PrecisionMatrix.identity(), _EXP_DENOMINATORS)
    if not (out - PrecisionMatrix.identity()).is_zero_mod(2):
        raise AssertionError("exp landed outside I + 4 * gl_2(Z_2)")
    return out


def lie_bracket(X: PrecisionMatrix, Y: PrecisionMatrix) -> PrecisionMatrix:
    """[X, Y] = XY - YX."""
    return X @ Y - Y @ X


def _det4(cols: list[tuple[int, int, int, int]], mask: int) -> int:
    """Determinant of the 4x4 matrix with the given columns, mod mask+1."""
    rows = [[cols[j][i] for j in range(4)] for i in range(4)]
    total = 0
    for j in range(4):
        minor_rows = [r[:j] + r[j + 1:] for r in rows[1:]]
        (a, b, c), (d, e, f), (g, h, i) = minor_rows
        minor = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        total += (-1 if j % 2 else 1) * rows[0][j] * minor
    return total & mask


def d_determinant(A: PrecisionMatrix, B: PrecisionMatrix) -> int:
    """det of the 4x4 matrix [log A^12 | log B^12 | bracket | double bracket].

    A and B must be invertible mod 2.  Their 12th powers are = I mod 4
    (12 is the exponent of GL_2(Z/4)), so the logs are defined; the result
    is the determinant reduced mod 2^D_RESIDUE_BITS, certified correct at
    that width.
    """
    for M in (A, B):
        a, b, c, d = M.entries
        if (a * d - b * c) % 2 == 0:
            raise ValueError("matrix is not invertible mod 2")
    la = mat_log(A ** 12)
    lb = mat_log(B ** 12)
    br = lie_bracket(la, lb)
    br2 = lie_bracket(br, la)
    cols = [la, lb, br, br2]
    e = min(c.effective_precision for c in cols)
    if e < D_RESIDUE_BITS:
        raise PrecisionError(
            f"only {e} certified bits; raise the working precision")
    return _det4([c.entries for c in cols], (1 << D_RESIDUE_BITS) - 1)


@dataclass(frozen=True)
class LieCheckRecord:
    """Accepted lift for one pair of classes mod 4."""

    class_index: int
    a_bar: tuple[int, int, int, int]
    b_bar: tuple[int, int, int, int]
    a_digits: tuple[int, int, int, int]
    b_digits: tuple[int, int, int, int]
    d_residue: int
    d_valuation: int
    retries: int

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for k in ("a_bar", "b_bar", "a_digits", "b_digits"):
            d[k] = list(d[k])
        return d


def gl2_mod4_elements() -> list[tuple[int, int, int, int]]:
    """The 96 elements of GL_2(Z/4), sorted by packed value."""
    elems = kernels.closure(ambient_generators(2, 4), 4)
    if len(elems) != gl2_order(4):
        raise AssertionError("GL_2(Z/4) enumeration is wrong")
    return [kernels.unpack(int(x)) for x in elems]


def _lift(bar: tuple[int, int, int, int], digits) -> PrecisionMatrix:
    entries = tuple(b + 4 * int(t) for b, t in zip(bar, digits))
    return PrecisionMatrix.from_entries(entries)


def lie_check_all_classes(seed: int = 0, max_retries: int = 8,
                          progress: Optional[Callable[[str], None]] = None
                          ) -> list[LieCheckRecord]:
    """For all 96^2 class pairs mod 4, find lifts with d != 0 mod 2^50.

    Lift digits are drawn uniformly from {1, 2, 3} by a per-class generator
    seeded with (seed, class index), so records are reproducible and order
    independent.  A class exhausting max_retries aborts loudly: it would
    contradict the expectation that d vanishes only on a measure-zero set.
    """
    classes = gl2_mod4_elements()
    records = []
    for ci, (abar, bbar) in enumerate(product(classes, classes)):
        rng = np.random.default_rng((seed, ci))
        rec = None
        for attempt in range(max_retries):
            a_digits = tuple(int(v) for v in rng.integers(1, 4, size=4))
            b_digits = tuple(int(v) for v in rng.integers(1, 4, size=4))
            d = d_determinant(_lift(abar, a_digits), _lift(bbar, b_digits))
            if d != 0:
                rec = LieCheckRecord(
                    class_index=ci,
                    a_bar=abar,
                    b_bar=bbar,
                    a_digits=a_digits,
                    b_digits=b_digits,
                    d_residue=d,
                    d_valuation=_v2(d),
                    retries=attempt,
                )
                break
        if rec is None:
            raise AssertionError(
                f"class pair {ci} = ({abar}, {bbar}) produced d = 0 mod "
                f"2^{D_RESIDUE_BITS} for {max_retries} lifts; this would "
                "contradict the determinant argument")
        records.append(rec)
        if progress and (ci + 1) % 1000 == 0:
            progress(f"lie check: {ci + 1}/{len(classes) ** 2} classes")
    return records


def log_exp_round_trip(seed: int = 0, count: int = 10_000) -> int:
    """exp(log(M)) = M mod 2^D_RESIDUE_BITS for random M = I mod 4.

    Returns the number of failures (0 on a correct implementation).
    Entries of (M - I)/4 are drawn uniformly mod 2^(P-2) so the sample
    covers the whole congruence class at working precision.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(count):
        off = rng.integers(0, 1 << (DEFAULT_PRECISION - 2), size=4,
                           dtype=np.int64)
        m = tuple(int(v) * 4 + (1 if i in (0, 3) else 0)
                  for i, v in enumerate(off))
        M = PrecisionMatrix.from_entries(m)
        back = mat_exp(mat_log(M))
        if back.effective_precision < D_RESIDUE_BITS:
            failures += 1
        elif not back.congruent_to(M, D_RESIDUE_BITS):
            failures += 1
    return failures
