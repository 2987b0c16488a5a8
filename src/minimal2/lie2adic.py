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
so the truncation error stays above it.  The sum is sum c_n Y^n with the
cached scalars c_n = 2^(2n - v_2(d_n)) / d_n mod 2^(2P), and since
Y^2 = tY - delta I (t the trace, delta the determinant, by Cayley-Hamilton)
it collapses to alpha Y + beta I: two scalars mod 2^(2P), no matrix
product.  That is the same ring arithmetic mod 2^(2P) as summing the terms
one matrix power at a time, so every entry is the same.

The determinant check at the bottom of the file is the exhaustive sweep
over all 96^2 pairs of classes mod 4: for random lifts of each pair the
4x4 matrix built from log(A^12), log(B^12) and their brackets must have
determinant nonzero mod 2^50.  Its accepted lifts come back as numpy
columns (``LieCheckRecords``): eight lift digits, d mod 2^50 and the retry
count per class pair, about 0.2 MB for the whole sweep.
"""

from __future__ import annotations

import dataclasses
import operator
from collections.abc import Sequence
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


class RetryBudgetExhausted(RuntimeError):
    """Every lift a class pair was allowed gave d = 0 mod 2^D_RESIDUE_BITS.

    The pair is left unproven, which contradicts nothing: the claim is that
    some lift has d != 0, and a larger budget draws more lifts."""


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

    def shift_right(self, k: int) -> "PrecisionMatrix":
        """Exact division by 2^k; requires divisible entries, costs k bits."""
        if any(x & ((1 << k) - 1) for x in self.entries):
            raise ValueError(f"entries not divisible by 2^{k}")
        if self.effective_precision < k:
            raise PrecisionError("shift below zero tracked bits")
        return PrecisionMatrix(tuple(x >> k for x in self.entries),
                               self.effective_precision - k)

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


def _coefficients(denominators: tuple[int, ...]) -> tuple[int, ...]:
    """c_n = 2^(2n - v_2(d_n)) / d_n mod 2^(2P): the odd part of |d_n| is
    inverted mod 2^(2P), so c_n Y^n is term n of the series, 4^n Y^n / d_n."""
    out = []
    for n, d in enumerate(denominators, start=1):
        v = _v2(d)
        c = pow(abs(d) >> v, -1, _MASK + 1) << (2 * n - v)
        out.append((-c if d < 0 else c) & _MASK)
    return tuple(out)


_LOG_COEFFICIENTS = _coefficients(_LOG_DENOMINATORS)
_EXP_COEFFICIENTS = _coefficients(_EXP_DENOMINATORS)


def _series(X: PrecisionMatrix, start: PrecisionMatrix,
            coefficients: tuple[int, ...]) -> PrecisionMatrix:
    """start + sum over n of c_n Y^n, for X = 4Y = 0 mod 4.

    With Y^2 = tY - delta I, Horner's rule from the last coefficient keeps
    the partial sum c_k Y + ... + c_N Y^(N-k+1) as pY + q, and one step
    (pY + q + c) Y = (pt + q + c) Y - p delta I takes k down by one.  Term
    n carries the tracked precision e - 2 + 2n - v_2(d_n), e that of X; the
    least is e, at n = 1, whose bound 2 is the smallest of either series.
    """
    Y = X.shift_right(2)
    y0, y1, y2, y3 = Y.entries
    t = (y0 + y3) & _MASK
    delta = (y0 * y3 - y1 * y2) & _MASK
    p = q = 0
    for c in reversed(coefficients):
        p, q = (p * t + q + c) & _MASK, -p * delta & _MASK
    s0, s1, s2, s3 = start.entries
    return PrecisionMatrix(
        (s0 + p * y0 + q, s1 + p * y1, s2 + p * y2, s3 + p * y3 + q),
        min(Y.effective_precision + 2, start.effective_precision))


def mat_log(M: PrecisionMatrix) -> PrecisionMatrix:
    """log of M = I mod 4: the series in X = M - I with d_n = (-1)^(n+1) n.

    The least term bound, 2 at n = 1, keeps the input precision."""
    X = M - PrecisionMatrix.identity()
    if not X.is_zero_mod(2):
        raise ValueError("mat_log needs M = I mod 4")
    out = _series(X, PrecisionMatrix.zero(), _LOG_COEFFICIENTS)
    if not out.is_zero_mod(2):
        raise AssertionError("log landed outside 4 * gl_2(Z_2)")
    return out


def mat_exp(X: PrecisionMatrix) -> PrecisionMatrix:
    """exp of X = 0 mod 4: the series from I with d_n = n!."""
    if not X.is_zero_mod(2):
        raise ValueError("mat_exp needs X = 0 mod 4")
    out = _series(X, PrecisionMatrix.identity(), _EXP_COEFFICIENTS)
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


class LieCheckRecords(Sequence):
    """The accepted lifts of one sweep, one row per class pair, as columns.

    Row i is the pair (classes[i // k], classes[i % k]), k = len(classes);
    ``digits`` holds its eight lift digits (A's, then B's), ``d_residues``
    d mod 2^D_RESIDUE_BITS and ``retries`` the lifts refused before it.
    Each dtype is the least that holds the column's largest value, and rows
    are written from Python ints, so numpy refuses a value that does not fit
    instead of wrapping it.  Indexing builds the row's ``LieCheckRecord``.
    """

    def __init__(self, classes, max_retries: int):
        n = len(classes) ** 2
        self.classes = tuple(classes)
        self.digits = np.zeros((n, 8), dtype=np.uint8)
        self.d_residues = np.zeros(
            n, dtype=np.min_scalar_type((1 << D_RESIDUE_BITS) - 1))
        self.retries = np.zeros(n, dtype=np.min_scalar_type(max_retries - 1))

    def __len__(self) -> int:
        return len(self.d_residues)

    def __getitem__(self, i) -> LieCheckRecord:
        n = len(self)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError(f"record {i} out of range for {n} class pairs")
        i %= n
        k = len(self.classes)
        digits = tuple(self.digits[i].tolist())
        d = int(self.d_residues[i])
        return LieCheckRecord(i, self.classes[i // k], self.classes[i % k],
                              digits[:4], digits[4:], d, _v2(d),
                              int(self.retries[i]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieCheckRecords):
            return NotImplemented
        return self.classes == other.classes and all(
            np.array_equal(x, y) for x, y in
            ((self.digits, other.digits), (self.d_residues, other.d_residues),
             (self.retries, other.retries)))


def _lift(bar: tuple[int, int, int, int], digits) -> PrecisionMatrix:
    entries = tuple(b + 4 * int(t) for b, t in zip(bar, digits))
    return PrecisionMatrix.from_entries(entries)


def lie_check_all_classes(seed: int = 0, max_retries: int = 8,
                          progress: Optional[Callable[[str], None]] = None
                          ) -> LieCheckRecords:
    """For all 96^2 class pairs mod 4, find lifts with d != 0 mod 2^50.

    Lift digits are drawn uniformly from {1, 2, 3} by a per-class generator
    seeded with (seed, class index), so records are reproducible and order
    independent.  A class pair whose max_retries lifts all give d = 0 mod
    2^50 raises RetryBudgetExhausted: the sweep stops unproven, but a spent
    budget contradicts nothing, so the message says to raise it.
    """
    if max_retries < 1:
        raise ValueError("max_retries must be at least 1")
    classes = gl2_mod4_elements()
    records = LieCheckRecords(classes, max_retries)
    for ci, (abar, bbar) in enumerate(product(classes, classes)):
        rng = np.random.default_rng((seed, ci))
        for attempt in range(max_retries):
            digits = rng.integers(1, 4, size=8).tolist()
            d = d_determinant(_lift(abar, digits[:4]), _lift(bbar, digits[4:]))
            if d != 0:
                break
        else:
            raise RetryBudgetExhausted(
                f"class pair {ci} = ({abar}, {bbar}) gave d = 0 mod "
                f"2^{D_RESIDUE_BITS} on all {max_retries} lifts: the retry "
                "budget ran out before a lift with d != 0 was found; raise "
                "--max-retries")
        records.digits[ci] = digits
        records.d_residues[ci] = d
        records.retries[ci] = attempt
        if progress and (ci + 1) % 1000 == 0:
            progress(f"lie check: {ci + 1}/{len(records)} classes")
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
