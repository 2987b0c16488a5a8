"""2-adic matrix logarithm, exponential, and the determinant obstruction."""

import copy
import gc
import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from minimal2.lie2adic import (
    _EXP_DENOMINATORS,
    _LOG_DENOMINATORS,
    D_RESIDUE_BITS,
    DEFAULT_PRECISION,
    LieCheckRecords,
    PrecisionError,
    PrecisionMatrix,
    d_determinant,
    gl2_mod4_elements,
    lie_bracket,
    lie_check_all_classes,
    log_exp_round_trip,
    mat_exp,
    mat_log,
)

# sha256 pins: sweep records and round-trip outputs, entries and certified
# bit counts alike, stay byte-identical across rewrites of the series
RECORDS_DIGEST = \
    "49390839d233c09d0956ca0506add2577e8ec1024e41e1d335674f87ea5e6c40"
ROUND_TRIP_DIGEST = \
    "c109617c45a6911e98d99c27081dd4e02e46f8c402fd68410f3bec9d4c246bba"


def PM(a, b, c, d):
    return PrecisionMatrix.from_entries((a, b, c, d))


def reference_series(X, start, denominators):
    """The term-by-term sum that the Cayley-Hamilton ``_series`` replaced:
    Y^n one matrix product at a time, times the inverse of the odd part of
    |d_n| mod 2^(2P), then times 2^(2n - v_2(d_n)) with that many tracked
    bits gained, each term's precision joined into the sum by min."""
    mod = 1 << (2 * DEFAULT_PRECISION)
    Y = X.shift_right(2)
    acc = start
    ypow = PrecisionMatrix.identity()
    for n, d in enumerate(denominators, start=1):
        ypow = ypow @ Y
        v = (d & -d).bit_length() - 1
        inv = pow(abs(d) >> v, -1, mod)
        k = 2 * n - v
        term = PrecisionMatrix(
            tuple((x * inv) << k for x in ypow.entries),
            min(ypow.effective_precision + k, DEFAULT_PRECISION))
        acc = acc - term if d < 0 else acc + term
    return acc


def series_inputs(seed):
    """Y = (M - I)/4 for the log and X/4 for the exp: zero, scalar,
    nilpotent, trace zero, all entries equal (det 0), and random entries,
    some of them up to 2^126, beyond the window."""
    rng = random.Random(seed)
    a, b, c = (rng.getrandbits(62) for _ in range(3))
    return [(0, 0, 0, 0), (a, 0, 0, a), (0, b, 0, 0),
            (a * b, b * b, -a * a, -a * b), (a, b, c, -a), (c, c, c, c),
            (a, b, c, rng.getrandbits(62)),
            tuple(rng.getrandbits(126) for _ in range(4))]


class TestPrecisionMatrix:
    def test_identity_and_zero(self):
        I = PrecisionMatrix.identity()
        Z = PrecisionMatrix.zero()
        assert (I @ I).congruent_to(I, DEFAULT_PRECISION)
        assert (I + Z).congruent_to(I, DEFAULT_PRECISION)
        assert I.effective_precision == DEFAULT_PRECISION

    def test_effective_precision_bounds(self):
        with pytest.raises(ValueError):
            PrecisionMatrix.from_entries((1, 0, 0, 1), effective=DEFAULT_PRECISION + 1)

    def test_shift_tracks_precision(self):
        X = PM(4, 0, 0, 4)
        down = X.shift_right(2)
        assert down.congruent_to(PM(1, 0, 0, 1), DEFAULT_PRECISION - 2)
        assert down.effective_precision == DEFAULT_PRECISION - 2

    def test_shift_below_tracked_bits_raises(self):
        X = PrecisionMatrix.from_entries((32, 0, 0, 32), effective=4)
        with pytest.raises(PrecisionError):
            X.shift_right(5)
        with pytest.raises(ValueError):
            PrecisionMatrix.from_entries((8, 0, 0, 8)).shift_right(5)

    def test_congruence_window(self):
        X = PM(1, 0, 0, 1)
        Y = PM(1 + (1 << 40), 0, 0, 1)
        assert X.congruent_to(Y, 40)
        assert not X.congruent_to(Y, 41)


class TestLogExp:
    def test_log_of_identity_is_zero(self):
        L = mat_log(PrecisionMatrix.identity())
        assert L.is_zero_mod(D_RESIDUE_BITS)

    def test_exp_of_zero_is_identity(self):
        E = mat_exp(PrecisionMatrix.zero())
        assert E.congruent_to(PrecisionMatrix.identity(), D_RESIDUE_BITS)

    def test_log_diag5(self):
        L = mat_log(PM(5, 0, 0, 1))
        assert L.congruent_to(PM(60, 0, 0, 0), 6)
        assert L.effective_precision >= D_RESIDUE_BITS

    def test_exp_diag_minus4(self):
        E = mat_exp(PM(-4, 0, 0, 0))
        assert E.congruent_to(PM(5, 0, 0, 1), 5)

    def test_log_rejects_bad_congruence(self):
        with pytest.raises(ValueError):
            mat_log(PM(2, 0, 0, 1))
        with pytest.raises(ValueError):
            mat_log(PM(3, 0, 0, 3))

    def test_exp_rejects_bad_congruence(self):
        with pytest.raises(ValueError):
            mat_exp(PM(1, 0, 0, 1))

    def test_log_of_square_is_twice_log(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            vals = [int(v) * 4 for v in rng.integers(0, 1 << 50, size=4)]
            M = PM(1 + vals[0], vals[1], vals[2], 1 + vals[3])
            L = mat_log(M)
            L2 = mat_log(M @ M)
            assert L2.congruent_to(L + L, D_RESIDUE_BITS)

    def test_round_trips_both_ways(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            vals = [int(v) * 4 for v in rng.integers(0, 1 << 50, size=4)]
            M = PM(1 + vals[0], vals[1], vals[2], 1 + vals[3])
            assert mat_exp(mat_log(M)).congruent_to(M, D_RESIDUE_BITS)
            X = PM(vals[0], vals[1], vals[2], vals[3])
            assert mat_log(mat_exp(X)).congruent_to(X, D_RESIDUE_BITS)

    def test_scalar_case_matches_exact_rational_series(self):
        # for M = (1+4t)I the matrix log is the scalar series; compare the
        # tracked residue against an exact Fraction computation
        for t in list(range(1, 51)) + [12345, 1 << 20]:
            x = Fraction(4 * t)
            M = PM(1 + 4 * t, 0, 0, 1 + 4 * t)
            L = mat_log(M)
            # enough terms that every further term is 0 mod 2^54
            acc = Fraction(0)
            term = Fraction(1)
            for n in range(1, 80):
                term *= -x
                acc -= term / n
            num, den = acc.numerator, acc.denominator
            want = (num * pow(den, -1, 1 << 54)) % (1 << 54)
            got = L.entries[0] % (1 << D_RESIDUE_BITS)
            assert got == want % (1 << D_RESIDUE_BITS)
            assert L.entries[1] % (1 << D_RESIDUE_BITS) == 0

    def test_bulk_round_trip_small(self):
        assert log_exp_round_trip(seed=123, count=50) == 0

    def test_round_trip_bytes(self):
        # 200 trips drawn as in log_exp_round_trip(seed=0); the entries and
        # certified bit counts of log M and exp(log M) are pinned by sha256
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(200):
            off = rng.integers(0, 1 << (DEFAULT_PRECISION - 2), size=4,
                               dtype=np.int64)
            M = PrecisionMatrix.from_entries(
                int(v) * 4 + (1 if i in (0, 3) else 0)
                for i, v in enumerate(off))
            L = mat_log(M)
            B = mat_exp(L)
            rows.append([list(L.entries), L.effective_precision,
                         list(B.entries), B.effective_precision])
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == ROUND_TRIP_DIGEST


class TestSeriesAgainstReference:
    """Entries and certified bits of ``mat_log``/``mat_exp`` equal the
    term-by-term series at every input precision from 2 to 64; the two
    digests above pin only 64."""

    @pytest.mark.parametrize("e", [2, 3, 10, 40, 63, 64])
    def test_log_matches_reference(self, e):
        for seed in range(4):
            for y in series_inputs(seed):
                M = PrecisionMatrix.from_entries(
                    (1 + 4 * y[0], 4 * y[1], 4 * y[2], 1 + 4 * y[3]), e)
                want = reference_series(M - PrecisionMatrix.identity(),
                                        PrecisionMatrix.zero(),
                                        _LOG_DENOMINATORS)
                got = mat_log(M)
                assert got.entries == want.entries, y
                assert got.effective_precision == want.effective_precision == e

    @pytest.mark.parametrize("e", [2, 3, 10, 40, 63, 64])
    def test_exp_matches_reference(self, e):
        for seed in range(4):
            for y in series_inputs(seed):
                X = PrecisionMatrix.from_entries(tuple(4 * v for v in y), e)
                want = reference_series(X, PrecisionMatrix.identity(),
                                        _EXP_DENOMINATORS)
                got = mat_exp(X)
                assert got.entries == want.entries, y
                assert got.effective_precision == want.effective_precision == e

    @pytest.mark.parametrize("e", [0, 1])
    def test_fewer_than_two_bits_raise(self, e):
        with pytest.raises(PrecisionError):
            mat_log(PrecisionMatrix.from_entries((5, 4, 8, 1), e))
        with pytest.raises(PrecisionError):
            mat_exp(PrecisionMatrix.from_entries((4, 4, 8, 0), e))


class TestBracketAndObstruction:
    def test_bracket_antisymmetry_and_self(self):
        X = PM(4, 8, 12, 16)
        Y = PM(20, 4, 8, 12)
        Z = lie_bracket(X, X)
        assert Z.is_zero_mod(D_RESIDUE_BITS)
        XY = lie_bracket(X, Y)
        YX = lie_bracket(Y, X)
        assert (XY + YX).is_zero_mod(D_RESIDUE_BITS)

    def test_bracket_of_matrix_units(self):
        E12 = PM(0, 1, 0, 0)
        E21 = PM(0, 0, 1, 0)
        got = lie_bracket(E12, E21)
        assert got.congruent_to(PM(1, 0, 0, -1), DEFAULT_PRECISION)

    def test_bracket_bilinear(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a, b, c = (PM(*(int(v) for v in rng.integers(0, 1 << 30, size=4)))
                       for _ in range(3))
            lhs = lie_bracket(a + b, c)
            rhs = lie_bracket(a, c) + lie_bracket(b, c)
            assert lhs.congruent_to(rhs, DEFAULT_PRECISION)

    def test_d_vanishes_on_equal_arguments(self):
        A = PM(5, 4, 8, 13)
        assert d_determinant(A, A) == 0

    def test_d_vanishes_for_commuting_diagonals(self):
        A = PM(5, 0, 0, 13)
        B = PM(9, 0, 0, 1)
        assert d_determinant(A, B) == 0

    def test_d_requires_certified_bits(self):
        A = PrecisionMatrix.from_entries((5, 4, 8, 13), effective=40)
        B = PM(9, 4, 4, 1)
        with pytest.raises(PrecisionError):
            d_determinant(A, B)

    def test_d_nonzero_example(self):
        A = PM(5, 4, 0, 1)
        B = PM(5, 4, 4, 1)
        r = d_determinant(A, B)
        assert 0 < r < (1 << D_RESIDUE_BITS)
        assert (r & -r).bit_length() - 1 == 29


class TestClassSweep:
    def test_mod4_class_count(self):
        assert len(gl2_mod4_elements()) == 96

    def test_exponent_of_gl2_mod4(self):
        from math import lcm

        def order_mod4(x):
            # least n with x^n = I, by a plain product loop on entry tuples
            power, n = x, 1
            while power != (1, 0, 0, 1):
                a, b, c, d = power
                e, f, g, h = x
                power = ((a * e + b * g) % 4, (a * f + b * h) % 4,
                         (c * e + d * g) % 4, (c * f + d * h) % 4)
                n += 1
            return n

        e = lcm(*(order_mod4(m) for m in gl2_mod4_elements()))
        assert e == 12

    def test_full_sweep_results(self, lie_records):
        assert len(lie_records) == 96 * 96
        assert all(r.d_residue % 2 == 0 or r.d_residue for r in lie_records)
        assert all(r.d_residue != 0 for r in lie_records)
        assert all(0 <= r.retries <= 8 for r in lie_records)
        vals = [r.d_valuation for r in lie_records]
        assert min(vals) == 17
        assert max(vals) == 49

    def test_sweep_retry_histogram(self, lie_records):
        hist = {}
        for r in lie_records:
            hist[r.retries] = hist.get(r.retries, 0) + 1
        assert hist == {0: 9113, 1: 96, 2: 6, 3: 1}

    def test_sweep_is_deterministic(self, lie_records):
        from minimal2.lie2adic import lie_check_all_classes

        again = lie_check_all_classes(seed=0)
        assert again == lie_records

    def test_record_bytes(self, lie_records):
        text = json.dumps([r.to_json_dict() for r in lie_records],
                          sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == RECORDS_DIGEST

    def test_record_shape(self, lie_records):
        r = lie_records[0]
        assert len(r.a_digits) == 4 and len(r.b_digits) == 4
        assert r.d_valuation < D_RESIDUE_BITS
        assert (r.d_residue >> r.d_valuation) & 1 == 1


class TestRecordColumns:
    def test_length_and_indexing(self, lie_records):
        classes = gl2_mod4_elements()
        assert len(lie_records) == 9216
        for i in (0, 1, 95, 96, 5000, 9215):
            r = lie_records[i]
            assert r.class_index == i
            assert (r.a_bar, r.b_bar) == (classes[i // 96], classes[i % 96])
            assert lie_records[i - 9216] == r
        assert lie_records[-1].class_index == 9215
        for i in (9216, -9217, 10 ** 6):
            with pytest.raises(IndexError):
                lie_records[i]

    def test_iteration_matches_indexing(self, lie_records):
        rows = list(lie_records)
        assert len(rows) == 9216
        assert all(rows[i] == lie_records[i] for i in range(0, 9216, 97))
        assert rows[-1] == lie_records[-1]

    def test_equality(self, lie_records):
        other = copy.deepcopy(lie_records)
        assert other == lie_records
        other.d_residues[7] ^= 1 << 40
        assert other != lie_records
        assert lie_records != list(lie_records)

    @pytest.mark.parametrize("max_retries", [1, 2, 256, 257, 1 << 16, 1 << 40,
                                             1 << 70])
    def test_columns_hold_their_largest_values(self, max_retries):
        cols = LieCheckRecords(gl2_mod4_elements(), max_retries)
        top = (1 << D_RESIDUE_BITS) - 1
        cols.digits[-1] = [3] * 8
        cols.d_residues[-1] = top
        cols.retries[-1] = max_retries - 1
        r = cols[-1]
        assert r.a_digits == r.b_digits == (3, 3, 3, 3)
        assert (r.d_residue, r.d_valuation) == (top, 0)
        assert r.retries == max_retries - 1

    def test_out_of_range_values_are_refused(self):
        cols = LieCheckRecords(gl2_mod4_elements(), 256)
        with pytest.raises(OverflowError):
            cols.retries[0] = 256
        with pytest.raises(OverflowError):
            cols.digits[0] = [256] + [1] * 7
        with pytest.raises(OverflowError):
            cols.d_residues[0] = 1 << 64

    def test_one_sweep_retains_little_memory(self):
        # the list of 9216 dataclasses this replaced retained 3.4 MB; the
        # columns are 9216 * (8 + 8 + 1) bytes
        d_determinant(PM(5, 4, 0, 1), PM(5, 4, 4, 1))  # warm lazy imports
        np.random.default_rng((0, 0)).integers(1, 4, size=8)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            records = lie_check_all_classes(seed=0)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(records) == 9216
        assert retained < 500_000

    @pytest.mark.parametrize("max_retries", [0, -1])
    def test_max_retries_below_one_is_refused(self, max_retries):
        with pytest.raises(ValueError, match="max_retries"):
            lie_check_all_classes(seed=0, max_retries=max_retries)
