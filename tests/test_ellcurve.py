"""Exact curve arithmetic, quadratic fields, and the family table."""

import ast
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimal2 import ellcurve
from minimal2.ellcurve import (
    QUADFAMILY_N_MAX,
    FamilyIdentityError,
    FamilySpec,
    QuadFieldElem,
    SingularCurveError,
    WeierstrassCurve,
    _compile_poly,
    _curve_residues,
    _discriminant,
    _j_residue,
    _random_base_point,
    _sqrt_mod_prime,
    _twist,
    family_identity_check,
    load_family_specs,
    quad_sqrt,
    quadfamily_check,
)

small_rats = st.fractions(
    min_value=-50, max_value=50, max_denominator=12)


class TestQuadField:
    def test_radicand_must_be_squarefree_non_unit(self):
        for bad in (0, 1, 4, 12, -4):
            with pytest.raises(ValueError):
                QuadFieldElem(bad, 1, 1)
        QuadFieldElem(-1, 1, 1)
        QuadFieldElem(2, 1, 1)
        QuadFieldElem(-6, 1, 1)

    def test_basic_arithmetic_in_gaussian_field(self):
        i = QuadFieldElem(-1, 0, 1)
        assert i * i == -1
        assert (1 + i) * (1 - i) == 2
        assert (1 + i) ** 2 == 2 * i
        assert 1 / i == -i
        assert i ** -2 == -1

    def test_norm_and_conjugate(self):
        x = QuadFieldElem(5, 2, 3)
        assert x.norm() == 4 - 5 * 9
        assert x * x.conjugate() == x.norm()
        assert x + x.conjugate() == 4

    def test_rational_detection(self):
        x = QuadFieldElem(2, 3, 0)
        assert x.is_rational
        assert x.rational() == 3
        y = QuadFieldElem(2, 3, 1)
        assert not y.is_rational
        with pytest.raises(ValueError):
            y.rational()

    def test_mixed_radicands_rejected(self):
        with pytest.raises(ValueError):
            QuadFieldElem(2, 0, 1) + QuadFieldElem(3, 0, 1)

    def test_division(self):
        a = QuadFieldElem(2, 1, 1)
        assert a / a == 1
        assert (a * 6) / 3 == a * 2
        with pytest.raises(ZeroDivisionError):
            a / (a - a)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-30, 30), st.integers(-30, 30),
           st.sampled_from([-1, 2, -2, 3, 5, -7]))
    def test_conjugate_product_is_norm(self, u, v, d):
        x = QuadFieldElem(d, u, v)
        prod = x * x.conjugate()
        assert prod == u * u - d * v * v

    @settings(max_examples=40, deadline=None)
    @given(small_rats, small_rats, small_rats, small_rats,
           st.sampled_from([-1, 2, -5]))
    def test_field_axioms_sample(self, u1, v1, u2, v2, d):
        x = QuadFieldElem(d, u1, v1)
        y = QuadFieldElem(d, u2, v2)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + 1) == x * y + x
        if y != 0:
            assert (x / y) * y == x


class TestQuadSqrt:
    def test_perfect_squares_stay_rational(self):
        assert quad_sqrt(Fraction(9)) == 3
        assert quad_sqrt(Fraction(1, 4)) == Fraction(1, 2)
        assert quad_sqrt(Fraction(0)) == 0
        assert isinstance(quad_sqrt(Fraction(9)), Fraction)

    def test_irrational_cases(self):
        r = quad_sqrt(Fraction(8))
        assert r == QuadFieldElem(2, 0, 2)
        assert r * r == 8
        s = quad_sqrt(Fraction(-9))
        assert s == QuadFieldElem(-1, 0, 3)
        assert s * s == -9
        t = quad_sqrt(Fraction(3, 2))
        assert t * t == Fraction(3, 2)


class TestWeierstrassCurve:
    def test_reference_curve(self):
        E = WeierstrassCurve(Fraction(0), Fraction(1))
        assert E.discriminant() == -64
        assert E.c4() == -48
        assert E.j_invariant() == 1728

    def test_plain_int_coefficients_stay_exact(self):
        # int/int division would silently produce a float j-invariant
        j = WeierstrassCurve(0, 1).j_invariant()
        assert isinstance(j, Fraction) and j == 1728
        big = WeierstrassCurve(10**30 + 1, 7).j_invariant()
        assert isinstance(big, Fraction)

    def test_singularity(self):
        assert WeierstrassCurve(Fraction(1), Fraction(0)).is_singular()
        assert WeierstrassCurve(Fraction(2), Fraction(1)).is_singular()
        with pytest.raises(SingularCurveError):
            WeierstrassCurve(Fraction(2), Fraction(1)).j_invariant()

    def test_twist_examples(self):
        E = WeierstrassCurve(Fraction(0), Fraction(1))
        Et = E.twist(Fraction(-1))
        assert (Et.A, Et.B) == (0, 1)
        E2 = WeierstrassCurve(Fraction(1), Fraction(2)).twist(Fraction(3))
        assert (E2.A, E2.B) == (3, 18)
        with pytest.raises(ZeroDivisionError):
            E.twist(Fraction(0))

    def test_isogeny_chain(self):
        E = WeierstrassCurve(Fraction(0), Fraction(1))
        E1 = E.two_isogenous()
        assert (E1.A, E1.B) == (0, -4)
        E2 = E1.two_isogenous()
        assert (E2.A, E2.B) == (0, 16)
        assert E2.j_invariant() == E.j_invariant()

    def test_isogeny_needs_nonzero_B(self):
        with pytest.raises(SingularCurveError):
            WeierstrassCurve(Fraction(1), Fraction(0)).two_isogenous()

    @settings(max_examples=50, deadline=None)
    @given(small_rats, small_rats, st.sampled_from(
        [Fraction(-1), Fraction(2), Fraction(-2), Fraction(3), Fraction(5, 7)]))
    def test_twist_laws(self, A, B, D):
        E = WeierstrassCurve(A, B)
        Et = E.twist(D)
        assert Et.discriminant() == D ** 6 * E.discriminant()
        if not E.is_singular():
            assert Et.j_invariant() == E.j_invariant()
            assert Et.twist(D) == E.twist(D * D) == \
                WeierstrassCurve(D * D * A, D ** 4 * B)

    @settings(max_examples=50, deadline=None)
    @given(small_rats, small_rats)
    def test_double_isogeny_is_scaling(self, A, B):
        E = WeierstrassCurve(A, B)
        if E.is_singular() or E.two_isogenous().is_singular():
            return
        EE = E.two_isogenous().two_isogenous()
        assert (EE.A, EE.B) == (4 * A, 16 * B)
        assert EE.j_invariant() == E.j_invariant()

    def test_twist_laws_over_prime_field(self):
        # on plain residues mod p, as the family sweep runs them
        rng = random.Random(9)
        p = 10007
        nonsingular = 0
        for _ in range(200):
            A, B, D = rng.randrange(p), rng.randrange(1, p), rng.randrange(1, p)
            delta = _discriminant(A, B) % p
            At, Bt = (v % p for v in _twist(A, B, D))
            delta_t = _discriminant(At, Bt) % p
            assert delta_t == pow(D, 6, p) * delta % p
            if delta:
                nonsingular += 1
                assert _j_residue(At, Bt, delta_t, p) == _j_residue(A, B, delta, p)
        assert nonsingular > 190


class TestConicPoints:
    """Base points of conic families: a^2 + b^2 = -1 over F_p."""

    CONIC = FamilySpec("8.24.0.44", "conic", "a", "b")

    def draw(self, p, count, seed=0):
        rng = random.Random(seed)
        points = [_random_base_point(self.CONIC, p, rng) for _ in range(count)]
        return [(pt["a"], pt["b"]) for pt in points]

    def test_points_satisfy_equation(self):
        # 401 = 1 mod 4 runs the Tonelli-Shanks loop, 419 = 3 mod 4 the shortcut
        for p in (401, 419):
            for a, b in self.draw(p, 200):
                assert (a * a + b * b + 1) % p == 0

    def test_sqrt_is_a_root_or_none_on_non_residues(self):
        for p in (401, 419):
            squares = {x * x % p for x in range(p)}
            for n in range(p):
                r = _sqrt_mod_prime(n, p)
                if n in squares:
                    assert r is not None and r * r % p == n
                else:
                    assert r is None

    def test_distinct_and_deterministic(self):
        pts = self.draw(401, 12, seed=5)
        assert pts == self.draw(401, 12, seed=5)
        assert len(set(pts)) > 1

    def test_small_prime_exhaustion(self):
        # the conic over F_5 has exactly four points, and both roots of
        # a^2 = -1 - b^2 are drawn
        pts = set(self.draw(5, 200))
        assert sorted(pts) == [(0, 2), (0, 3), (2, 0), (3, 0)]


def eval_poly(text, names):
    """Compile the polynomial in the given variables, then evaluate it."""
    return _compile_poly(text, names)(names)


class TestEvalPoly:
    def test_evaluates_integer_polynomials(self):
        assert eval_poly("2**3*(b**2 + 1)", {"b": Fraction(2)}) == 40
        assert eval_poly("-t + 4", {"t": Fraction(1, 2)}) == Fraction(7, 2)
        x = QuadFieldElem(-1, 0, 1)
        assert eval_poly("a*a + 1", {"a": x}) == 0

    def test_unary_plus_on_field_elements(self):
        assert eval_poly("+b - 1", {"b": Fraction(3, 2)}) == Fraction(1, 2)
        assert eval_poly("+a*a", {"a": QuadFieldElem(2, 0, 1)}) == 2

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            eval_poly("b + c", {"b": Fraction(1)})

    def test_rejects_non_polynomial_syntax(self):
        for bad in ("b/2", "b**-1", "b**b", "__import__('os')",
                    "f(b)", "1.5*b", "b % 3"):
            with pytest.raises(ValueError):
                eval_poly(bad, {"b": Fraction(1)})


class TestFamilyTable:
    def test_four_families_load(self):
        specs = load_family_specs()
        assert sorted(specs) == ["16.48.0.25", "32.96.0.2", "32.96.0.1",
                                 "8.24.0.44"] or len(specs) == 4
        for lab, spec in specs.items():
            assert spec.label == lab
            assert spec.base in ("conic", "line")
            assert spec.genus == 0

    def test_checksum_matches_payload(self):
        import hashlib
        from importlib import resources

        raw = json.loads(
            resources.files("minimal2").joinpath("families.json").read_text())
        blob = json.dumps(raw["families"], sort_keys=True,
                          separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == raw["sha256"]
        tampered = json.loads(json.dumps(raw["families"]))
        first = next(iter(tampered))
        tampered[first]["A"] += " + 1"
        blob2 = json.dumps(tampered, sort_keys=True,
                           separators=(",", ":")).encode()
        assert hashlib.sha256(blob2).hexdigest() != raw["sha256"]

    def test_identity_check_passes_quickly(self):
        specs = load_family_specs()
        rep = family_identity_check(specs["16.48.0.25"], trials=4, primes=3,
                                    seed=1)
        assert rep["pass"] is True
        assert rep["failures"] == []
        assert rep["nonsingular"] > rep["singular"]

    def test_identity_check_full_reports(self):
        # counts pinned from the deterministic seed-0 sweep
        expected = {"16.48.0.25": (992, 8), "32.96.0.1": (994, 6),
                    "32.96.0.2": (993, 7), "8.24.0.44": (989, 11)}
        specs = load_family_specs()
        for lab, (good, bad) in expected.items():
            rep = family_identity_check(specs[lab], trials=40, primes=25,
                                        seed=0)
            assert rep["pass"] is True
            assert (rep["nonsingular"], rep["singular"]) == (good, bad)

    @pytest.mark.parametrize("A_expr", ["b/2", "t + 1", "b +"])
    def test_malformed_row_fails_when_built(self, A_expr):
        # a conic row's variables are a and b; "b +" is not even Python
        with pytest.raises(ValueError):
            FamilySpec("8.24.0.44", "conic", A_expr, "b")

    def test_specialization_parses_nothing(self, monkeypatch):
        specs = load_family_specs()
        parses = []
        real = ast.parse

        def spy(*args, **kwargs):
            parses.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ast, "parse", spy)
        rep = family_identity_check(specs["16.48.0.25"], trials=4, primes=3,
                                    seed=1)
        assert rep["nonsingular"] > 0
        assert parses == []

    def test_degenerate_spec_fails(self):
        spec = FamilySpec(label="8.24.0.0", base="line", A_expr="t",
                          B_expr="0")
        rep = family_identity_check(spec, trials=4, primes=3, seed=0)
        assert rep["pass"] is False


def _over_q(expr: str, point: dict) -> Fraction:
    """A row polynomial at an integer point, over Q, by Python's own
    evaluator: neither the row's compiled code nor its syntax check."""
    names = {k: Fraction(v) for k, v in point.items()}
    return Fraction(eval(expr, {"__builtins__": {}}, names))


def _reduce(q: Fraction, p: int) -> int:
    return q.numerator * pow(q.denominator, -1, p) % p


class TestResidueSweep:
    """The family sweep works on plain residues mod p through the curve
    formulas that WeierstrassCurve uses."""

    @pytest.mark.parametrize("label", ["16.48.0.25", "32.96.0.1"])
    def test_residues_match_field_elements(self, label):
        # oracle: the row over Q at the same integer point, with the
        # discriminant and c4 from the general Weierstrass invariants
        # (a1 = a3 = a6 = 0, a2 = A, a4 = B), reduced mod p only at the end
        spec = load_family_specs()[label]
        compared = 0
        for p in (401, 409, 419):
            rng = random.Random(p)
            for _ in range(10):
                point = _random_base_point(spec, p, rng)
                A, B, delta = _curve_residues(spec, point, p)
                qA, qB = _over_q(spec.A_expr, point), _over_q(spec.B_expr, point)
                b2, b4, b8 = 4 * qA, 2 * qB, -qB * qB
                q_delta = -b2 * b2 * b8 - 8 * b4 ** 3
                c4 = b2 * b2 - 24 * b4
                assert (_reduce(qA, p), _reduce(qB, p)) == (A, B)
                assert _reduce(q_delta, p) == delta
                if delta:
                    assert _reduce(c4 ** 3 / q_delta, p) == _j_residue(A, B, delta, p)
                    compared += 1
        assert compared > 20

    def test_wrong_twist_fails_the_check(self, monkeypatch):
        monkeypatch.setattr(ellcurve, "_twist",
                            lambda A, B, D: (D * A, D * B))
        with pytest.raises(FamilyIdentityError,
                           match=r"discriminant not scaled by D\^6"):
            family_identity_check(load_family_specs()["16.48.0.25"],
                                  trials=4, primes=3, seed=1)

    def test_wrong_two_isogeny_fails_the_check(self, monkeypatch):
        monkeypatch.setattr(ellcurve, "_two_isogeny",
                            lambda A, B: (-2 * A, A * A + 4 * B))
        with pytest.raises(FamilyIdentityError, match="double 2-isogeny"):
            family_identity_check(load_family_specs()["16.48.0.25"],
                                  trials=4, primes=3, seed=1)


class TestQuadFamily:
    def test_discriminant_is_exactly_minus_power_of_two(self):
        for n in range(1, 21):
            rep = quadfamily_check(n)
            assert rep["discriminant"] == -(2 ** (2 * n + 6))
            assert rep["discriminant_is_minus_power_of_two"]
            assert rep["discriminant_exponent"] == 2 * n + 6

    def test_square_only_at_three(self):
        squares = [n for n in range(1, 21)
                   if quadfamily_check(n)["two_n_plus_one_is_square"]]
        assert squares == [3]
        assert quadfamily_check(3)["field_is_gaussian"]

    def test_never_twice_a_square(self):
        assert not any(quadfamily_check(n)["two_n_plus_one_is_twice_square"]
                       for n in range(1, 21))

    def test_norm_equation_parity(self):
        for n in range(1, 21):
            rep = quadfamily_check(n)
            solvable = rep["minus_two_u_squared_solvable"]
            assert solvable == (n % 2 == 1)
            if solvable:
                u = rep["u"]
                assert 2 ** n + 1 - 1 == 2 * u * u or \
                    (1 + 2 * u * u == 2 ** n + 1)

    def test_rational_twists(self):
        r2 = quadfamily_check(2)
        assert (r2["twist_by_a"]["A"], r2["twist_by_a"]["B"]) == (-10, 20)
        r10 = quadfamily_check(10)
        assert r10["twist_by_a"]["A"] == -2050
        assert r10["twist_by_a"]["B"] == 1049600
        assert r10["twist_by_a"]["j_numerator"] == 257 ** 3
        assert r10["twist_by_a"]["j_denominator"] == 256

    def test_expected_labels(self):
        labels = {n: quadfamily_check(n)["expected_label"]
                  for n in range(1, 21)}
        for n in (1, 5, 7, 9, 11, 13, 15, 17, 19):
            assert labels[n] == (8, 24, 0)
        assert labels[2] == (16, 384, 9)
        assert labels[10] == (16, 384, 9)
        assert labels[3] is None
        for n in (4, 6, 8, 12, 14, 16, 18, 20):
            assert labels[n] is None

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            quadfamily_check(0)

    def test_rejects_n_above_the_bound(self):
        assert QUADFAMILY_N_MAX == 40
        assert quadfamily_check(QUADFAMILY_N_MAX)["n"] == 40
        with pytest.raises(ValueError, match="n above 40 is out of scope"):
            quadfamily_check(QUADFAMILY_N_MAX + 1)


def test_export_lists_resolve():
    import minimal2

    for module in (minimal2, ellcurve):
        assert [n for n in module.__all__ if not hasattr(module, n)] == []
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= set(namespace)
