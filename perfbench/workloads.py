"""The four workloads: inputs from a seed, one timed pass, and its checks.

A pass is the whole workload once; an operation is one unit of it (one
census, one group, one class pair or round trip, one lemma call).  An
operation fails when it raises or when its output fails a check from
``checks``, which computes apart from minimal2.
"""

from __future__ import annotations

import numpy as np

from minimal2 import ellcurve, lie2adic, minimality, modcurve, subgroups

import checks

CENSUS_BOUNDS = (16, 48)
CERTIFY_GROUPS = 40
CERTIFY_MODULUS = 32
# The pairs <A, B> are drawn once from this fixed seed so every run times
# the same mix of labels and verdicts; the run seed conjugates each pair by
# its own element of the Sylow subgroup, which changes every matrix but
# keeps each group's size, level, label and verdict.
CERTIFY_BASE_SEED = 20240217
CERTIFY_GENUS_SAMPLE = 6
LIE_ROUND_TRIPS = 2000
LIE_EXACT_SAMPLE = 12
QUADFAMILY_N = range(1, 21)


def _try(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a raising operation is a failed operation
        return exc


def _problems(out, check, *args, **kwargs) -> list[str]:
    """The check's problems with one output; an output that raised, or that
    makes the check raise, is a problem too."""
    if isinstance(out, Exception):
        return [repr(out)]
    try:
        return check(*args, **kwargs)
    except Exception as exc:
        return [f"check raised {exc!r}"]


# -- census ------------------------------------------------------------------------

def census_setup(seed):
    return {}


def census_pass(state):
    return [_try(minimality.census, *CENSUS_BOUNDS)]


def census_check(state, outputs):
    (entries,) = outputs
    problems = _problems(entries, lambda: checks.check_census([e.to_json_dict() for e in entries]))
    return 1, int(bool(problems)), problems


# -- certify -------------------------------------------------------------------------

def _sylow_element(rng, m, det8=None):
    """Uniform element of the mod-m pro-2 Sylow model (a, d odd, c even),
    optionally with a given determinant mod 8."""
    while True:
        a, d = (2 * int(v) + 1 for v in rng.integers(0, m // 2, 2))
        b, c = int(rng.integers(0, m)), 2 * int(rng.integers(0, m // 2))
        if det8 is None or (a * d - b * c) % 8 == det8:
            return a, b, c, d


def _conj(g, x, m):
    a, b, c, d = g
    inv_det = pow((a * d - b * c) % m, -1, m)
    gi = (d * inv_det, -b * inv_det, -c * inv_det, a * inv_det)
    return tuple(v % m for v in checks._mm(checks._mm(g, x), gi))


def certify_setup(seed):
    m = CERTIFY_MODULUS
    base = np.random.default_rng(CERTIFY_BASE_SEED)
    pairs = [(_sylow_element(base, m, 3), _sylow_element(base, m, 5))
             for _ in range(CERTIFY_GROUPS)]
    rng = np.random.default_rng(seed)
    out = []
    for a, b in pairs:
        g = _sylow_element(rng, m)
        out.append((_conj(g, a, m), _conj(g, b, m)))
    sample = rng.choice(CERTIFY_GROUPS, CERTIFY_GENUS_SAMPLE, replace=False)
    return {"pairs": out, "genus_sample": {int(i) for i in sample}}


def _certify_one(a, b):
    H = subgroups.closure([a, b], CERTIFY_MODULUS)
    rep = minimality.is_minimal(H)
    data = modcurve.genus(H)
    return rep.to_json_dict(), data.to_json_dict(), modcurve.label(H)


def certify_pass(state):
    return [_try(_certify_one, a, b) for a, b in state["pairs"]]


def certify_check(state, outputs):
    failed, problems = 0, []
    for i, ((a, b), out) in enumerate(zip(state["pairs"], outputs)):
        bad = _problems(out, lambda: checks.check_certify(
            [a, b], CERTIFY_MODULUS, out[0]["verdict"], out[0]["frattini_rank"],
            out[0]["certifying_modulus"], out[0]["witnesses"], out[2], out[1],
            with_genus=i in state["genus_sample"]))
        failed += bool(bad)
        problems += [f"group {i}: {p}" for p in bad]
    return len(outputs), failed, problems


# -- lie -----------------------------------------------------------------------------

def lie_setup(seed):
    rng = np.random.default_rng(seed)
    offs = rng.integers(0, 1 << (lie2adic.DEFAULT_PRECISION - 2), size=(LIE_ROUND_TRIPS, 4),
                        dtype=np.int64)
    mats = [tuple(4 * int(v) + (1 if i in (0, 3) else 0) for i, v in enumerate(row))
            for row in offs]
    return {"seed": seed, "mats": mats,
            "record_sample": {int(i) for i in rng.choice(9216, LIE_EXACT_SAMPLE, replace=False)},
            "trip_sample": {int(i) for i in rng.choice(LIE_ROUND_TRIPS, LIE_EXACT_SAMPLE,
                                                       replace=False)}}


def _round_trip(entries):
    log = lie2adic.mat_log(lie2adic.PrecisionMatrix.from_entries(entries))
    back = lie2adic.mat_exp(log)
    return log.entries, back.entries, back.effective_precision


def lie_pass(state):
    records = _try(lie2adic.lie_check_all_classes, state["seed"])
    return [records] + [_try(_round_trip, m) for m in state["mats"]]


def lie_check(state, outputs):
    records, trips = outputs[0], outputs[1:]
    attempted = 9216 + len(trips)
    if isinstance(records, Exception):
        failed, problems = 9216, [repr(records)]
    else:
        dicts = [r.to_json_dict() for r in records]
        coverage = _problems(dicts, checks.check_lie_coverage, dicts)
        failed, problems = (9216 if coverage else 0), list(coverage)
        for i, r in enumerate(dicts):
            bad = _problems(r, checks.check_lie_record, r, exact=i in state["record_sample"])
            failed += bool(bad) and not coverage
            problems += bad
    for i, (m, out) in enumerate(zip(state["mats"], trips)):
        bad = _problems(out, lambda: checks.check_round_trip(
            m, *out, exact=i in state["trip_sample"]))
        failed += bool(bad)
        problems += bad
    return attempted, failed, problems


# -- lemmas --------------------------------------------------------------------------

def lemmas_setup(seed):
    return {"seed": seed, "specs": ellcurve.load_family_specs()}


def lemmas_pass(state):
    specs = state["specs"]
    return ([_try(minimality.falsify_odd_prime, p) for p in (3, 5)]
            + [_try(minimality.nilpotent_lift_check), _try(minimality.verify_unit_square_lemma, 6)]
            + [_try(ellcurve.family_identity_check, specs[lab], seed=state["seed"])
               for lab in sorted(specs)]
            + [_try(ellcurve.quadfamily_check, n) for n in QUADFAMILY_N])


def lemmas_check(state, outputs):
    checkers = ([lambda r, p=p: checks.check_falsifier(p, r.to_json_dict()) for p in (3, 5)]
                + [checks.check_nilpotent_lifts, checks.check_unit_squares]
                + [checks.check_family] * len(state["specs"])
                + [lambda r, n=n: checks.check_quadfamily(n, r) for n in QUADFAMILY_N])
    failed, problems = 0, []
    for out, check in zip(outputs, checkers):
        bad = _problems(out, check, out)
        failed += bool(bad)
        problems += bad
    return len(outputs), failed, problems


WORKLOADS = {
    "census": (census_setup, census_pass, census_check),
    "certify": (certify_setup, certify_pass, certify_check),
    "lie": (lie_setup, lie_pass, lie_check),
    "lemmas": (lemmas_setup, lemmas_pass, lemmas_check),
}
