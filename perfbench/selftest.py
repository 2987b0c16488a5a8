"""Self-test of the benchmark's checks: each must pass a correct answer and
reject a planted wrong one, on inputs far smaller than the workloads.

    python3 perfbench/selftest.py      (from the root of a checkout)

Exits 1 if any check accepts a wrong answer or rejects a right one.
"""

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from minimal2 import ellcurve, lie2adic, minimality, modcurve, subgroups  # noqa: E402

FAILURES = []


def expect(name, problems, wrong):
    ok = bool(problems) == wrong
    print(f"{'ok  ' if ok else 'FAIL'} {'rejects' if wrong else 'accepts'} {name}"
          + (f": {problems[0]}" if problems and ok else ""))
    if not ok:
        FAILURES.append(name)


def planted(value, **changes):
    out = copy.deepcopy(value)
    out.update(changes)
    return out


def census_cases():
    entries = [e.to_json_dict() for e in minimality.census(8, 24)]
    tally = {(8, 24): 4}
    expect("census(8, 24)", checks.check_census(entries, tally), False)
    expect("a wrong tally", checks.check_census(entries[:3], tally), True)
    expect("a wrong genus", checks.check_census(
        [planted(entries[0], genus=1)] + entries[1:], tally), True)
    m = entries[0]["modulus"]
    expect("-I reported present", checks.check_census(
        [planted(entries[0], contains_minus_I=True)] + entries[1:], tally), True)
    g = (1, 1, 0, 1)
    gi = (1, m - 1, 0, 1)
    conj = [[v % m for v in checks._mm(checks._mm(g, tuple(x)), gi)]
            for x in entries[0]["generators"]]
    expect("two conjugate entries", checks.check_census(
        [entries[0], planted(entries[1], generators=conj)] + entries[2:], tally), True)
    sylow = planted(entries[0], generators=list(minimality.SYLOW_PRO2_GENERATORS))
    expect("the Sylow subgroup (rank > 2) in the census", checks.check_census(
        [sylow] + entries[1:], tally), True)


def certify_cases():
    rng = np.random.default_rng(7)
    found = {}
    while len(found) < 2:
        a, b = (workloads._sylow_element(rng, 32, d) for d in (3, 5))
        H = subgroups.closure([a, b], 32)
        rep = minimality.is_minimal(H).to_json_dict()
        found.setdefault(rep["verdict"], ([a, b], rep, modcurve.genus(H).to_json_dict(),
                                          modcurve.label(H)))

    def run(gens, rep, data, lab):
        return checks.check_certify(gens, 32, rep["verdict"], rep["frattini_rank"],
                                    rep["certifying_modulus"], rep["witnesses"], lab, data,
                                    with_genus=True)

    for verdict, (gens, rep, data, lab) in found.items():
        expect(f"a {'minimal' if verdict else 'non-minimal'} group", run(gens, rep, data, lab),
               False)
        expect("a wrong psl_index", run(gens, rep, planted(data, psl_index=2 * data["psl_index"]),
                                        lab), True)
        expect("a wrong label level", run(gens, rep, data, (2 * lab[0],) + tuple(lab[1:])), True)
    gens, rep, data, lab = found[False]
    expect(f"a rank-{rep['frattini_rank']} group reported minimal",
           run(gens, planted(rep, verdict=True, frattini_rank=2), data, lab), True)
    wit = rep["witnesses"]
    outside = planted(wit, subgroup=planted(
        wit["subgroup"], generators=[[0, 1, 1, 0]]))
    expect("a witness outside the group", run(gens, planted(rep, witnesses=outside), data, lab),
           True)
    expect("a wrong witness index", run(gens, planted(rep, witnesses=planted(
        wit, index_in_group=4)), data, lab), True)


def lie_cases():
    classes = checks.gl2_mod4()
    recs = []
    for ci, (a, b) in enumerate([(classes[0], classes[5]), (classes[17], classes[40])]):
        da, db = (1, 2, 3, 1), (2, 2, 1, 3)
        d = lie2adic.d_determinant(lie2adic._lift(a, da), lie2adic._lift(b, db))
        recs.append({"class_index": ci, "a_bar": list(a), "b_bar": list(b),
                     "a_digits": list(da), "b_digits": list(db), "d_residue": d,
                     "d_valuation": checks.v2(d) if d else 0, "retries": 0})
    for r in recs:
        expect(f"d for class pair {r['class_index']}", checks.check_lie_record(r, True), False)
        expect("a wrong d", checks.check_lie_record(
            planted(r, d_residue=r["d_residue"] ^ 8, d_valuation=checks.v2(r["d_residue"] ^ 8)),
            True), True)
    expect("d = 0", checks.check_lie_record(planted(recs[0], d_residue=0), False), True)
    full = [{"a_bar": a, "b_bar": b} for a in classes for b in classes]
    expect("all 9216 class pairs", checks.check_lie_coverage(full), False)
    expect("a missing class pair", checks.check_lie_coverage(full[:-1]), True)
    m = (1 + 4 * 12345, 4 * 777, 4 * 99, 1 + 4 * 31337)
    log = lie2adic.mat_log(lie2adic.PrecisionMatrix.from_entries(m))
    back = lie2adic.mat_exp(log)
    expect("a log/exp round trip",
           checks.check_round_trip(m, log.entries, back.entries, back.effective_precision, True),
           False)
    expect("a wrong exp(log M)", checks.check_round_trip(
        m, log.entries, (back.entries[0] + 2**40,) + back.entries[1:], 64, False), True)
    expect("a wrong log M", checks.check_round_trip(
        m, (log.entries[0] + 2**20,) + log.entries[1:], back.entries, 64, True), True)


def lemma_cases():
    rep = minimality.falsify_odd_prime(3).to_json_dict()
    expect("the p = 3 falsifier", checks.check_falsifier(3, rep), False)
    w = rep["witnesses"][0]
    expect("a wrong cyclic order", checks.check_falsifier(3, planted(
        rep, witnesses=[planted(w, cyclic_order=w["cyclic_order"] + 1)] + rep["witnesses"][1:])),
        True)
    expect("a witness with a non-generating det", checks.check_falsifier(3, planted(
        rep, witnesses=[planted(w, generator=[1, 1, 0, 1])] + rep["witnesses"][1:])), True)
    nil = minimality.nilpotent_lift_check()
    expect("the nilpotent lift counts", checks.check_nilpotent_lifts(nil), False)
    expect("a wrong nilpotent count", checks.check_nilpotent_lifts(
        planted(nil, nilpotent_lifts=nil["nilpotent_lifts"] + 1)), True)
    sq = minimality.verify_unit_square_lemma(6)
    expect("the unit subgroup counts", checks.check_unit_squares(sq), False)
    expect("a wrong unit subgroup count", checks.check_unit_squares({**sq, 5: sq[5] - 1}), True)
    specs = ellcurve.load_family_specs()
    fam = ellcurve.family_identity_check(specs["16.48.0.25"])
    expect("a family report", checks.check_family(fam), False)
    expect("a family report with a failure", checks.check_family(
        planted(fam, failures=[{"prime": 401}], **{"pass": False})), True)
    for n in (2, 3, 10):
        q = ellcurve.quadfamily_check(n)
        expect(f"quadfamily n = {n}", checks.check_quadfamily(n, q), False)
        expect("a wrong discriminant", checks.check_quadfamily(
            n, planted(q, discriminant=2 * q["discriminant"])), True)
        expect("a wrong twist", checks.check_quadfamily(
            n, planted(q, twist_by_a=planted(q["twist_by_a"], B=q["twist_by_a"]["B"] + 1))), True)


if __name__ == "__main__":
    for cases in (census_cases, certify_cases, lie_cases, lemma_cases):
        cases()
    print(f"{len(FAILURES)} self-test failure(s)")
    sys.exit(1 if FAILURES else 0)
