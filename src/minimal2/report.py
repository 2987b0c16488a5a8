"""Run configuration, report assembly, and the all-claims verification driver.

Reports are JSON documents that are byte-identical across runs with the
same configuration and seed.  Wall-clock timing therefore never enters a
report; commands log elapsed time to stderr instead.  Census tables can
additionally be exported as CSV.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from . import ellcurve, kernels, lie2adic, minimality, modcurve
from .subgroups import OpenSubgroup, ambient_generators

SCHEMA_VERSION = 1

COMMANDS = (
    "census",
    "check",
    "genus",
    "lie-check",
    "falsify",
    "quadfamily",
    "family-check",
    "verify-all",
)

Progress = Optional[Callable[[str], None]]


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one command invocation."""

    command: str
    level_bound: int = 64
    index_bound: int = 96
    genus_filter: Optional[int] = None
    seed: int = 0
    max_retries: int = 8
    round_trip_count: int = 10_000
    n_max: int = 20
    prime: int = 3
    label: Optional[str] = None
    trials: int = 40
    primes: int = 25
    profile: str = "desk"
    group_path: Optional[str] = None
    out_path: Optional[str] = None
    csv_path: Optional[str] = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        for name in ("level_bound", "index_bound", "max_retries",
                     "round_trip_count", "n_max", "prime", "trials", "primes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.n_max > ellcurve.QUADFAMILY_N_MAX:
            raise ValueError(
                f"n_max above {ellcurve.QUADFAMILY_N_MAX} is out of scope")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.genus_filter is not None and self.genus_filter < 0:
            raise ValueError("genus_filter must be nonnegative")
        minimality.check_census_bounds(self.level_bound, self.index_bound)
        if self.prime not in (3, 5):
            raise ValueError("prime must be 3 or 5")
        if self.profile not in ("desk", "extended"):
            raise ValueError("profile must be 'desk' or 'extended'")
        if self.csv_path and self.command != "census":
            raise ValueError("CSV export is only defined for the census")

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class Report:
    """Deterministic result document for one command."""

    command: str
    config: dict
    results: dict
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "results": self.results,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())


def census_csv(entries) -> str:
    """CSV table of census entries, one row per conjugacy class."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["level", "index", "genus", "contains_minus_I", "modulus",
                "generators", "canonical_key"])
    for e in entries:
        gens = ";".join(":".join(str(v) for v in g) for g in e.generators)
        w.writerow([e.level, e.index, e.genus, e.contains_minus_I,
                    e.modulus, gens, e.canonical_key])
    return buf.getvalue()


def _census_results(entries) -> dict:
    tally: dict[str, int] = {}
    for e in entries:
        key = f"{e.level}.{e.index}"
        tally[key] = tally.get(key, 0) + 1
    return {
        "count": len(entries),
        "by_level_index": dict(sorted(tally.items())),
        "genera": sorted({e.genus for e in entries}),
        "any_contains_minus_I": any(e.contains_minus_I for e in entries),
        "entries": [e.to_json_dict() for e in entries],
    }


def _run_census(config: RunConfig, progress: Progress):
    entries = minimality.census(config.level_bound, config.index_bound,
                                genus_filter=config.genus_filter,
                                progress=progress)
    return _census_results(entries), True, entries


def _load_group(config: RunConfig) -> OpenSubgroup:
    if not config.group_path:
        raise ValueError("this command needs --group pointing to a JSON file")
    with open(config.group_path) as f:
        return OpenSubgroup.from_json_dict(json.load(f))


def _run_check(config: RunConfig, progress: Progress):
    H = _load_group(config)
    rep = minimality.is_minimal(H)
    return rep.to_json_dict(), True, rep


def _run_genus(config: RunConfig, progress: Progress):
    H = _load_group(config)
    data = modcurve.genus(H)
    lab = (H.level(), H.index_in_ambient(), data.genus)
    results = {"label": list(lab), "genus_data": data.to_json_dict()}
    return results, True, data


def _run_lie_check(config: RunConfig, progress: Progress):
    records = lie2adic.lie_check_all_classes(config.seed, config.max_retries,
                                             progress=progress)
    vals = [r.d_valuation for r in records]
    hist: dict[str, int] = {}
    for r in records:
        hist[str(r.retries)] = hist.get(str(r.retries), 0) + 1
    expected = len(lie2adic.gl2_mod4_elements()) ** 2
    results = {
        "class_pairs": expected,
        "accepted": len(records),
        "min_d_valuation": min(vals),
        "max_d_valuation": max(vals),
        "retry_histogram": dict(sorted(hist.items())),
        "records": [r.to_json_dict() for r in records],
    }
    return results, len(records) == expected, records


def _run_falsify(config: RunConfig, progress: Progress):
    rep = minimality.falsify_odd_prime(config.prime, progress=progress)
    witnessed = len(rep.witnesses)
    results = rep.to_json_dict() | {
        "minimal_groups_found": rep.det_full_classes - witnessed,
    }
    return results, rep.det_full_classes == witnessed, rep


def _run_quadfamily(config: RunConfig, progress: Progress):
    reports = [ellcurve.quadfamily_check(n) for n in range(1, config.n_max + 1)]
    ok = True
    for rep in reports:
        if rep["n"] == 2:
            ok &= rep["twist_by_a"]["A"] == -10 and rep["twist_by_a"]["B"] == 20
        if rep["n"] == 3:
            ok &= rep["field_is_gaussian"]
        if rep["n"] == 10:
            ok &= (rep["twist_by_a"]["j_numerator"] == 257 ** 3
                   and rep["twist_by_a"]["j_denominator"] == 2 ** 8)
        ok &= rep["minus_two_u_squared_solvable"] == (rep["n"] % 2 == 1)
    results = {"n_max": config.n_max, "reports": reports}
    return results, bool(ok), reports


def _run_family_check(config: RunConfig, progress: Progress):
    specs = ellcurve.load_family_specs()
    if config.label is not None:
        if config.label not in specs:
            raise ValueError(f"unknown family label {config.label!r}; "
                             f"known: {sorted(specs)}")
        labels = [config.label]
    else:
        labels = sorted(specs)
    per_family = {}
    ok = True
    for lab in labels:
        if progress:
            progress(f"family {lab}")
        try:
            per_family[lab] = ellcurve.family_identity_check(
                specs[lab], trials=config.trials, primes=config.primes,
                seed=config.seed)
            ok &= per_family[lab]["pass"]
        except ellcurve.FamilyIdentityError as exc:
            per_family[lab] = {"label": lab, "pass": False, "error": str(exc)}
            ok = False
    results = {"families": per_family}
    return results, ok, per_family


# ---------------------------------------------------------------------------
# verify-all: every claim the artifact makes, in dependency order
# ---------------------------------------------------------------------------

EXPECTED_GENUS0_TALLY = {"8.24": 4, "16.48": 8, "32.96": 16}
EXPECTED_GENUS0_COUNT = 28
EXPECTED_EXTENDED_COUNT = 7652
# The 7652 classes are counted with no index cap; 1 << 30 is past any index
# a level-128 group can have.
EXTENDED_INDEX_BOUND = 1 << 30


def _criterion_unit_square_lemma(config, progress):
    counts = minimality.verify_unit_square_lemma(max_k=6)
    return {"subgroup_counts": {str(k): v for k, v in counts.items()}}, True


def _criterion_det_full_maximal(config, progress):
    counts = minimality.verify_non_two_group_witness(progress=progress)
    return counts, True


def _classical_groups() -> dict[str, OpenSubgroup]:
    """X(1), X_0(2) and X(2) as mod-8 models of level-dividing-2 groups."""
    full = OpenSubgroup(2, 8, ambient_generators(2, 8))
    borel = minimality.sylow_pro2_subgroup()
    kernel2 = OpenSubgroup(2, 8, [(1, 2, 0, 1), (1, 0, 2, 1), (3, 0, 0, 1),
                                  (1, 0, 0, 3), (5, 0, 0, 1), (1, 0, 0, 5)])
    return {"X(1)": full, "X0(2)": borel, "X(2)": kernel2}


_CLASSICAL_EXPECTED = {
    "X(1)": (1, 1, 0),
    "X0(2)": (2, 3, 0),
    "X(2)": (2, 6, 0),
}


def _mat_mul(x, y, n):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % n, (a * f + b * h) % n,
            (c * e + d * g) % n, (c * f + d * h) % n)


def _generated(gens, n) -> set:
    """The group generated by the 4-tuples gens mod n, as a set of 4-tuples."""
    elems = frontier = {(1, 0, 0, 1)}
    while frontier:
        frontier = {_mat_mul(x, g, n) for x in frontier for g in gens} - elems
        elems |= frontier
    return elems


@lru_cache(maxsize=None)
def _sl2_tuples(n: int) -> tuple:
    return tuple(sorted(_generated([(1, 1, 0, 1), (1, 0, 1, 1)], n)))


def _coset_action_genus(generators, n: int) -> tuple:
    """(psl_index, nu2, nu3, cusps, genus) of X_H, H = <generators> mod n.

    A second method beside ``modcurve.genus``, in plain Python with no
    numpy, no kernels and no level search: SL_2(Z/n) acts on the right
    cosets of <H, -I> cap SL_2, each built as an explicit set; S, T_3 and U
    act by right multiplication, and the cusps are the cycles of U."""
    gens = [tuple(v % n for v in g) for g in generators] + [(n - 1, 0, 0, n - 1)]
    h_sl = [x for x in _generated(gens, n) if (x[0] * x[3] - x[1] * x[2]) % n == 1]
    coset_of, reps = {}, []
    for x in _sl2_tuples(n):
        if x not in coset_of:
            for h in h_sl:
                coset_of[_mat_mul(h, x, n)] = len(reps)
            reps.append(x)

    def perm(sigma):
        sigma = tuple(v % n for v in sigma)
        return [coset_of[_mat_mul(r, sigma, n)] for r in reps]

    nu2 = sum(i == j for i, j in enumerate(perm((0, -1, 1, 0))))
    nu3 = sum(i == j for i, j in enumerate(perm((0, -1, 1, -1))))
    u, seen, cusps = perm((1, 1, 0, 1)), set(), 0
    for i in range(len(reps)):
        if i not in seen:
            cusps += 1
            while i not in seen:
                seen.add(i)
                i = u[i]
    m = len(reps)
    # a non-integral genus matches no claimed genus
    return m, nu2, nu3, cusps, 1 + Fraction(m - 3 * nu2 - 4 * nu3 - 6 * cusps, 12)


def _criterion_genus_oracle(config, progress, entries):
    detail = {"classical": {}, "census_coset_checked": 0, "census_mismatches": []}
    ok = True
    for name, G in _classical_groups().items():
        lab = modcurve.label(G)
        detail["classical"][name] = list(lab)
        ok &= lab == _CLASSICAL_EXPECTED[name]
    # Recompute every census entry's curve data by the coset action on its
    # model reduced to the level (8 at least, where det is tested); the PSL
    # index is the index in GL_2, halved when -I is not in the group.
    for i, e in enumerate(entries):
        got = _coset_action_genus(e.generators, max(e.level, 8))
        gd = e.genus_data
        psl_index = e.index if e.contains_minus_I else e.index // 2
        if (got != (gd.psl_index, gd.nu2, gd.nu3, gd.cusps, gd.genus)
                or (got[0], got[4]) != (psl_index, e.genus)):
            detail["census_mismatches"].append(i)
        detail["census_coset_checked"] += 1
    ok &= not detail["census_mismatches"]
    return detail, bool(ok)


def _criterion_genus0_census(entries):
    results = _census_results(entries)
    ok = (results["count"] == EXPECTED_GENUS0_COUNT
          and results["by_level_index"] == EXPECTED_GENUS0_TALLY
          and results["genera"] == [0]
          and not results["any_contains_minus_I"])
    summary = {k: results[k] for k in
               ("count", "by_level_index", "genera", "any_contains_minus_I")}
    return summary, ok


def _criterion_frattini_rank(entries):
    """Rank 2 at the certifying modulus, and the maximal subgroups' det images
    over all their elements equal maximal_determinant_images and the triple."""
    ok = True
    for e in entries:
        H = e.subgroup()
        HM = minimality._model_at(H, minimality.certifying_modulus(H.level()))
        fq = HM.frattini_quotient()
        images = [kernels.det_image(HM.elements[fq.hyperplane_mask(mu)],
                                    HM.modulus, 8) for mu in range(1, 1 << fq.rank)]
        ok &= (fq.rank == 2
               and images == minimality.maximal_determinant_images(H)
               and tuple(sorted(images, key=sorted)) == minimality.INDEX2_DET_IMAGES)
    return {"entries_checked": len(entries)}, bool(ok)


def _criterion_lie_check(config, progress):
    results, ok, _ = _run_lie_check(config, progress)
    del results["records"]
    return results, ok


def _criterion_round_trip(config, progress):
    failures = lie2adic.log_exp_round_trip(config.seed,
                                           config.round_trip_count)
    return {"trials": config.round_trip_count, "failures": failures}, \
        failures == 0


def _criterion_falsify(config, progress):
    detail = {}
    ok = True
    for p in (3, 5):
        rep = minimality.falsify_odd_prime(p, progress=progress)
        witnessed = len(rep.witnesses)
        detail[str(p)] = {
            "subgroup_classes": rep.subgroup_classes,
            "det_full_classes": rep.det_full_classes,
            "witnesses": witnessed,
            "minimal_groups_found": rep.det_full_classes - witnessed,
        }
        ok &= rep.det_full_classes == witnessed
    return detail, bool(ok)


def _criterion_nilpotent(config, progress):
    counts = minimality.nilpotent_lift_check(progress=progress)
    return counts, True


def _criterion_quadfamily(config, progress):
    results, ok, _ = _run_quadfamily(config, progress)
    del results["reports"]
    return results, ok


def _criterion_families(config, progress):
    results, ok, per_family = _run_family_check(
        dataclasses.replace(config, label=None), progress)
    slim = {lab: {k: rep.get(k) for k in ("nonsingular", "singular", "pass")}
            for lab, rep in per_family.items()}
    return {"families": slim}, ok


def _criterion_extended_census(config, progress):
    entries = minimality.census(128, EXTENDED_INDEX_BOUND, progress=progress)
    return {"count": len(entries)}, len(entries) == EXPECTED_EXTENDED_COUNT


def _run_verify_all(config: RunConfig, progress: Progress):
    entries = minimality.census(config.level_bound, config.index_bound,
                                genus_filter=0, progress=progress)
    steps: list[tuple[str, Callable[[], tuple[dict, bool]]]] = [
        ("unit-square-lemma", lambda: _criterion_unit_square_lemma(config, progress)),
        ("det-full-maximal-lemma", lambda: _criterion_det_full_maximal(config, progress)),
        ("genus0-census", lambda: _criterion_genus0_census(entries)),
        ("frattini-rank-det-triple", lambda: _criterion_frattini_rank(entries)),
        ("genus-oracle", lambda: _criterion_genus_oracle(config, progress, entries)),
        ("lie-check", lambda: _criterion_lie_check(config, progress)),
        ("lie-round-trip", lambda: _criterion_round_trip(config, progress)),
        ("odd-prime-falsifier", lambda: _criterion_falsify(config, progress)),
        ("nilpotent-square-det", lambda: _criterion_nilpotent(config, progress)),
        ("quadfamily", lambda: _criterion_quadfamily(config, progress)),
        ("family-identities", lambda: _criterion_families(config, progress)),
    ]
    if config.profile == "extended":
        steps.append(("extended-census-level-128",
                      lambda: _criterion_extended_census(config, progress)))
    criteria = []
    for name, fn in steps:
        if progress:
            progress(f"criterion: {name}")
        try:
            detail, ok = fn()
        except Exception as exc:  # a failed claim must surface, not abort
            detail, ok = {"error": f"{type(exc).__name__}: {exc}"}, False
        criteria.append({"name": name, "pass": ok, "detail": detail})
    results = {"profile": config.profile, "criteria": criteria}
    return results, all(c["pass"] for c in criteria), criteria


_HANDLERS = {
    "census": _run_census,
    "check": _run_check,
    "genus": _run_genus,
    "lie-check": _run_lie_check,
    "falsify": _run_falsify,
    "quadfamily": _run_quadfamily,
    "family-check": _run_family_check,
    "verify-all": _run_verify_all,
}


def run(config: RunConfig, progress: Progress = None) -> Report:
    """Execute one command and assemble its report.

    Writes the JSON report to config.out_path and, for the census, the
    CSV table to config.csv_path when those are set.
    """
    results, passed, payload = _HANDLERS[config.command](config, progress)
    report = Report(command=config.command, config=config.to_json_dict(),
                    results=results, passed=passed)
    if config.out_path:
        report.write(config.out_path)
    if config.csv_path:
        with open(config.csv_path, "w") as f:
            f.write(census_csv(payload))
    return report


def verify_all(profile: str = "desk", seed: int = 0,
               progress: Progress = None) -> Report:
    """Run the complete claim battery under one profile."""
    config = RunConfig(command="verify-all", profile=profile, seed=seed)
    return run(config, progress)
