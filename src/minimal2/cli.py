"""Command-line front end.

Every subcommand builds a RunConfig, runs it, prints a short human
summary to stdout, and exits 0 exactly when every sub-check passed.
Progress and timing go to stderr so that reports stay deterministic.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import Optional, Sequence

from .ellcurve import QUADFAMILY_N_MAX
from .report import Report, RunConfig, run


def build_parser() -> argparse.ArgumentParser:
    """Each option's dest is the RunConfig field it fills.  An omitted
    option is absent from the namespace, so RunConfig's default applies."""
    parser = argparse.ArgumentParser(
        prog="minimal2",
        description="Census and verification tools for minimal subgroups "
                    "of GL_2(Z_2) and the associated elliptic-curve families.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, about: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=about,
                              argument_default=argparse.SUPPRESS)

    p = command("census", "enumerate minimal conjugacy classes")
    p.add_argument("--level-bound", type=int)
    p.add_argument("--index-bound", type=int)
    p.add_argument("--genus", dest="genus_filter", type=int, metavar="G",
                   help="keep only classes with this genus")
    p.add_argument("--csv", dest="csv_path", metavar="PATH",
                   help="also write the census table as CSV")

    for name, about in (("check", "decide minimality of one group"),
                        ("genus", "genus data of one group's modular curve")):
        p = command(name, about)
        p.add_argument("--group", dest="group_path", required=True,
                       metavar="PATH",
                       help="JSON file with prime, modulus, generators")

    p = command("lie-check", "determinant check over all class pairs mod 4")
    p.add_argument("--max-retries", type=int)

    p = command("falsify", "non-minimality witnesses at an odd prime")
    p.add_argument("--prime", type=int)

    p = command("quadfamily", "discriminant/field/twist checks for the "
                              "power-of-2-discriminant family")
    p.add_argument("--n-max", type=int,
                   help=f"check n = 1..N_MAX, at most {QUADFAMILY_N_MAX} "
                        f"(default {RunConfig.n_max})")

    p = command("family-check",
                "twist/isogeny identities for the stored families")
    p.add_argument("--label", help="check a single family (default: all)")
    p.add_argument("--trials", type=int)
    p.add_argument("--primes", type=int)

    p = command("verify-all", "run the complete claim battery")
    p.add_argument("--profile", choices=("desk", "extended"))

    for p in sub.choices.values():
        p.add_argument("--out", dest="out_path", metavar="PATH",
                       help="write the JSON report here")
        p.add_argument("--seed", type=int,
                       help=f"seed for all randomized checks "
                            f"(default {RunConfig.seed})")
        p.add_argument("--quiet", action="store_true", default=False,
                       help="suppress progress output on stderr")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    return RunConfig(**{k: v for k, v in vars(args).items() if k in fields})


def _summarize(report: Report) -> list[str]:
    r = report.results
    if report.command == "census":
        lines = [f"census: {r['count']} minimal conjugacy classes"]
        for key, n in r["by_level_index"].items():
            lines.append(f"  level.index {key}: {n}")
        lines.append(f"  genera {r['genera']}; "
                     f"-I present in any: {r['any_contains_minus_I']}")
        return lines
    if report.command == "check":
        return [f"minimal: {r['verdict']} "
                f"(certified at modulus {r['certifying_modulus']}, "
                f"frattini rank {r['frattini_rank']})"]
    if report.command == "genus":
        lab = ".".join(str(v) for v in r["label"])
        g = r["genus_data"]
        return [f"label {lab}: psl_index {g['psl_index']}, nu2 {g['nu2']}, "
                f"nu3 {g['nu3']}, cusps {g['cusps']}, genus {g['genus']}"]
    if report.command == "lie-check":
        return [f"lie check: {r['accepted']}/{r['class_pairs']} class pairs "
                f"accepted; d valuation min {r['min_d_valuation']} "
                f"max {r['max_d_valuation']}"]
    if report.command == "falsify":
        return [f"p={r['prime']}: {r['subgroup_classes']} subgroup classes, "
                f"{r['det_full_classes']} with full determinant, "
                f"{len(r['witnesses'])} witnessed non-minimal, "
                f"{r['minimal_groups_found']} minimal"]
    if report.command == "quadfamily":
        return [f"quadfamily n=1..{r['n_max']}: "
                f"all discriminants are -2^(2n+6); "
                f"{sum(1 for q in r['reports'] if q['expected_label'])} "
                f"values of n carry a pinned label"]
    if report.command == "family-check":
        lines = []
        for lab, rep in sorted(r["families"].items()):
            if rep.get("pass"):
                lines.append(f"{lab}: ok "
                             f"({rep['nonsingular']} nonsingular points, "
                             f"{rep['singular']} singular skipped)")
            else:
                lines.append(f"{lab}: FAILED {rep.get('error', '')}")
        return lines
    if report.command == "verify-all":
        lines = []
        for c in r["criteria"]:
            lines.append(f"{'PASS' if c['pass'] else 'FAIL'}  {c['name']}")
        n_ok = sum(1 for c in r["criteria"] if c["pass"])
        lines.append(f"{n_ok}/{len(r['criteria'])} criteria passed "
                     f"({r['profile']} profile)")
        return lines
    return []


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    progress = None
    if not args.quiet:
        def progress(msg: str) -> None:
            print(msg, file=sys.stderr, flush=True)

    t0 = time.monotonic()
    try:
        report = run(config, progress)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for line in _summarize(report):
        print(line)
    if not args.quiet:
        print(f"elapsed: {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
