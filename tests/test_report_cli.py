"""Report documents and the command-line front end."""

import argparse
import dataclasses
import json
import subprocess
import sys

import pytest

from minimal2 import cli, report
from minimal2.report import Report, RunConfig, census_csv


class TestRunConfig:
    def test_defaults_roundtrip(self):
        cfg = RunConfig(command="census")
        assert RunConfig(**cfg.to_json_dict()) == cfg

    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(command="frobnicate")

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            RunConfig(command="census", level_bound=12)
        with pytest.raises(ValueError):
            RunConfig(command="census", index_bound=0)
        with pytest.raises(ValueError):
            RunConfig(command="falsify", prime=7)
        with pytest.raises(ValueError):
            RunConfig(command="verify-all", profile="exhaustive")
        with pytest.raises(ValueError):
            RunConfig(command="quadfamily", n_max=0)
        with pytest.raises(ValueError, match="n_max above 40 is out of scope"):
            RunConfig(command="quadfamily", n_max=41)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            RunConfig(command="lie-check", seed=-1)


class TestReportDocument:
    def test_json_is_stable_and_sorted(self):
        rep = Report(command="quadfamily",
                     config=RunConfig(command="quadfamily").to_json_dict(),
                     results={"b": 1, "a": 2}, passed=True)
        text = rep.to_json()
        assert text == rep.to_json()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["schema_version"] == report.SCHEMA_VERSION
        assert parsed["passed"] is True

    def test_no_timing_fields(self, census8):
        cfg = RunConfig(command="census", level_bound=8)
        results, passed, _ = report._run_census(cfg, None)
        text = Report(command="census", config=cfg.to_json_dict(),
                      results=results, passed=passed).to_json()
        for word in ("time", "elapsed", "seconds", "duration"):
            assert word not in text

    def test_identical_runs_are_byte_identical(self, tmp_path):
        cfg = RunConfig(command="quadfamily", n_max=8,
                        out_path=str(tmp_path / "a.json"))
        report.run(cfg)
        first = (tmp_path / "a.json").read_bytes()
        report.run(cfg)
        assert (tmp_path / "a.json").read_bytes() == first

    def test_census_csv_shape(self, census8):
        text = census_csv(census8)
        lines = text.strip().split("\n")
        assert lines[0] == ("level,index,genus,contains_minus_I,modulus,"
                            "generators,canonical_key")
        assert len(lines) == 1 + len(census8)
        first = lines[1].split(",")
        assert first[0] == "8" and first[1] == "24" and first[2] == "0"
        gens = first[5].split(";")
        assert all(len(g.split(":")) == 4 for g in gens)

    def test_csv_only_for_census(self, tmp_path):
        # refused when the config is built, before any command runs
        with pytest.raises(ValueError, match="only defined for the census"):
            RunConfig(command="quadfamily", csv_path=str(tmp_path / "x.csv"),
                      out_path=str(tmp_path / "x.json"))
        assert not (tmp_path / "x.json").exists()


class TestVerifyAllDriver:
    def test_criterion_failure_is_reported_not_raised(self, monkeypatch):
        # negative control: corrupt the labeler and the criterion must fail
        monkeypatch.setattr(report.modcurve, "label", lambda G: (0, 0, 0))
        cfg = RunConfig(command="verify-all")
        detail, ok = report._criterion_genus_oracle(cfg, None, [])
        assert ok is False
        assert detail["classical"]["X(1)"] == [0, 0, 0]

    def test_genus_oracle_checks_census_entries_by_coset_action(
            self, monkeypatch, census8):
        labelled = []
        label = report.modcurve.label
        monkeypatch.setattr(report.modcurve, "label",
                            lambda G: labelled.append(G) or label(G))
        detail, ok = report._criterion_genus_oracle(
            RunConfig(command="verify-all"), None, census8)
        assert ok is True
        assert detail["census_coset_checked"] == len(census8) > 0
        assert detail["census_mismatches"] == []
        # modcurve labels only the three classical groups
        assert len(labelled) == 3

    def test_genus_oracle_fails_on_a_corrupted_entry(self, census8):
        entries = list(census8)
        entries[1] = dataclasses.replace(entries[1], genus=entries[1].genus + 1)
        detail, ok = report._criterion_genus_oracle(
            RunConfig(command="verify-all"), None, entries)
        assert ok is False
        assert detail["census_mismatches"] == [1]

    def test_coset_action_genus_of_classical_groups(self):
        # X_0(2), X(2) and X_0(8) from mod-8 models
        units = [(3, 0, 0, 1), (1, 0, 0, 3), (5, 0, 0, 1), (1, 0, 0, 5)]
        assert report._coset_action_genus(
            [(1, 1, 0, 1), (1, 0, 2, 1)] + units, 8) == (3, 1, 0, 2, 0)
        assert report._coset_action_genus(
            [(1, 2, 0, 1), (1, 0, 2, 1)] + units, 8) == (6, 0, 0, 3, 0)
        assert report._coset_action_genus([(1, 1, 0, 1)] + units, 8) \
            == (12, 0, 0, 4, 0)

    def test_classical_groups_are_the_expected_curves(self):
        got = {name: report.modcurve.label(G)
               for name, G in report._classical_groups().items()}
        assert got == {"X(1)": (1, 1, 0), "X0(2)": (2, 3, 0),
                       "X(2)": (2, 6, 0)}

    def test_driver_records_criterion_exceptions(self, monkeypatch):
        # stub out every criterion; one of them blows up, and the driver
        # must record the failure and keep going
        monkeypatch.setattr(report.minimality, "census",
                            lambda *a, **k: [])
        good = lambda *a, **k: ({}, True)

        def boom(*a, **k):
            raise RuntimeError("criterion exploded")

        for name in ("_criterion_unit_square_lemma",
                     "_criterion_det_full_maximal", "_criterion_genus0_census",
                     "_criterion_frattini_rank", "_criterion_genus_oracle",
                     "_criterion_lie_check", "_criterion_round_trip",
                     "_criterion_falsify", "_criterion_nilpotent",
                     "_criterion_quadfamily"):
            monkeypatch.setattr(report, name, good)
        monkeypatch.setattr(report, "_criterion_families", boom)
        results, passed, criteria = report._run_verify_all(
            RunConfig(command="verify-all"), None)
        assert passed is False
        bad = [c for c in criteria if not c["pass"]]
        assert len(bad) == 1
        assert bad[0]["name"] == "family-identities"
        assert "criterion exploded" in bad[0]["detail"]["error"]
        assert sum(c["pass"] for c in criteria) == len(criteria) - 1

    def test_extended_census_counts_with_no_index_cap(self, monkeypatch):
        # 7652 classes is the count with no index cap, so the criterion must
        # not pass the desk profile's --index-bound through
        calls = []
        monkeypatch.setattr(report.minimality, "census",
                            lambda *a, **k: calls.append(a) or [])
        cfg = RunConfig(command="verify-all", profile="extended")
        report._criterion_extended_census(cfg, None)
        assert calls == [(128, report.EXTENDED_INDEX_BOUND)]
        assert report.EXTENDED_INDEX_BOUND == 1 << 30


# Each subcommand with every option set to a value other than RunConfig's
# default, and the RunConfig those options must build.
EVERY_OPTION = {
    "census": (["--level-bound", "32", "--index-bound", "48", "--genus", "1",
                "--csv", "t.csv"],
               dict(level_bound=32, index_bound=48, genus_filter=1,
                    csv_path="t.csv")),
    "check": (["--group", "g.json"], dict(group_path="g.json")),
    "genus": (["--group", "g.json"], dict(group_path="g.json")),
    "lie-check": (["--max-retries", "3"], dict(max_retries=3)),
    "falsify": (["--prime", "5"], dict(prime=5)),
    "quadfamily": (["--n-max", "12"], dict(n_max=12)),
    "family-check": (["--label", "16.48.0.25", "--trials", "4",
                      "--primes", "3"],
                     dict(label="16.48.0.25", trials=4, primes=3)),
    "verify-all": (["--profile", "extended"], dict(profile="extended")),
}


def subcommand_parsers() -> dict:
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestParser:
    def test_every_command_is_covered(self):
        assert set(EVERY_OPTION) == set(subcommand_parsers()) == set(report.COMMANDS)

    @pytest.mark.parametrize("command", sorted(EVERY_OPTION))
    def test_every_option_fills_its_field(self, command):
        argv, fields = EVERY_OPTION[command]
        fields = dict(fields, out_path="r.json", seed=7)
        # every option of the subcommand is set, and each one is a field
        dests = {a.dest for a in subcommand_parsers()[command]._actions}
        assert dests - {"help", "quiet"} == set(fields)
        default = RunConfig(command=command)
        assert all(getattr(default, k) != v for k, v in fields.items())
        args = cli.build_parser().parse_args(
            [command, *argv, "--out", "r.json", "--seed", "7", "--quiet"])
        assert cli._config_from_args(args) == RunConfig(command=command, **fields)

    @pytest.mark.parametrize("command", sorted(EVERY_OPTION))
    def test_omitted_options_take_the_config_defaults(self, command):
        required = command in ("check", "genus")  # --group is required
        argv, fields = EVERY_OPTION[command] if required else ([], {})
        args = cli.build_parser().parse_args([command, *argv])
        assert args.quiet is False
        assert cli._config_from_args(args) == RunConfig(command=command, **fields)


class TestCli:
    def test_quadfamily_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "qf.json"
        rc = cli.main(["quadfamily", "--n-max", "12", "--out", str(out),
                       "--quiet"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "quadfamily"
        assert doc["passed"] is True
        assert len(doc["results"]["reports"]) == 12
        text = capsys.readouterr().out
        assert "pinned" in text or "label" in text

    def test_check_and_genus_on_saved_group(self, tmp_path, capsys, census8):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(census8[0].subgroup().to_json_dict()))
        rc = cli.main(["check", "--group", str(gpath), "--quiet"])
        assert rc == 0
        assert "minimal: True" in capsys.readouterr().out
        rc = cli.main(["genus", "--group", str(gpath), "--quiet"])
        assert rc == 0
        assert "8.24.0" in capsys.readouterr().out

    def test_genus_command_runs_the_coset_action_once(self, tmp_path,
                                                       monkeypatch):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({
            "prime": 2, "modulus": 8,
            "generators": [[1, 1, 0, 1], [1, 0, 2, 1], [3, 0, 0, 1],
                           [1, 0, 0, 3], [5, 0, 0, 1], [1, 0, 0, 5]]}))
        calls = []
        genus = report.modcurve.genus
        monkeypatch.setattr(report.modcurve, "genus",
                            lambda G: calls.append(G) or genus(G))
        rep = report.run(RunConfig(command="genus", group_path=str(gpath)))
        assert len(calls) == 1
        assert rep.results["label"] == [2, 3, 0]

    def test_genus_accepts_a_mod2_model(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(
            {"prime": 2, "modulus": 2, "generators": [[1, 1, 0, 1]]}))
        rc = cli.main(["genus", "--group", str(gpath), "--quiet"])
        assert rc == 0
        assert "label 2.3.0" in capsys.readouterr().out

    @pytest.mark.parametrize("doc, field", [
        ([2, 8, [[1, 1, 0, 1]]], "object"),
        ({"prime": 2, "generators": [[1, 1, 0, 1]]}, "'modulus'"),
        ({"prime": 2, "modulus": 8, "generators": [[1, 1, 0, 1], [3, 0, 0]]},
         "generators[1]"),
    ])
    def test_malformed_group_json_names_the_field(self, tmp_path, capsys,
                                                  doc, field):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(doc))
        rc = cli.main(["check", "--group", str(gpath), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ValueError" in err and field in err

    @pytest.mark.parametrize("doc, message", [
        ({"prime": 2, "modulus": 512, "generators": [[1, 1, 0, 1]]},
         "modulus 512 is above 256, the largest supported modulus"),
        ({"prime": 2, "modulus": (1 << 61) - 1, "generators": [[1, 1, 0, 1]]},
         f"modulus {(1 << 61) - 1} is above 256, the largest supported modulus"),
        ({"prime": 2, "modulus": 256,
          "generators": [[1, 128, 0, 1], [3, 0, 0, 1], [1, 0, 0, 5]]},
         "level 256 is above 128, the largest level that can be certified"),
    ], ids=["modulus-512", "modulus-2^61-1", "level-256"])
    def test_check_out_of_scope_group_fails_cleanly(self, tmp_path, capsys,
                                                    doc, message):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(doc))
        rc = cli.main(["check", "--group", str(gpath), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"

    def test_family_check_label(self, capsys):
        rc = cli.main(["family-check", "--label", "16.48.0.25", "--trials",
                       "4", "--primes", "3", "--quiet"])
        assert rc == 0
        assert "ok" in capsys.readouterr().out

    def test_unknown_family_label_fails_cleanly(self, capsys):
        rc = cli.main(["family-check", "--label", "1.1.1.1", "--quiet"])
        assert rc == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_bad_arguments_exit_2(self):
        assert cli.main(["census", "--level-bound", "12"]) == 2
        assert cli.main(["falsify", "--prime", "7"]) == 2

    def test_quadfamily_n_max_above_the_bound_exits_2(self, capsys):
        assert cli.main(["quadfamily", "--n-max", "41", "--quiet"]) == 2
        assert capsys.readouterr().err == "error: n_max above 40 is out of scope\n"

    def test_negative_seed_exits_2(self, capsys):
        assert cli.main(["lie-check", "--seed", "-1", "--quiet"]) == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--level-bound", "256", "level_bound above 128 is out of scope"),
        ("--index-bound", "2", "index_bound below the Sylow index finds nothing"),
    ])
    def test_census_bounds_out_of_scope_exit_2(self, capsys, flag, value, message):
        assert cli.main(["census", "--quiet", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_csv_flag_only_on_census(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["quadfamily", "--quiet",
                      "--csv", str(tmp_path / "no.csv")])
        assert exc.value.code == 2

    def test_subprocess_invocation(self, tmp_path):
        out = tmp_path / "fam.json"
        proc = subprocess.run(
            [sys.executable, "-m", "minimal2.cli", "family-check",
             "--label", "8.24.0.44", "--trials", "3", "--primes", "2",
             "--out", str(out)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert doc["results"]["families"]["8.24.0.44"]["pass"] is True
