"""Report bytes pinned by sha256.

Every report is promised to be byte-identical for a given config and seed,
also across refactors of the code that produces it.  Each case below runs
one command and compares the sha256 of its ``Report.to_json()`` text (and,
for the census, of its CSV table) with the digest recorded before the
refactor.  Group files are written into the temporary directory and named
by a relative path, so ``group_path`` in the report is the same every run.
"""

import hashlib
import json

import pytest

from minimal2 import kernels, report
from minimal2.ellcurve import load_family_specs
from minimal2.minimality import SYLOW_PRO2_GENERATORS
from minimal2.report import RunConfig
from minimal2.subgroups import ambient_generators

GROUPS = {
    "sylow8": {"prime": 2, "modulus": 8,
               "generators": [list(g) for g in SYLOW_PRO2_GENERATORS]},
    "sylow2": {"prime": 2, "modulus": 2, "generators": [[1, 1, 0, 1]]},
    "gl2_8": {"prime": 2, "modulus": 8,
              "generators": [list(kernels.unpack(g))
                             for g in ambient_generators(2, 8)]},
    # rank 5 at its certifying modulus 16: the hyperplane witness
    "diag35": {"prime": 2, "modulus": 8,
               "generators": [[3, 0, 0, 1], [5, 0, 0, 1]]},
}

GOLDEN = {
    ("check", "sylow8"):
        "a5914c8f649bbac5d53cbd192d1e50b1ab36bc6103fdd96d65cd17d44eb470f7",
    ("genus", "sylow8"):
        "18faba701adab5c7038b7d3771442ec71fd45f8fb9addaae8cebcf9d4fbce43f",
    ("check", "sylow2"):
        "1fec18830b86170e6eec8569a4ae203722bf1b7b4867a7d3ef51a330b7c2e3e5",
    ("genus", "sylow2"):
        "18faba701adab5c7038b7d3771442ec71fd45f8fb9addaae8cebcf9d4fbce43f",
    ("check", "gl2_8"):
        "4559bf2ef2be4d4d1e6785a781c6d79f320a1366245511e1da48e698293e8450",
    ("check", "diag35"):
        "2731b05fe69a8672c8537cc476996e3c690b239fa66f668949bbc717ccbe407d",
}

# re-recorded once the subgroup classes became orbit-minimal representatives
# sorted by (order, key): a witness names its class index and an element
FALSIFY_3 = "c57f89803d458c588177908b65e18a396bcfd6966faff496020b56ee187c9993"
FALSIFY_5 = "6922dab00a457a3c91a79a7f6755cbf4c312e0b30307a17297f92af05e5e5da5"
CENSUS_16_48_JSON = \
    "5e1c02252dfdf96e982489b022ea66cefa9dd51ebebb84fba93118c50141154d"
CENSUS_16_48_CSV = \
    "26b5e35c35809937039e653433be2034b03cb0bc5259bd11936789127aa7ae62"

# ``family-check --label <label>`` at the default seed, trials and primes
FAMILY_CHECK = {
    "16.48.0.25":
        "df6c656e14a234bec4e0e1e0f4d3dc96433f933de512bbc6cc7819ec10f7f17a",
    "32.96.0.1":
        "5a2b00fcf85e3f389b23eb6b3c16d850d0def4842ad4900a8c5ff80ec1d31544",
    "32.96.0.2":
        "725d4ce07a85ba0e1d6806bdef5237b49248bfb92b7bc91e0f7788120d962a6a",
    "8.24.0.44":
        "b01d9d782c6c2451aefca17fb25eb1242137c1a7983f8974603cfc0b0ba95446",
}

# ``lie-check --seed 0``, the one report that serialises the 9216-pair sweep
LIE_CHECK_0 = \
    "48138b713217c517348dc879ba9811eacb29ebaaa93487bd1ddf073e693ab8f9"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command, group", sorted(GOLDEN))
def test_group_report_bytes(tmp_path, monkeypatch, command, group):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "group.json").write_text(json.dumps(GROUPS[group]))
    rep = report.run(RunConfig(command=command, group_path="group.json"))
    assert sha256(rep.to_json()) == GOLDEN[command, group]


def test_falsify_report_bytes():
    rep = report.run(RunConfig(command="falsify", prime=3))
    assert sha256(rep.to_json()) == FALSIFY_3


def test_falsify_p5_report_bytes():
    rep = report.run(RunConfig(command="falsify", prime=5))
    assert sha256(rep.to_json()) == FALSIFY_5


def test_census_report_and_csv_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rep = report.run(RunConfig(command="census", level_bound=16,
                               index_bound=48, csv_path="census.csv"))
    assert sha256(rep.to_json()) == CENSUS_16_48_JSON
    assert sha256((tmp_path / "census.csv").read_text()) == CENSUS_16_48_CSV


def test_family_check_covers_the_family_table():
    assert sorted(FAMILY_CHECK) == sorted(load_family_specs())


@pytest.mark.parametrize("label", sorted(FAMILY_CHECK))
def test_family_check_report_bytes(label):
    rep = report.run(RunConfig(command="family-check", label=label))
    assert sha256(rep.to_json()) == FAMILY_CHECK[label]


def test_lie_check_report_bytes():
    rep = report.run(RunConfig(command="lie-check", seed=0))
    assert sha256(rep.to_json()) == LIE_CHECK_0
