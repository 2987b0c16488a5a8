"""Shared fixtures and the acceptance-suite summary printer.

Expensive computations (the genus-0 census, the full lie sweep, the odd
prime falsifiers, the GL_2(Z/8) maximal-subgroup sweep, the GL_2(Z/8)
subgroup lattice) run once per session and are shared between their unit
tests and the acceptance tests.
"""

import os

import pytest


def _want_extended() -> bool:
    return bool(os.environ.get("MINIMAL2_EXTENDED"))


@pytest.fixture(scope="session")
def genus0_census():
    from minimal2 import minimality

    return minimality.census(64, 96, genus_filter=0)


@pytest.fixture(scope="session")
def census8():
    from minimal2 import minimality

    return minimality.census(8, 96)


@pytest.fixture(scope="session")
def lie_records():
    from minimal2 import lie2adic

    return lie2adic.lie_check_all_classes(seed=0)


@pytest.fixture(scope="session")
def falsifier_reports():
    from minimal2 import minimality

    return {p: minimality.falsify_odd_prime(p) for p in (3, 5)}


@pytest.fixture(scope="session")
def non_two_group_sweep():
    from minimal2 import minimality

    return minimality.verify_non_two_group_witness()


@pytest.fixture(scope="session")
def gl2_z8_table():
    from minimal2.smallgroups import FiniteGroupTable
    from minimal2.subgroups import ambient_generators

    return FiniteGroupTable.from_generators(ambient_generators(2, 8), 8)


@pytest.fixture(scope="session")
def gl2_z8_lattice(gl2_z8_table):
    """Every subgroup class of GL_2(Z/8): 2265 classes, about 1 s."""
    return gl2_z8_table.subgroup_classes()


@pytest.fixture(scope="session")
def nilpotent_sweep():
    from minimal2 import minimality

    return minimality.nilpotent_lift_check()


# One line per acceptance criterion at the end of the run.

_ACCEPTANCE: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if report.when == "call":
        _ACCEPTANCE[name] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup":
        if report.skipped:
            _ACCEPTANCE[name] = "SKIP"
        elif report.failed:
            _ACCEPTANCE[name] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _ACCEPTANCE.items():
        label = name.removeprefix("test_").replace("_", " ")
        terminalreporter.write_line(f"{outcome:<5} {label}")
