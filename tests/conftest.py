"""Shared fixtures: a private kernel cache and one solved record per
reference coupling set.

Seeds for the Newton solves were frozen from coarse parameter-box scans;
records are session-scoped since they are immutable.
"""
import sys
from dataclasses import replace

import pytest

from ambec import _kernels
from ambec.consistency import solve_family_I, solve_family_II, solve_family_III
from ambec.core import CouplingParams

ALPHA_II_HIGH = 0.230806
ALPHA_II_LOW = 1.584335
ALPHA_III_HIGH = 0.059261
ALPHA_III_LOW = 0.0562413


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the C kernel into a fresh cache directory, not the user's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg")))
        _kernels.c_library.cache_clear()
        yield
    _kernels.c_library.cache_clear()


@pytest.fixture(scope="session")
def fam1_record():
    return solve_family_I(3.0, -2.8, 2.0, 0.5)


#: the family II/III reference solves: (family, couplings, Newton seed)
CAT_SOLVES = {
    "II-high": ("II", CouplingParams(-5.0, 1.0, -2.41, ALPHA_II_HIGH),
                (-0.25002, -0.516404)),
    "II-low": ("II", CouplingParams(-5.0, 1.0, -1.1, ALPHA_II_LOW),
               (-0.099596745 * ALPHA_II_LOW ** 2,
                -0.438693274 * ALPHA_II_LOW ** 2)),
    "III-high": ("III", CouplingParams(-1.03, -1.2, -0.53, ALPHA_III_HIGH),
                 (-0.25, -0.46263)),
    "III-low": ("III", CouplingParams(-1.03, -1.2, -0.8, ALPHA_III_LOW),
                (-0.125, 0.06097)),
}


def solve_cat(name, alpha_sign=1.0):
    """The CAT_SOLVES solve `name`, at alpha_sign times its alpha."""
    family, params, seed = CAT_SOLVES[name]
    params = replace(params, alpha=alpha_sign * params.alpha)
    solve = solve_family_II if family == "II" else solve_family_III
    return solve(params, seed)


@pytest.fixture(scope="session")
def fam2_high_record():
    return solve_cat("II-high")


@pytest.fixture(scope="session")
def fam2_low_record():
    return solve_cat("II-low")


@pytest.fixture(scope="session")
def fam3_high_record():
    return solve_cat("III-high")


@pytest.fixture(scope="session")
def fam3_low_record():
    return solve_cat("III-low")


@pytest.fixture(scope="session")
def all_records(fam1_record, fam2_high_record, fam2_low_record,
                fam3_high_record, fam3_low_record):
    return {
        "I": fam1_record,
        "II-high": fam2_high_record,
        "II-low": fam2_low_record,
        "III-high": fam3_high_record,
        "III-low": fam3_low_record,
    }


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "ACCEPTANCE", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in range(1, 11):
        if num in results:
            desc, ok = results[num]
            status = "PASS" if ok else "FAIL"
        else:
            desc, status = "not evaluated (errored or skipped)", "FAIL"
        terminalreporter.write_line(f"{status}  criterion {num:2d}: {desc}")
