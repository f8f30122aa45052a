"""Command-line interface: exit codes, CSV/JSON outputs, determinism."""
import contextlib
import io
import json
import math
import pathlib
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ambec import ansatz, cli, consistency, dynamics, potentials, wigner
from ambec._kernels import kernel_backend
from ambec.ansatz import SUPERPOSED_KINDS, mu_critical
from ambec.cli import build_parser, main
from ambec.consistency import solve_family_I
from ambec.core import RECORD_KEYS, CouplingParams, SolutionRecord
from ambec.errors import (NoDropletError, OutOfScopeRegimeError,
                          TruncationWarning)
from ambec.manifest import TOOL_VERSION, RunManifest, read_csv, write_csv
from ambec.wigner import CONVENTION

FIG1 = ["--g-a", "3", "--g-am", "-2.8", "--alpha", "2"]
CAT2 = ["--g-a", "-5", "--g-m", "1", "--g-am", "-1.1", "--alpha", "1"]
CAT2_SEEDED = ["--family", "II", *CAT2, "--seed-mu", "-0.1",
               "--seed-epsilon", "-0.44"]
CAT3 = ["--g-a", "-1.03", "--g-m", "-1.2", "--g-am", "-0.8", "--alpha", "1"]

#: invocations by name, with the float flags of each that must be finite;
#: SOLUTION stands for the path of a family I record
NUMERIC_FLAGS = {
    "I": (["solve", "--family", "I", *FIG1, "--beta", "1"],
          ["--g-a", "--g-am", "--alpha", "--beta", "--tol"]),
    "II-seed": (["solve", *CAT2_SEEDED],
                ["--g-a", "--g-m", "--g-am", "--alpha", "--seed-mu",
                 "--seed-epsilon", "--tol"]),
    "II-scan": (["solve", "--family", "II", *CAT2, "--scan"],
                ["--g-m", "--tol"]),
    "III-seed": (["solve", "--family", "III", *CAT3, "--seed-mu", "-40",
                  "--seed-epsilon", "19"], ["--tol"]),
    "III-scan": (["solve", "--family", "III", *CAT3, "--scan"], ["--tol"]),
    "evolve": (["evolve", "--solution", "SOLUTION", "--grid-n", "64",
                "--t", "0.01"],
               ["--grid-l", "--t", "--dt", "--tol-drift"]),
    "scan": (["scan", *FIG1, "--mu-min", "-8", "--mu-max", "-1",
              "--count", "3", "--grid-n", "64"],
             ["--g-a", "--g-am", "--alpha", "--mu", "--mu-min", "--mu-max",
              "--tol"]),
    "wigner": (["wigner", "--beta", "1", "--delta", "3", "--kind",
                "bright_even", "--grid-n", "64"],
               ["--beta", "--delta", "--grid-l"]),
    "profile": (["profile", "--solution", "SOLUTION", "--grid-n", "64"],
                ["--grid-l", "--t"]),
    "potential": (["potential", "--solution", "SOLUTION", "--grid-n", "64"],
                  ["--grid-l"]),
    "residual": (["residual", "--solution", "SOLUTION", "--grid-n", "64"],
                 ["--grid-l"]),
}


def _set_flag(argv, flag, value):
    """argv with flag set to value as one `flag=value` word.

    One word, because argparse reads a separate `-inf` as an option.
    """
    if flag in argv:
        i = argv.index(flag)
        argv = [*argv[:i], *argv[i + 2:]]
    return [*argv, f"{flag}={value}"]


@pytest.fixture()
def rec_path(tmp_path):
    out = tmp_path / "rec.json"
    assert main(["solve", "--family", "I", *FIG1, "--beta", "1",
                 "--out", str(out)]) == 0
    return out


class TestSolve:
    def test_family_I_record(self, rec_path):
        rec = SolutionRecord.from_json(rec_path.read_text())
        assert rec.mu == pytest.approx(-2.0, abs=1e-12)
        assert rec.epsilon == pytest.approx(-3.0, abs=1e-12)
        assert rec.params.g_m == pytest.approx(2.9, abs=1e-12)
        man = RunManifest.read(str(rec_path.with_suffix("")) + ".manifest.json")
        assert man.command == "solve"
        assert man.outputs == [str(rec_path)]
        assert man.duration_s >= 0.0

    def test_singular_coupling_sum(self, tmp_path, capsys):
        rc = main(["solve", "--family", "I", "--g-a", "3", "--g-am", "-3",
                   "--alpha", "2", "--beta", "1",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_family_I_rejects_g_m(self, tmp_path):
        rc = main(["solve", "--family", "I", *FIG1, "--g-m", "2.9",
                   "--beta", "1", "--out", str(tmp_path / "x.json")])
        assert rc == 3

    def test_family_I_needs_beta(self, tmp_path):
        rc = main(["solve", "--family", "I", *FIG1,
                   "--out", str(tmp_path / "x.json")])
        assert rc == 3

    def test_family_II_needs_seeds_or_scan(self, tmp_path):
        rc = main(["solve", "--family", "II", *CAT2,
                   "--out", str(tmp_path / "x.json")])
        assert rc == 3

    def test_family_II_needs_g_m(self, tmp_path):
        rc = main(["solve", "--family", "II", "--g-a", "-5", "--g-am", "-1.1",
                   "--alpha", "1", "--seed-mu", "-0.1",
                   "--seed-epsilon", "-0.4", "--out", str(tmp_path / "x.json")])
        assert rc == 3

    def test_scan_solve_with_window(self, tmp_path):
        out = tmp_path / "cat.json"
        rc = main(["solve", "--family", "II", *CAT2, "--scan",
                   "--mu-range", "-0.2", "-0.05",
                   "--eps-range", "-0.6", "-0.3", "--scan-n", "60",
                   "--out", str(out)])
        assert rc == 0
        rec = SolutionRecord.from_json(out.read_text())
        assert rec.B == pytest.approx(1.3366709, rel=1e-5)

    def test_scan_box_edge_on_a_singular_line(self, tmp_path):
        # epsilon = -3/12.8 zeroes the Gamma denominator of these couplings;
        # the scan skips those cells and still finds the root
        out = tmp_path / "cat.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["solve", "--family", "II", *CAT2, "--scan",
                       "--eps-range", "-0.46875", "-0.234375",
                       "--scan-n", "33", "--out", str(out)])
        assert rc == 0
        assert [str(w.message) for w in caught] == []
        rec = SolutionRecord.from_json(out.read_text())
        assert rec.B == pytest.approx(1.3366709, rel=1e-5)

    def test_scan_needs_two_points(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        rc = main(["solve", "--family", "III", *CAT3, "--scan",
                   "--scan-n", "1", "--out", str(out)])
        assert capsys.readouterr().err == "error: scan needs n >= 2\n"
        assert rc == 3 and not out.exists()

    def test_scan_solve_empty_window(self, tmp_path):
        rc = main(["solve", "--family", "II", *CAT2, "--scan",
                   "--mu-range", "-9", "-8", "--eps-range", "-9", "-8",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["solve", "--family", "I", *FIG1, "--beta", "1"],
        ["solve", *CAT2_SEEDED],
        ["solve", "--family", "III", *CAT3, "--scan"],
        ["scan", *FIG1, "--mu-min", "-8", "--mu-max", "-1", "--count", "3"],
        ["scan", *FIG1, "--mu", "1"],
    ], ids=["family-I", "seeded", "scan-solve", "scan", "scan-solving-nothing"])
    @pytest.mark.parametrize("tol", [["--tol", "0"], ["--tol=-1e-9"]],
                             ids=["zero", "negative"])
    def test_non_positive_tol(self, argv, tol, tmp_path, capsys):
        # no root can pass norm < tol <= 0: exit 3 before any scan or Newton
        out = tmp_path / "x.out"
        rc = main([*argv, *tol, "--out", str(out)])
        err = capsys.readouterr().err
        _assert_one_error_line(rc, err)
        assert "tol must be positive" in err
        assert not out.exists()

    @pytest.mark.parametrize("mu_range, rc", [
        (["--mu-range", "-100", "-0.01"], 0),
        (["--mu-range", "-1", "-1e-2"], 2),
        (["--mu-range=-1e308", "-1"], 2),
    ], ids=["decimal", "exponent", "exponent-joined"])
    def test_negative_range_values_need_decimal_form(self, mu_range, rc,
                                                     tmp_path, capsys):
        # argparse reads a separate -1e-2 or -1 after a joined value as a
        # flag, so a two-value flag takes negative values in decimal form
        argv = ["solve", "--family", "III", *CAT3, "--scan", *mu_range,
                "--out", str(tmp_path / "x.json")]
        if rc:
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == rc
            assert "expected 2 arguments" in capsys.readouterr().err
        else:
            assert main(argv) == 0

    def test_wrong_basin_seed(self, tmp_path, capsys):
        rc = main(["solve", "--family", "II", *CAT2,
                   "--seed-mu", "-0.01", "--seed-epsilon", "-0.02",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 4
        assert "disagrees" in capsys.readouterr().err

    def test_family_I_large_amplitude(self, tmp_path):
        # the raw A3 residual is 3.3e-10 here, its normalized one 4e-17
        rc = main(["solve", "--family", "I", "--g-a", "-7.933847499028667",
                   "--g-am", "7.936417800804346",
                   "--alpha", "-5.196151014683082",
                   "--beta", "35.15100397768535",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("base, flag", [
        pytest.param(base, flag, id=f"{name}{flag}")
        for name, (base, flags) in NUMERIC_FLAGS.items() for flag in flags])
    def test_nonfinite_input_is_configuration_error(self, base, flag, value,
                                                    request, tmp_path, capsys):
        if "SOLUTION" in base:
            rec = str(request.getfixturevalue("rec_path"))
            base = [rec if a == "SOLUTION" else a for a in base]
        rc = main([*_set_flag(base, flag, value),
                   "--out", str(tmp_path / "x.out")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_beta_square_underflow(self, tmp_path, capsys):
        rc = main(["solve", "--family", "I", *FIG1, "--beta", "1e-170",
                   "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--g-a=-1.0", "--g-am=-0.0", "--alpha=1e+154",
         "--beta=1.7976931348623157e+308"],
        [*FIG1, "--beta=1e200"],
    ], ids=["max-float", "readme-couplings"])
    def test_beta_square_overflow(self, flags, tmp_path, capsys):
        # exited 2, as "B = nan" or "mu = -inf" out of scope
        rc = main(["solve", "--family", "I", *flags,
                   "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("error:") == 1 and "overflows" in err

    @pytest.mark.parametrize("argv, flag", [
        (["--family", "I", *FIG1, "--beta", "1", "--scan"], "--scan"),
        (["--family", "I", *FIG1, "--beta", "1", "--seed-mu", "-1",
          "--seed-epsilon", "-1"], "--seed-mu"),
        ([*CAT2_SEEDED, "--beta", "3"], "--beta"),
        ([*CAT2_SEEDED, "--mu-range", "-1", "-0.5"], "--mu-range"),
        ([*CAT2_SEEDED, "--scan"], "--seed-mu"),
    ], ids=["I-scan", "I-seeds", "II-seed-beta", "II-seed-mu-range",
            "II-scan-seeds"])
    def test_flag_the_mode_does_not_read(self, argv, flag, tmp_path, capsys):
        rc = main(["solve", *argv, "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert f"does not read {flag}" in err

    def test_family_I_small_beta(self, tmp_path):
        # B = (beta/beta_max)^2 / 4 to first order; computed as
        # 0.5 * (1/sqrt(1 - x) - 1) it rounded to 0 and exited 2
        out = tmp_path / "x.json"
        rc = main(["solve", "--family", "I", *FIG1, "--beta", "1e-9",
                   "--out", str(out)])
        assert rc == 0
        rec = SolutionRecord.from_json(out.read_text())
        assert rec.B > 0.0
        assert rec.B == pytest.approx(9.0 * 0.2 * 1e-18 / (2.0 * 4.0) / 4.0,
                                      rel=1e-12)

    @pytest.mark.parametrize("flags, message", [
        # 2 alpha^2 / (9 beta^2) underflows to 0: a ZeroDivisionError
        (["--g-a", "3", "--g-am=-1.7976931348623157e+308",
          "--alpha", "5e-324", "--beta", "1"], None),
        # a relation's terms hold inf and -inf: math.fsum raised ValueError
        (["--g-a", "5e-324", "--g-am", "-0.0", "--alpha", "1e-160",
          "--beta", "1"], None),
        # 2 alpha^2 overflows: the message blamed a beta too small
        (["--g-a=3", "--g-am=-2.8", "--alpha=1e+300", "--beta=1"],
         "alpha = 1e+300 is too large: 2 alpha^2/(9 beta^2) overflows"),
        (["--g-a=-1.0", "--g-am=-0.0", "--alpha=1e+154", "--beta=4.4e153"],
         "alpha = 1e+154 is too large: 2 alpha^2/(9 beta^2) overflows"),
        # g_a + g_am is 1e-300 against 2 alpha^2/(9 beta^2) of 2e299
        (["--g-a", "1e-300", "--g-am", "0", "--alpha", "1e150",
          "--beta", "1"], "(beta/beta_max)^2 underflows to 0"),
    ], ids=["c-underflow", "inf-minus-inf", "c-overflow",
            "c-overflow-large-beta", "x-underflow"])
    def test_family_I_extreme_couplings(self, flags, message, tmp_path,
                                        capsys):
        rc = main(["solve", "--family", "I", *flags,
                   "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert rc in (3, 4)
        assert err.count("error:") == 1 and err.startswith("error: ")
        if message is not None:
            assert rc == 3 and message in err

    @pytest.mark.parametrize("argv, line", [
        (["--family", "II", *CAT2, "--seed-mu=-1.7e308",
          "--seed-epsilon=-1"],
         "error: non-finite Jacobian at (mu, epsilon) = (-1.7e+308, -1.0)"),
        (["--family", "III", *CAT3, "--seed-mu=-1e305",
          "--seed-epsilon=1e305"],
         "error: singular Jacobian at (mu, epsilon) = "
         "(9.732118441191533e+213, -5.158061523929206e+218)"),
    ], ids=["II-non-finite-jacobian", "III-singular-jacobian"])
    def test_newton_failure_quotes_plain_floats(self, argv, line, tmp_path,
                                                capsys):
        # printed each coordinate as np.float64(...)
        rc = main(["solve", *argv, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err == line + "\n"

    def test_out_of_scope_root(self, tmp_path):
        rc = main(["solve", "--family", "II", *CAT2,
                   "--seed-mu", "-1", "--seed-epsilon", "-5",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        CAT2_SEEDED, ["--family", "III", *CAT3, "--scan"]],
        ids=["II-seeded", "III-scan"])
    def test_negative_alpha_gives_mirror_record(self, argv, tmp_path):
        # the model is invariant under alpha -> -alpha with psi_m -> -psi_m
        i = argv.index("--alpha")
        minus = [*argv[:i], "--alpha=-" + argv[i + 1], *argv[i + 2:]]
        records = []
        for name, args in (("plus", argv), ("minus", minus)):
            out = tmp_path / f"{name}.json"
            assert main(["solve", *args, "--out", str(out)]) == 0
            records.append(json.loads(out.read_text()))
        plus, mirrored = records
        mirrored["alpha"], mirrored["D"] = -mirrored["alpha"], -mirrored["D"]
        assert mirrored == plus


class TestTableCommands:
    def test_profile_csv(self, rec_path, tmp_path):
        out = tmp_path / "prof.csv"
        rc = main(["profile", "--solution", str(rec_path), "--grid-l", "30",
                   "--grid-n", "300", "--out", str(out)])
        assert rc == 0
        data = read_csv(str(out))
        assert data.header == ["x", "psi_a_re", "psi_a_im", "psi_m_re",
                               "psi_m_im", "n_a", "n_m"]
        assert len(data.rows) == 300
        assert data.manifest == str(out.with_suffix("")) + ".manifest.json"
        peak = max(r[5] for r in data.rows)
        assert peak > 0

    def test_potential_record_comment(self, rec_path, tmp_path):
        out = tmp_path / "pot.csv"
        assert main(["potential", "--solution", str(rec_path),
                     "--out", str(out)]) == 0
        data = read_csv(str(out))
        assert data.header == ["x", "V_a", "V_m", "phi_a", "phi_m"]
        line = next(c for c in data.comments if c.startswith("record: "))
        stored = json.loads(line[len("record: "):])
        rec = SolutionRecord.from_json(rec_path.read_text())
        assert stored == rec.to_dict()

    def test_residual_values(self, rec_path, tmp_path, capsys):
        out = tmp_path / "res.csv"
        assert main(["residual", "--solution", str(rec_path),
                     "--out", str(out)]) == 0
        data = read_csv(str(out))
        assert data.header == ["r_a", "r_m"]
        (row,) = data.rows
        assert row[0] < 1e-8 and row[1] < 1e-8
        assert "r_a=" in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["2000", "1001"])
    def test_residual_spectral_on_any_grid(self, n, rec_path, tmp_path):
        # a 5-point stencil on grids that are not powers of two reported
        # r_a = 2.84e-06 at n = 2000
        out = tmp_path / "res.csv"
        assert main(["residual", "--solution", str(rec_path), "--grid-n", n,
                     "--out", str(out)]) == 0
        (row,) = read_csv(str(out)).rows
        assert row[0] < 1e-8 and row[1] < 1e-8

    def test_missing_solution_file(self, tmp_path):
        rc = main(["profile", "--solution", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3

    def test_corrupt_solution_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{не json")
        rc = main(["profile", "--solution", str(bad),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3


def _assert_one_error_line(rc, err):
    assert rc == 3
    assert err.count("error:") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


#: a run of each command, {rec} standing for a record's path, and the
#: function that does its work, which a bad --out must never reach
BAD_OUT_RUNS = {
    "solve": (["solve", "--family", "I", *FIG1, "--beta", "1"],
              (consistency, "solve_family_I")),
    "profile": (["profile", "--solution", "{rec}", "--grid-n", "64"],
                (ansatz, "sample_fields")),
    "potential": (["potential", "--solution", "{rec}", "--grid-n", "64"],
                  (potentials, "self_consistent_potentials")),
    "residual": (["residual", "--solution", "{rec}", "--grid-n", "64"],
                 (potentials, "eigen_residuals")),
    "wigner": (["wigner", "--solution", "{rec}", "--grid-n", "64"],
               (wigner, "wigner_transform")),
    "evolve": (["evolve", "--solution", "{rec}", "--grid-n", "64",
                "--t", "0.01"], (dynamics, "evolve")),
    "scan": (["scan", *FIG1, "--mu", "-2", "--grid-n", "256"],
             (consistency, "solve_family_I")),
}


def _assert_bad_out_fails_first(command, out, rec_path, monkeypatch,
                                capsys):
    """command with --out out exits 3 with one error line before its work
    starts, and writes nothing where --out points or beside the record."""
    argv, (module, name) = BAD_OUT_RUNS[command]

    def work(*args, **kwargs):
        pytest.fail(f"{command} reached {name} with --out {out!r}")

    monkeypatch.setattr(module, name, work)
    target = pathlib.Path(out).resolve()
    dirs = [rec_path.parent, target, target.parent]

    def listings():
        return [sorted(d.iterdir()) if d.is_dir() else None for d in dirs]

    before = listings()
    capsys.readouterr()
    rc = main([*(a.format(rec=rec_path) for a in argv), "--out", str(out)])
    _assert_one_error_line(rc, capsys.readouterr().err)
    assert listings() == before


class TestBadFiles:
    @pytest.mark.parametrize("command", BAD_OUT_RUNS)
    def test_out_in_missing_directory(self, command, rec_path, tmp_path,
                                      monkeypatch, capsys):
        out = tmp_path / "nodir" / "out.csv"
        _assert_bad_out_fails_first(command, out, rec_path, monkeypatch,
                                    capsys)
        assert not out.parent.exists()

    # an existing directory is no file either, nor a name that ends in "/"
    @pytest.mark.parametrize("out", [".", "", "/", "existing-dir",
                                     "missing-dir/"])
    @pytest.mark.parametrize("command", BAD_OUT_RUNS)
    def test_out_without_a_file_name(self, command, out, rec_path, tmp_path,
                                     monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "existing-dir").mkdir()
        _assert_bad_out_fails_first(command, out, rec_path, monkeypatch,
                                    capsys)

    def test_out_name_too_long(self, tmp_path, capsys):
        # stat raises ENAMETOOLONG: the check lets it pass, the write fails
        rc = main(["solve", "--family", "I", *FIG1, "--beta", "1",
                   "--out", str(tmp_path / ("a" * 300))])
        err = capsys.readouterr().err
        _assert_one_error_line(rc, err)
        assert err.startswith(f"error: cannot write {tmp_path}")

    @pytest.mark.parametrize("edit", [
        lambda d: [1, 2],
        lambda d: None,
        lambda d: {**d, "beta": "1"},
        lambda d: {**d, "beta": True},
        lambda d: {**d, "A": None},
        lambda d: {**d, "mu": [1.0]},
        lambda d: {**d, "epsilon": float("nan")},
        lambda d: {**d, "residual_max": float("inf")},
        lambda d: {**d, "g_a": 10 ** 400},
        lambda d: {**d, "family": "IV"},
        lambda d: {**d, "family": 2},
    ], ids=["list", "null", "str-beta", "bool-beta", "null-A", "list-mu",
            "nan-epsilon", "inf-residual", "huge-int", "family-IV",
            "family-int"])
    def test_solution_not_a_record(self, edit, rec_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(rec_path.read_text()))))
        rc = main(["profile", "--solution", str(bad),
                   "--out", str(tmp_path / "x.csv")])
        _assert_one_error_line(rc, capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["profile", "potential", "residual",
                                         "evolve", "wigner"])
    @pytest.mark.parametrize("content", [
        lambda text: json.dumps({**json.loads(text), "beta": 0}).encode(),
        lambda text: json.dumps({**json.loads(text), "beta": -1}).encode(),
        lambda text: b"\xff\xfe",
        lambda text: text[:len(text) // 2].encode(),
        lambda text: b"[" * 200_000 + b"]" * 200_000,
    ], ids=["zero-beta", "negative-beta", "not-utf8", "truncated-json",
            "deeply-nested-json"])
    def test_unusable_solution_file(self, command, content, rec_path,
                                    tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content(rec_path.read_text()))
        capsys.readouterr()
        rc = main([command, "--solution", str(bad), "--grid-n", "64",
                   "--out", str(tmp_path / "x.csv")])
        _assert_one_error_line(rc, capsys.readouterr().err)


class TestProfileOverflow:
    """A --grid-l near the top of the float range overflows 2|beta x|."""

    @pytest.mark.parametrize("command", ["profile", "wigner", "potential",
                                         "residual", "evolve"])
    def test_one_error_line(self, command, tmp_path, capsys):
        rec = tmp_path / "rec.json"
        assert main(["solve", "--family", "I", *FIG1, "--beta", "2",
                     "--out", str(rec)]) == 0
        capsys.readouterr()
        rc = main([command, "--solution", str(rec), "--grid-n", "64",
                   "--grid-l", "8e307", "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        _assert_one_error_line(rc, err)
        assert "profile overflows" in err


class TestHugeAmplitude:
    """A --solution record whose densities overflow the float range."""

    @pytest.mark.parametrize("key", ["A", "D"])
    @pytest.mark.parametrize("command", ["profile", "potential", "residual",
                                         "evolve", "wigner"])
    def test_one_error_line(self, command, key, rec_path, tmp_path, capsys):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({**json.loads(rec_path.read_text()),
                                   key: 1e200}))
        argv = [command, "--solution", str(big), "--grid-n", "64",
                "--out", str(tmp_path / "x.csv")]
        if command == "wigner":  # transform the field that carries it
            argv += ["--component", {"A": "atomic", "D": "molecular"}[key]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        err = capsys.readouterr().err
        _assert_one_error_line(rc, err)
        assert "Warning" not in err
        assert [str(w.message) for w in caught] == []


class TestGridSpacing:
    """A --grid-l so small that the spacing 2 L / n underflows to 0."""

    @pytest.mark.parametrize("argv", [
        ["profile", "--solution", "{rec}"],
        ["potential", "--solution", "{rec}"],
        ["residual", "--solution", "{rec}"],
        ["evolve", "--solution", "{rec}", "--t", "0.01", "--dt", "1e-3"],
        ["wigner", "--solution", "{rec}"],
        ["wigner", "--beta", "1", "--delta", "3", "--kind", "bright_even"],
    ], ids=["profile", "potential", "residual", "evolve", "wigner",
            "wigner-inline"])
    def test_one_error_line(self, argv, rec_path, tmp_path, capsys):
        argv = [a.format(rec=rec_path) for a in argv]
        capsys.readouterr()
        rc = main([*argv, "--grid-n", "64", "--grid-l", "5e-324",
                   "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        _assert_one_error_line(rc, err)
        assert "spacing" in err


class TestWarningLines:
    @pytest.mark.parametrize("command", ["profile", "evolve"])
    def test_truncated_profile(self, command, rec_path, tmp_path, capsys):
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([command, "--solution", str(rec_path), "--grid-n", "64",
                       "--grid-l", "1.47", "--t", "0.01",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(" profile ")[0] for line in lines] == [
            "warning: atomic", "warning: molecular"]
        assert all(line.endswith("widen the grid") for line in lines)
        assert [str(w.message) for w in caught] == []

    def test_other_warnings_pass_on(self, monkeypatch, tmp_path, capsys):
        def cmd_noisy(args, manifest):
            warnings.warn(TruncationWarning("field cut at the edge"))
            warnings.warn(DeprecationWarning("old flag"))

        monkeypatch.setattr(cli, "cmd_scan", cmd_noisy)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["scan", *FIG1, "--mu", "-2",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 0
        assert capsys.readouterr().err == "warning: field cut at the edge\n"
        assert [(w.category, str(w.message)) for w in caught] == [
            (DeprecationWarning, "old flag")]


class TestEvolve:
    def test_manifest_records_kernel_backend(self, rec_path, tmp_path):
        out = tmp_path / "ev.csv"
        assert main(["evolve", "--solution", str(rec_path), "--t", "0.01",
                     "--grid-n", "64", "--out", str(out)]) == 0
        man = RunManifest.read(str(tmp_path / "ev.manifest.json"))
        assert man.environment == {"kernel_backend": kernel_backend()}
        # wigner renders its lattice with the same library
        assert main(["wigner", "--beta", "1", "--delta", "3", "--kind",
                     "bright_even", "--grid-n", "64",
                     "--out", str(tmp_path / "w.csv")]) == 0
        man = RunManifest.read(str(tmp_path / "w.manifest.json"))
        assert man.environment == {"kernel_backend": kernel_backend()}
        solve = RunManifest.read(str(rec_path.with_suffix("")) +
                                 ".manifest.json")
        assert solve.environment == {}

    def test_short_run_table(self, rec_path, tmp_path):
        out = tmp_path / "ev.csv"
        rc = main(["evolve", "--solution", str(rec_path), "--t", "0.05",
                   "--dt", "1e-3", "--record-every", "20", "--grid-n", "512",
                   "--out", str(out)])
        assert rc == 0
        data = read_csv(str(out))
        assert data.header == ["t", "N", "N_a", "N_m", "E",
                               "drift_a", "drift_m"]
        assert [r[0] for r in data.rows] == [0.0, 0.02, 0.04, 0.05]
        N0 = data.rows[0][1]
        assert abs(data.rows[-1][1] - N0) < 1e-9 * N0

    @pytest.mark.parametrize("beta, step, t", [("0.5", 5, "0.05"),
                                               ("1", 2, "0.02")])
    def test_blow_up_prints_one_error_line(self, beta, step, t, tmp_path):
        rec = tmp_path / "rec.json"
        assert main(["solve", "--family", "I", *FIG1, "--beta", beta,
                     "--out", str(rec)]) == 0
        data = json.loads(rec.read_text())
        data["A"] *= 50.0
        data["D"] *= 50.0
        rec.write_text(json.dumps(data))
        proc = subprocess.run(
            [sys.executable, "-m", "ambec.cli", "evolve", "--solution",
             str(rec), "--grid-n", "256", "--t", "1", "--dt", "1e-2",
             "--out", str(tmp_path / "ev.csv")],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4
        assert proc.stderr == (f"error: non-finite field values at step "
                               f"{step} (t = {t})\n")

    def test_kinetic_wrap_exit(self, rec_path, tmp_path):
        rc = main(["evolve", "--solution", str(rec_path), "--t", "1",
                   "--dt", "0.05", "--grid-n", "4096",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3

    def test_step_count_overflow(self, rec_path, monkeypatch, capsys):
        # T/|dt| is inf (no integer step count), or finite but above the
        # cap; either must stop before the first step, not run for ever
        def never(*args):
            raise AssertionError("evolve started")

        monkeypatch.chdir(rec_path.parent)
        monkeypatch.setattr(cli.dynamics, "evolve", never)
        for t, dt in (("1e300", "1e-300"), ("1e10", "1e-10")):
            rc = main(["evolve", "--solution", "rec.json", "--grid-n", "64",
                       "--t", t, "--dt", dt])
            _assert_one_error_line(rc, capsys.readouterr().err)


#: a value for one of evolve's float flags: finite extremes, +-0,
#: subnormals, nan and +-inf
EVOLVE_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-3,
     0.5, 1.0, 1e300, 1.7976931348623157e308, -1e-3, -1.0,
     -1.7976931348623157e308, math.nan, math.inf, -math.inf])


def _at_most_100_steps(t, dt):
    """t, or 100 |dt| where t/|dt| is a finite step count above 100."""
    with contextlib.suppress(ZeroDivisionError):
        if 100.0 < t / abs(dt) < math.inf:
            return 100.0 * abs(dt)
    return t


class TestEvolveFloatFuzz:
    """Any value of evolve's float flags: an exit code, at most one
    `error:` line, no traceback and no warning."""

    # --grid-n 64 and at most 100 steps keep every draw small; a quotient
    # t/|dt| that overflows still gets through
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(t=EVOLVE_FLOATS, dt=EVOLVE_FLOATS,
           tol_drift=st.none() | EVOLVE_FLOATS,
           grid_l=st.none() | EVOLVE_FLOATS)
    @example(t=1e300, dt=1e-300, tol_drift=None, grid_l=None)
    @example(t=1.7976931348623157e308, dt=-5e-324, tol_drift=1e-3,
             grid_l=40.0)
    def test_exit_code_and_one_error_line(self, readme_records, t, dt,
                                          tol_drift, grid_l):
        tmp, _ = readme_records
        argv = ["evolve", "--solution", str(tmp / "I.json"),
                "--grid-n", "64", "--out", str(tmp / "ev.csv"),
                f"--t={_at_most_100_steps(t, dt)}", f"--dt={dt}"]
        for flag, value in (("--tol-drift", tol_drift),
                            ("--grid-l", grid_l)):
            if value is not None:
                argv.append(f"{flag}={value}")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            rc = main(argv)
        lines = err.getvalue().splitlines()
        assert rc in (0, 2, 3, 4)
        if rc:
            assert lines and lines[-1].startswith("error: ")
            lines = lines[:-1]
        assert all(line.startswith("warning: ") for line in lines), lines
        assert [str(w.message) for w in caught] == []


class TestWigner:
    def test_inline_cat(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(["wigner", "--beta", "1", "--delta", "3",
                   "--kind", "bright_even", "--grid-n", "128",
                   "--out", str(out)])
        assert rc == 0
        data = read_csv(str(out))
        assert data.header == ["x", "p", "W"]
        assert len(data.rows) == 128 * 128
        assert f"convention: {CONVENTION}" in data.comments
        metrics = json.loads((tmp_path / "w.metrics.json").read_text())
        assert metrics["convention"] == CONVENTION
        assert metrics["w00"] > 0
        assert metrics["fringe_spacing"] == pytest.approx(math.pi / 3, rel=0.1)

    def test_solution_molecular_component(self, rec_path, tmp_path):
        out = tmp_path / "wm.csv"
        rc = main(["wigner", "--solution", str(rec_path),
                   "--component", "molecular", "--grid-n", "256",
                   "--out", str(out)])
        assert rc == 0
        metrics = json.loads((tmp_path / "wm.metrics.json").read_text())
        assert metrics["ratio"] > 0

    @pytest.mark.parametrize("argv", [
        ["--beta", "0", "--delta", "0", "--kind", "kink_pair"],
        ["--beta=-1", "--delta", "1", "--kind", "bright_odd",
         "--grid-l", "40"],
        ["--beta", "1e-300", "--delta", "0", "--kind", "bright_even"],
        ["--beta", "1e-300", "--delta", "710", "--kind", "kink_pair"],
        ["--beta", "1", "--delta", "1e300", "--kind", "bright_even",
         "--grid-l", "1e-300"],
        ["--beta", "1e300", "--delta", "0", "--kind", "kink_pair",
         "--grid-l", "1e300"],
        ["--beta", "1", "--delta", "1", "--kind", "bright_even",
         "--grid-l", "1e308"],
    ], ids=["beta-zero", "beta-negative", "var-p-zero", "sinh-overflow",
            "cosh-overflow", "beta-x-overflow", "grid-width-overflow"])
    def test_degenerate_inline_input(self, argv, tmp_path, capsys):
        rc = main(["wigner", *argv, "--grid-n", "64",
                   "--out", str(tmp_path / "w.csv")])
        _assert_one_error_line(rc, capsys.readouterr().err)

    def test_odd_grid_needs_p_count(self, tmp_path, capsys):
        argv = ["wigner", "--beta", "1", "--delta", "3", "--kind",
                "bright_odd", "--grid-n", "301",
                "--out", str(tmp_path / "w.csv")]
        rc = main(argv)
        err = capsys.readouterr().err
        _assert_one_error_line(rc, err)
        assert "defaults to --grid-n" in err
        assert main([*argv, "--p-count", "300"]) == 0

    def test_norm_overflow(self, tmp_path, capsys):
        # a grid this wide keeps every W finite but overflows their sum
        rec = tmp_path / "rec.json"
        assert main(["solve", "--family", "I", *FIG1, "--beta", "2",
                     "--out", str(rec)]) == 0
        capsys.readouterr()
        rc = main(["wigner", "--solution", str(rec), "--grid-n", "64",
                   "--grid-l", "1e307", "--out", str(tmp_path / "w.csv")])
        err = capsys.readouterr().err
        _assert_one_error_line(rc, err)
        assert err.startswith("error: Wigner norm overflows")

    @pytest.mark.parametrize("kind", SUPERPOSED_KINDS)
    def test_negative_delta_writes_the_positive_delta_bytes(
            self, kind, tmp_path, monkeypatch):
        # every kind is even in delta, so the default window is too; each
        # run writes w.csv in its own directory, since the lattice's
        # comment names its manifest by the path given
        written = []
        for name, delta in (("plus", "6.219"), ("minus", "-6.219")):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert main(["wigner", "--beta", "1", f"--delta={delta}",
                         "--kind", kind, "--out", "w.csv"]) == 0
            written.append((pathlib.Path("w.csv").read_bytes(),
                            pathlib.Path("w.metrics.json").read_bytes()))
        assert written[0] == written[1]

    def test_source_flags_are_exclusive(self, rec_path, tmp_path):
        rc = main(["wigner", "--solution", str(rec_path), "--beta", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        rc = main(["wigner", "--beta", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 3


#: a value for one of wigner's inline float flags, or the flag left out
INLINE_FLOATS = st.none() | st.floats() | st.sampled_from(
    [0.0, -0.0, 1e-300, 5e-324, 1e-10, 1.0, 6.219, 710.0, 1e300, 1e308,
     -1.0])


@pytest.fixture(scope="module")
def fuzz_out(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "w.csv"


class TestWignerInlineFuzz:
    # --grid-n 64 and --p-count <= 256 keep every draw a small lattice
    @settings(derandomize=True, deadline=None)
    @given(beta=INLINE_FLOATS, delta=INLINE_FLOATS, grid_l=INLINE_FLOATS,
           kind=st.none() | st.sampled_from(SUPERPOSED_KINDS),
           p_count=st.none() | st.integers(0, 256))
    def test_exit_code_and_one_error_line(self, fuzz_out, beta, delta,
                                          grid_l, kind, p_count):
        argv = ["wigner", "--grid-n", "64", "--out", str(fuzz_out)]
        for flag, value in (("--beta", beta), ("--delta", delta),
                            ("--grid-l", grid_l), ("--kind", kind),
                            ("--p-count", p_count)):
            if value is not None:
                argv.append(f"{flag}={value}")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            rc = main(argv)
        err = err.getvalue()
        assert rc in (0, 2, 3, 4)
        assert "Traceback" not in err
        if rc:
            assert err.count("error:") == 1 and err.startswith("error: ")
        assert [str(w.message) for w in caught] == []


#: the README family I, II and III solves
README_SOLVES = {
    "I": ["--family", "I", *FIG1, "--beta", "1"],
    "II": CAT2_SEEDED,
    "III": ["--family", "III", *CAT3, "--scan"],
}

#: a finite float or small int for one field of a record
FIELD_NUMBERS = st.integers(-3, 3) | st.sampled_from(
    [1e300, -1e300, 1e-300, -1e-300, 0.0, -0.0, 5e-324, -5e-324,
     2.2250738585072014e-308, -2.2250738585072014e-308]) | st.floats(
    allow_nan=False, allow_infinity=False)

#: any JSON value: text, lists, bools, null, nested objects, numbers
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def readme_records(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("records")
    records = {}
    for family, flags in README_SOLVES.items():
        out = tmp / f"{family}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["solve", *flags, "--out", str(out)]) == 0
        records[family] = json.loads(out.read_text())
    return tmp, records


class TestSolutionFuzz:
    """Any JSON in a --solution record's fields, for every command that
    reads one: an exit code, at most one `error:` line, no traceback."""

    # --grid-n 64 and ten evolve steps keep every draw small
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(command=st.sampled_from(["profile", "potential", "residual",
                                    "evolve", "wigner"]),
           family=st.sampled_from(sorted(README_SOLVES)),
           edits=st.dictionaries(st.sampled_from(RECORD_KEYS),
                                 FIELD_NUMBERS | JSON_VALUES,
                                 min_size=1, max_size=3),
           grid_l=st.none() | INLINE_FLOATS)
    def test_exit_code_and_one_error_line(self, readme_records, command,
                                          family, edits, grid_l):
        tmp, records = readme_records
        solution = tmp / "fuzz.json"
        solution.write_text(json.dumps({**records[family], **edits}))
        argv = [command, "--solution", str(solution), "--grid-n", "64",
                "--out", str(tmp / "fuzz.csv")]
        if command == "evolve":
            argv += ["--t", "0.01", "--dt", "1e-3"]
        if grid_l is not None:
            argv.append(f"--grid-l={grid_l}")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            rc = main(argv)
        lines = err.getvalue().splitlines()
        assert rc in (0, 2, 3, 4)
        if rc:
            assert lines and lines[-1].startswith("error: ")
            lines = lines[:-1]
        assert all(line.startswith("warning: ") for line in lines), lines
        assert [str(w.message) for w in caught] == []


#: invocations by name, with the float flags of each to fuzz; SOLUTION
#: stands for a README record.  --grid-n 64, --count 3 and --scan-n 8 keep
#: every draw small
FLOAT_FUZZ_RUNS = {
    "profile": (["profile", "--solution", "SOLUTION", "--grid-n", "64"],
                ["--grid-l", "--t"]),
    "potential": (["potential", "--solution", "SOLUTION", "--grid-n", "64"],
                  ["--grid-l"]),
    "residual": (["residual", "--solution", "SOLUTION", "--grid-n", "64"],
                 ["--grid-l"]),
    "wigner": (["wigner", "--solution", "SOLUTION", "--grid-n", "64"],
               ["--grid-l"]),
    "scan": (["scan", *FIG1, "--mu-min", "-8", "--mu-max", "-1",
              "--count", "3", "--grid-n", "64"],
             ["--g-a", "--g-am", "--alpha", "--tol", "--mu", "--mu-min",
              "--mu-max"]),
    "solve-I": (["solve", *README_SOLVES["I"]],
                ["--g-a", "--g-am", "--alpha", "--beta", "--tol"]),
    "solve-II": (["solve", *README_SOLVES["II"]],
                 ["--g-a", "--g-m", "--g-am", "--alpha", "--seed-mu",
                  "--seed-epsilon", "--tol"]),
    "solve-III-scan": (["solve", *README_SOLVES["III"], "--scan-n", "8"],
                       ["--g-a", "--g-m", "--g-am", "--alpha", "--tol"]),
}


class TestFloatFlagFuzz:
    """Any value of the float flags of the commands besides evolve and
    inline wigner: an exit code, at most one `error:` line, no traceback
    and no warning."""

    @pytest.mark.parametrize("name", list(FLOAT_FUZZ_RUNS))
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(data=st.data(), family=st.sampled_from(sorted(README_SOLVES)))
    def test_exit_code_and_one_error_line(self, readme_records, name, data,
                                          family):
        tmp, _ = readme_records
        base, flags = FLOAT_FUZZ_RUNS[name]
        values = data.draw(st.fixed_dictionaries(
            {flag: st.none() | EVOLVE_FLOATS for flag in flags}))
        argv = [str(tmp / f"{family}.json") if a == "SOLUTION" else a
                for a in base]
        for flag, value in values.items():
            if value is not None:
                argv = _set_flag(argv, flag, value)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            rc = main([*argv, "--out", str(tmp / "fuzz.out")])
        lines = err.getvalue().splitlines()
        assert rc in (0, 2, 3, 4)
        if rc:
            assert lines and lines[-1].startswith("error: ")
            lines = lines[:-1]
        assert all(line.startswith("warning: ") for line in lines), lines
        assert [str(w.message) for w in caught] == []


class TestOutOfMemory:
    """A size whose first array needs more than 2^47 bytes, beyond what a
    process can address, fails at once: exit 3 and one `error:` line."""

    @pytest.mark.parametrize("argv", [
        ["scan", *FIG1, "--mu-min", "-8", "--mu-max", "-1",
         "--count", "1000000000000000"],
        ["solve", *README_SOLVES["III"], "--scan-n", "1000000000000000"],
        ["profile", "--solution", "SOLUTION", "--grid-n", "1000000000000000"],
    ], ids=["scan", "solve-scan", "profile"])
    def test_huge_size_is_configuration_error(self, argv, rec_path, tmp_path,
                                              capsys):
        argv = [str(rec_path) if a == "SOLUTION" else a for a in argv]
        rc = main([*argv, "--out", str(tmp_path / "x.out")])
        err = capsys.readouterr().err
        _assert_one_error_line(rc, err)
        assert err.startswith("error: out of memory: ")


def _family_I_solves(g_a, g_am, alpha, mu):
    """Whether solve_family_I returns a record at the beta scan uses for mu."""
    try:
        solve_family_I(g_a, g_am, alpha, math.sqrt(-mu / 2.0))
    except (NoDropletError, OutOfScopeRegimeError):
        return False
    return True


def _couplings(g_a, g_am, alpha):
    return [f"--g-a={g_a!r}", f"--g-am={g_am!r}", f"--alpha={alpha!r}"]


@pytest.fixture(scope="module")
def scan_out(tmp_path_factory):
    return tmp_path_factory.mktemp("scan") / "scan.csv"


class TestScan:
    def test_python_float_overflow(self, tmp_path, capsys):
        # alpha * alpha overflows to inf, which the family I solve rejects
        rc = main(["scan", "--g-a", "3", "--g-am", "-2.8",
                   "--alpha", "1.3407807929942597e+154", "--mu", "-1",
                   "--out", str(tmp_path / "scan.csv")])
        _assert_one_error_line(rc, capsys.readouterr().err)

    def test_floating_point_error_in_a_row(self, tmp_path, capsys):
        # beta = 7e-146: the row's flatness fit overflows in a power
        rc = main(["scan", *FIG1, "--mu=-1e-290",
                   "--out", str(tmp_path / "scan.csv")])
        err = capsys.readouterr().err
        _assert_one_error_line(rc, err)
        assert err == "error: floating-point overflow encountered in power\n"

    @pytest.mark.parametrize("flags, flag", [
        (["--mu-min", "-8", "--mu-max", "-1"], "--mu-min"),
        (["--mu-max", "-1"], "--mu-max"),
    ], ids=["mu-range", "mu-max"])
    def test_single_point_rejects_range_flags(self, flags, flag, tmp_path,
                                              capsys):
        out = tmp_path / "scan.csv"
        rc = main(["scan", *FIG1, "--mu", "-1", *flags, "--count", "5",
                   "--out", str(out)])
        err = capsys.readouterr().err
        _assert_one_error_line(rc, err)
        assert f"does not read {flag}" in err
        assert not out.exists()

    def test_single_point(self, tmp_path):
        out = tmp_path / "scan.csv"
        mu = -40.0 / 9.0
        rc = main(["scan", *FIG1, "--mu", f"{mu!r}", "--grid-n", "1024",
                   "--out", str(out)])
        assert rc == 0
        data = read_csv(str(out))
        assert data.header == ["mu", "peak_density", "half_width_99",
                               "flatness", "B", "A", "status"]
        (row,) = data.rows
        assert row[-1] == "ok"
        assert row[1] > 0 and row[2] > 0

    def test_row_whose_grid_tails_underflow(self, tmp_path):
        # beta = 18.7 on a grid of half-width 20: the molecular profile
        # underflows at the edges, but the fit reads only |x| < 1/beta
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--g-a", "0", "--g-am", "0.01", "--alpha", "4",
                   "--mu", "-700", "--out", str(out)])
        assert rc == 0
        (row,) = read_csv(str(out)).rows
        assert row[-1] == "ok" and math.isfinite(row[3])

    @pytest.mark.parametrize("mu, grid_n", [("-2000", "2048"), ("-5000", "9")],
                             ids=["three-points", "empty-window"])
    def test_fit_window_needs_five_points(self, mu, grid_n, tmp_path,
                                          capsys):
        argv = ["scan", "--g-a", "0", "--g-am", "0.001", "--alpha", "4",
                "--mu", mu, "--out", str(tmp_path / "scan.csv")]
        rc = main([*argv, "--grid-n", grid_n])
        err = capsys.readouterr().err
        _assert_one_error_line(rc, err)
        assert "refine the grid" in err
        if grid_n == "2048":
            assert main([*argv, "--grid-n", "8192"]) == 0

    def test_out_of_window_rows(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(["scan", *FIG1, "--mu-min", "1", "--mu-max", "2",
                   "--count", "3", "--out", str(out)])
        assert rc == 0
        data = read_csv(str(out))
        assert len(data.rows) == 3
        for row in data.rows:
            assert row[-1] == "unattainable"
            assert math.isnan(row[1])

    @pytest.mark.parametrize("couplings", [(3.0, -2.8, 2.0), (5.0, -4.9, 0.3)],
                             ids=["readme", "31-ulp-band"])
    def test_rows_just_above_mu_critical(self, couplings, scan_out):
        # solve_family_I refuses mu a few ulps above mu_critical; each row
        # takes its status from the solver, and the scan still exits 0
        mu = mu_critical(CouplingParams(couplings[0], None, *couplings[1:]))
        statuses = []
        for _ in range(40):
            mu = math.nextafter(mu, 0.0)
            assert main(["scan", *_couplings(*couplings), f"--mu={mu!r}",
                         "--grid-n", "256", "--out", str(scan_out)]) == 0
            (row,) = read_csv(str(scan_out)).rows
            statuses.append(row[-1])
            assert (row[-1] == "ok") == _family_I_solves(*couplings, mu)
        assert statuses[0] == "unattainable" and statuses[-1] == "ok"

    def test_mu_at_the_solvers_beta_max(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(["scan", *FIG1, "--mu=-8.888888888888879",
                   "--out", str(out)])
        assert rc == 0
        (row,) = read_csv(str(out)).rows
        assert row[-1] == "unattainable"
        rc = main(["scan", *FIG1, "--mu-min=-8.888888888888879",
                   "--mu-max", "-1", "--count", "20", "--out", str(out)])
        assert rc == 0
        statuses = [row[-1] for row in read_csv(str(out)).rows]
        assert statuses == ["unattainable"] + ["ok"] * 19

    @pytest.mark.parametrize("flags, rc, message", [
        (["--g-a", "3", "--g-am", "-2.8", "--alpha", "0", "--mu", "-1"], 3,
         "family I needs alpha != 0"),
        (["--g-a", "3", "--g-am", "-3", "--alpha", "2", "--mu", "-1"], 3,
         "g_a + g_am = 0 makes the critical chemical potential singular"),
        (["--g-a", "3", "--g-am", "-3", "--alpha", "2", "--mu-min", "0",
          "--mu-max", "1", "--count", "3"], 0, None),
        (["--g-a", "1", "--g-am", "-2", "--alpha", "2", "--mu", "-2"], 0,
         None),
        (["--g-a", "3", "--g-am", "-2.8", "--alpha=1.3407807929942597e+154",
          "--mu", "1"], 0, None),
        (["--g-a", "3", "--g-am", "-2.8", "--alpha", "2", "--mu=-1e308"], 3,
         "is too large: 9 beta^2 overflows"),
        ([*FIG1, "--mu-min", "-8", "--mu-max", "-1", "--count", "0"], 3,
         "--count must be >= 1"),
    ], ids=["alpha-zero", "singular-sum", "singular-sum-mu-nonnegative",
            "negative-sum", "alpha-overflow-mu-positive", "beta-overflow",
            "count-zero"])
    def test_the_family_I_solver_decides(self, flags, rc, message, tmp_path,
                                         capsys):
        # rows at mu >= 0 solve nothing; a row at mu < 0 exits as
        # `solve --family I` does at its beta, unless it is out of the window;
        # a sweep with no rows exits before any solve
        out = tmp_path / "scan.csv"
        assert main(["scan", *flags, "--out", str(out)]) == rc
        err = capsys.readouterr().err
        if rc:
            _assert_one_error_line(rc, err)
            assert message in err
            assert not out.exists()
        else:
            assert {row[-1] for row in read_csv(str(out)).rows} == {
                "unattainable"}

    # g_a + g_am > 0 and alpha != 0, so a family I droplet window exists;
    # |mu0| <= 40.  Rows below about mu = -600 exit 3 on the default grid,
    # whose half-width stops shrinking at 20 while the profile underflows
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(total=st.floats(0.1, 10.0), g_a=st.floats(-10.0, 10.0),
           alpha=st.floats(0.05, 3.0), sign=st.sampled_from([1.0, -1.0]))
    def test_status_is_the_solvers_verdict(self, scan_out, total, g_a, alpha,
                                           sign):
        couplings = (g_a, total - g_a, sign * alpha)
        mu0 = mu_critical(CouplingParams(couplings[0], None, *couplings[1:]))
        for lo, hi, count in ((mu0 * (1 + 1e-14), mu0 * (1 - 1e-14), 5),
                              (0.9 * mu0, 0.1 * mu0, 3)):
            assert main(["scan", *_couplings(*couplings), f"--mu-min={lo!r}",
                         f"--mu-max={hi!r}", f"--count={count}",
                         "--out", str(scan_out)]) == 0
            statuses = [row[-1] for row in read_csv(str(scan_out)).rows]
            assert statuses == [
                "ok" if _family_I_solves(*couplings, mu) else "unattainable"
                for mu in np.linspace(lo, hi, count)]
        assert statuses == ["ok"] * 3


#: one valid argv per mode of `solve`, `scan` and `wigner`, with only the
#: flags the mode needs; SOLUTION stands for a family I record
MODE_ARGVS = {
    "family I": ["solve", "--family", "I", *FIG1, "--beta", "1"],
    "a family II/III solve without --scan": ["solve", *CAT2_SEEDED],
    "a --scan solve": ["solve", "--family", "II", *CAT2, "--scan"],
    "a scan at one --mu": ["scan", *FIG1, "--mu", "-1", "--grid-n", "256"],
    "a --mu-min/--mu-max scan": ["scan", *FIG1, "--mu-min", "-8",
                                 "--mu-max", "-1", "--grid-n", "256"],
    "a --solution transform": ["wigner", "--solution", "SOLUTION",
                               "--grid-n", "64"],
    "a transform without --solution": ["wigner", "--beta", "1", "--delta",
                                       "3", "--kind", "bright_even",
                                       "--grid-n", "64"],
}

#: the words that follow each flag the modes name
MODE_FLAG_VALUES = {
    "--beta": ["1"], "--g-m": ["1"], "--seed-mu": ["-0.1"],
    "--seed-epsilon": ["-0.44"], "--scan": [], "--mu-range": ["-1", "-0.5"],
    "--eps-range": ["-1", "-0.5"], "--scan-n": ["8"], "--mu": ["-1"],
    "--mu-min": ["-8"], "--mu-max": ["-1"], "--count": ["3"],
    "--solution": ["SOLUTION"], "--component": ["molecular"],
    "--delta": ["3"], "--kind": ["bright_even"],
}


def _flag(name):
    return "--" + name.replace("_", "-")


def _mode_flags(mode):
    needs, takes = cli._MODES[mode]
    return [_flag(name) for name in (*needs, *takes)]


def _foreign_flags(mode):
    """The flags only the other modes of `mode`'s command read."""
    command = MODE_ARGVS[mode][0]
    return [flag for other, argv in MODE_ARGVS.items()
            if other != mode and argv[0] == command
            for flag in _mode_flags(other) if flag not in _mode_flags(mode)]


class TestModeFlags:
    """One rule for solve, scan and wigner: a set flag the mode does not
    read, or an unset flag it needs, exits 3 with one `error:` line."""

    @pytest.mark.parametrize("argv, flag", [
        (["wigner", "--beta", "1", "--delta", "6.219", "--kind",
          "bright_even", "--component", "molecular", "--grid-n", "64"],
         "--component"),
        (["scan", *FIG1, "--mu", "-1", "--count", "5"], "--count"),
        (["solve", *CAT2_SEEDED, "--scan-n", "50"], "--scan-n"),
        (["solve", "--family", "I", *FIG1, "--beta", "1", "--scan-n", "50"],
         "--scan-n"),
    ], ids=["wigner-inline-component", "scan-mu-count", "solve-II-scan-n",
            "solve-I-scan-n"])
    def test_flag_with_a_default_is_not_ignored(self, argv, flag, tmp_path,
                                                capsys):
        out = tmp_path / "x.out"
        rc = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        _assert_one_error_line(rc, err)
        assert f"does not read {flag}" in err
        assert not out.exists()

    def test_every_mode_has_an_argv(self):
        assert set(MODE_ARGVS) == set(cli._MODES)
        assert set(MODE_FLAG_VALUES) == {
            flag for mode in cli._MODES for flag in _mode_flags(mode)}

    @pytest.mark.parametrize("mode", list(MODE_ARGVS))
    def test_table(self, mode, rec_path, tmp_path, capsys):
        out = str(tmp_path / "x.out")
        argv = [str(rec_path) if a == "SOLUTION" else a
                for a in MODE_ARGVS[mode]]
        assert main([*argv, "--out", out]) == 0
        needs, _ = cli._MODES[mode]
        for flag in _foreign_flags(mode):
            words = [str(rec_path) if a == "SOLUTION" else a
                     for a in MODE_FLAG_VALUES[flag]]
            capsys.readouterr()
            rc = main([*argv, flag, *words, "--out", out])
            err = capsys.readouterr().err
            _assert_one_error_line(rc, err)
            assert "does not read" in err, (flag, err)
        for flag in map(_flag, needs):
            i = argv.index(flag)
            dropped = argv[:i] + argv[i + 1 + len(MODE_FLAG_VALUES[flag]):]
            capsys.readouterr()
            rc = main([*dropped, "--out", out])
            err = capsys.readouterr().err
            _assert_one_error_line(rc, err)
            assert "needs" in err, (flag, err)

    @pytest.mark.parametrize("mode", list(MODE_ARGVS))
    def test_absent_flags_parse_unset(self, mode):
        # the rule tells a flag set from unset by None and False alone, so
        # no flag the table names may have another default
        argv = MODE_ARGVS[mode]
        args = vars(build_parser().parse_args(argv))
        for flag in MODE_FLAG_VALUES:
            name = flag[2:].replace("-", "_")
            if name in args and flag not in argv:
                assert args[name] is (False if flag == "--scan" else None), flag


class TestDeterminism:
    def test_identical_command_identical_bytes(self, rec_path, tmp_path):
        out = tmp_path / "prof.csv"
        argv = ["profile", "--solution", str(rec_path), "--grid-l", "25",
                "--grid-n", "200", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first


class TestManifestPlumbing:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [(0.1, 2, "ok"), (float("nan"), -3, "bad")]
        write_csv(str(path), ["a", "b", "c"], rows, "man.json",
                  comments=["note: frozen"])
        data = read_csv(str(path))
        assert data.comments == ["note: frozen"]
        assert data.header == ["a", "b", "c"]
        assert data.rows[0] == [0.1, 2.0, "ok"]
        assert math.isnan(data.rows[1][0]) and data.rows[1][2] == "bad"
        assert data.manifest == "man.json"

    def test_manifest_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        man = RunManifest("solve", {"beta": 2.0}, inputs=["a"],
                          outputs=["b"], duration_s=0.25)
        man.write(str(path))
        back = RunManifest.read(str(path))
        assert back == man


class TestParserOnce:
    def test_runs_in_one_process_share_no_state(self, tmp_path):
        cli._parser.cache_clear()
        inline = ["wigner", "--beta", "1", "--delta", "3",
                  "--kind", "bright_even"]
        assert main([*inline, "--grid-n", "63", "--p-count", "300",
                     "--out", str(tmp_path / "a.csv")]) == 0
        assert main([*inline, "--grid-n", "64",
                     "--out", str(tmp_path / "b.csv")]) == 0
        assert cli._parser.cache_info().misses == 1
        first = RunManifest.read(str(tmp_path / "a.manifest.json"))
        second = RunManifest.read(str(tmp_path / "b.manifest.json"))
        assert first.parameters["p_count"] == 300
        assert second.parameters["p_count"] is None
        assert second.parameters["grid_n"] == 64
        assert len(read_csv(str(tmp_path / "b.csv")).rows) == 64 * 64
        argv = [*inline, "--grid-n", "64"]
        assert cli._parser().parse_args(argv) is not cli._parser().parse_args(
            argv)

    def test_build_parser_is_fresh(self):
        assert build_parser() is not build_parser()


#: one small invocation per command; SOLUTION stands for a family I record
SMALL_RUNS = {
    "solve": ["solve", "--family", "I", *FIG1, "--beta", "1"],
    "solve-II-seeded": ["solve", *CAT2_SEEDED],
    "solve-III-scan": ["solve", "--family", "III", *CAT3, "--scan"],
    "profile": ["profile", "--solution", "SOLUTION", "--grid-n", "64"],
    "potential": ["potential", "--solution", "SOLUTION", "--grid-n", "64"],
    "residual": ["residual", "--solution", "SOLUTION", "--grid-n", "64"],
    "evolve": ["evolve", "--solution", "SOLUTION", "--grid-n", "64",
               "--t", "0.01"],
    "wigner": ["wigner", "--solution", "SOLUTION", "--grid-n", "64"],
    "evolve-n101": ["evolve", "--solution", "SOLUTION", "--grid-n", "101",
                    "--t", "0.01"],
    "wigner-n100": ["wigner", "--solution", "SOLUTION", "--grid-n", "100"],
    "wigner-inline": ["wigner", "--beta", "1", "--delta", "3", "--kind",
                      "bright_even", "--grid-n", "64"],
    "scan": ["scan", *FIG1, "--mu-min", "-8", "--mu-max", "-1", "--count",
             "3", "--grid-n", "256"],
}


class TestManifests:
    @pytest.mark.parametrize("name", list(SMALL_RUNS))
    def test_manifest_of_each_command(self, name, rec_path, tmp_path):
        out = str(tmp_path / "out.dat")
        argv = [str(rec_path) if a == "SOLUTION" else a
                for a in SMALL_RUNS[name]] + ["--out", out]
        assert main(argv) == 0
        man = RunManifest.read(str(tmp_path / "out.manifest.json"))
        command = argv[0]
        flags = {k: v for k, v in vars(build_parser().parse_args(argv)).items()
                 if k not in ("func", "norm")}
        if command == "residual":
            flags["norm"] = ("relative inf-norm; outer 2.5% of grid points "
                             "per side excluded")
        assert man.command == command
        assert man.parameters == flags
        assert man.inputs == ([str(rec_path)] if "SOLUTION" in SMALL_RUNS[name]
                              else [])
        assert man.outputs == ([out, str(tmp_path / "out.metrics.json")]
                               if command == "wigner" else [out])
        # family II/III solves evaluate their conditions in the kernel
        kernel_ran = command in ("evolve", "wigner") or (
            command == "solve" and flags["family"] != "I")
        assert man.environment == ({"kernel_backend": kernel_backend()}
                                   if kernel_ran else {})
        assert man.version == TOOL_VERSION
        assert man.duration_s >= 0.0
        if command in ("solve", "scan"):
            assert man.parameters["tol"] == 1e-9


class TestEntryPoint:
    @pytest.mark.skipif(shutil.which("ambec") is None,
                        reason="console script not on PATH")
    def test_installed_script(self, tmp_path):
        out = tmp_path / "rec.json"
        proc = subprocess.run(
            ["ambec", "solve", "--family", "I", *FIG1, "--beta", "1",
             "--out", str(out)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "family I:" in proc.stdout
        rec = SolutionRecord.from_json(out.read_text())
        assert rec.mu == pytest.approx(-2.0, abs=1e-12)

    def test_module_invocation_matches(self, tmp_path):
        out = tmp_path / "rec.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ambec.cli", "solve", "--family", "I",
             *FIG1, "--beta", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
