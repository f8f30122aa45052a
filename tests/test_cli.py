"""Command-line interface: exit codes, CSV/JSON outputs, determinism."""
import json
import math
import shutil
import subprocess
import sys

import pytest

from ambec.cli import main
from ambec.core import SolutionRecord
from ambec.manifest import RunManifest, read_csv, write_csv
from ambec.wigner import CONVENTION

FIG1 = ["--g-a", "3", "--g-am", "-2.8", "--alpha", "2"]
CAT2 = ["--g-a", "-5", "--g-m", "1", "--g-am", "-1.1", "--alpha", "1"]

#: invocations by name, with the float flags of each that must be finite;
#: SOLUTION stands for the path of a family I record
NUMERIC_FLAGS = {
    "I": (["solve", "--family", "I", *FIG1, "--beta", "1"],
          ["--g-a", "--g-am", "--alpha", "--beta", "--tol"]),
    "II-seed": (["solve", "--family", "II", *CAT2, "--seed-mu", "-0.1",
                 "--seed-epsilon", "-0.44"],
                ["--g-a", "--g-m", "--g-am", "--alpha", "--seed-mu",
                 "--seed-epsilon", "--tol"]),
    "II-scan": (["solve", "--family", "II", *CAT2, "--scan"],
                ["--g-m", "--tol"]),
    "evolve": (["evolve", "--solution", "SOLUTION", "--grid-n", "64",
                "--t", "0.01"],
               ["--grid-l", "--t", "--dt", "--tol-drift"]),
    "scan": (["scan", *FIG1, "--mu-min", "-8", "--mu-max", "-1",
              "--count", "3", "--grid-n", "64"],
             ["--g-a", "--g-am", "--alpha", "--mu", "--mu-min", "--mu-max",
              "--tol"]),
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

    def test_scan_solve_empty_window(self, tmp_path):
        rc = main(["solve", "--family", "II", *CAT2, "--scan",
                   "--mu-range", "-9", "-8", "--eps-range", "-9", "-8",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

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

    def test_out_of_scope_root(self, tmp_path):
        rc = main(["solve", "--family", "II", *CAT2,
                   "--seed-mu", "-1", "--seed-epsilon", "-5",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2


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


class TestBadFiles:
    @pytest.mark.parametrize("argv", [
        ["solve", "--family", "I", *FIG1, "--beta", "1"],
        ["profile", "--solution", "{rec}"],
        ["wigner", "--solution", "{rec}", "--grid-n", "64"],
    ], ids=["solve", "profile", "wigner"])
    def test_out_in_missing_directory(self, argv, rec_path, tmp_path, capsys):
        out = tmp_path / "nodir" / "out.csv"
        argv = [a.format(rec=rec_path) for a in argv]
        rc = main([*argv, "--out", str(out)])
        _assert_one_error_line(rc, capsys.readouterr().err)
        assert not out.parent.exists()

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


class TestEvolve:
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

    def test_source_flags_are_exclusive(self, rec_path, tmp_path):
        rc = main(["wigner", "--solution", str(rec_path), "--beta", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        rc = main(["wigner", "--beta", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 3


class TestScan:
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
