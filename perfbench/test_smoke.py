"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the root of the checkout: python3 -m pytest perfbench/test_smoke.py
"""
import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=cwd)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in listed})
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture
def runner(tmp_path, monkeypatch):
    run.import_ambec()
    monkeypatch.chdir(tmp_path)
    return run.Runner(workloads.load_reference()["tiny"])


def test_record_with_perturbed_B_is_a_failure(runner, monkeypatch):
    from ambec import consistency

    op = workloads.family_I_op(1.0)
    runner.call(op)
    assert runner.failures == []

    solve = consistency.solve_family_I

    def perturbed(*args, **kwargs):
        rec = solve(*args, **kwargs)
        return dataclasses.replace(rec, B=rec.B * (1.0 + 1e-6))

    monkeypatch.setattr(consistency, "solve_family_I", perturbed)
    runner.call(op)
    assert len(runner.failures) == 1
    assert "normalized residual" in runner.failures[0]


def test_changed_diagnostics_and_bytes_are_failures(runner):
    record = workloads.REFERENCE_RECORDS["I"]
    runner.call(workloads.solve_record_op("I", record))
    op = workloads.build("evolve", tiny=True).warmup
    runner.call(op)
    assert runner.failures == []

    path = pathlib.Path(op.data[0])
    text = path.read_text(encoding="utf-8")
    last = [line for line in text.splitlines() if not line.startswith("#")][-1]
    cells = last.split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-6))
    path.write_text(text.replace(last, ",".join(cells)), encoding="utf-8")
    assert "differs from reference" in runner.check(op, 0, "")

    path.write_text(text + "\n", encoding="utf-8")
    assert "earlier identical run" in runner.check(op, 0, "")


def test_exit_code_and_traceback_are_failures(runner):
    op = workloads.family_I_op(1.0)
    assert "exit 2" in runner.check(op, 2, "error: no root\n")
    assert "traceback" in runner.check(op, 0, "Traceback (most recent ...")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("solve", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
