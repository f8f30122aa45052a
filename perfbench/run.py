"""End-to-end benchmark of the ambec CLI, with a traced per-layer split.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 12 --trace 0

It imports ambec from the checkout's `src/` and drives `ambec.cli.main(argv)`
in-process: a closed loop with one client, one process and one thread. Each
op's wall time is measured around that call; its outputs are checked after
it (see workloads.py). The run goes on in whole rounds until `--seconds`
have passed and, with `--trace 0`, at least MIN_OPS ops are done.

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it runs
every op twice, untraced and then traced (tracing.py), and reports the
per-layer metrics per round, the tracing overhead, and a per-span report.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Set-up is timed as importing ambec, making the input files and one untimed
warm-up op; with `--trace 0` it is done in this process and in SETUP_PROBES
fresh interpreters, and `setup_s` is the median.
"""
import os

# one thread for BLAS/OpenMP before numpy is first imported: `solve` runs
# np.linalg.lstsq/solve, and the benchmark measures one client on one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# the solvers' default tolerance must not come from the caller's environment
os.environ.pop("AMBEC_TOL", None)

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import pathlib
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: the tail percentile needs at least ten samples beyond it
MIN_OPS = 11
#: fresh interpreters that repeat the set-up, besides this process
SETUP_PROBES = 4


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, bad set-up)."""


def _digest(paths):
    out = []
    for path in paths:
        with open(path, "rb") as f:
            out.append(hashlib.sha256(f.read()).hexdigest())
    return tuple(out)


class Runner:
    """Calls ops, checks their outputs and counts failures."""

    def __init__(self, reference):
        self.reference = reference
        self.digests = {}
        self.attempted = 0
        self.failures = []

    def call(self, op):
        """Run one op; return its wall seconds (failures are recorded)."""
        main = importlib.import_module("ambec.cli").main
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = None
            elapsed = time.perf_counter() - start
        self.attempted += 1
        problem = self.check(op, code, err.getvalue())
        if problem:
            self.failures.append(problem)
        return elapsed

    def check(self, op, code, stderr):
        if "Traceback" in stderr:
            return f"{op.key}: traceback\n{stderr}"
        if code != 0:
            return f"{op.key}: exit {code}: {stderr.strip()}"
        try:
            if op.observe is not None:
                problem = workloads.compare(op.observe(op),
                                            self.reference.get(op.key), op.key)
                if problem:
                    return problem
            if op.gate is not None:
                problem = op.gate(op)
                if problem:
                    return problem
            digest = _digest(op.data)
        except Exception as exc:  # any unreadable output fails the op only
            return f"{op.key}: unreadable output: {exc!r}"
        if self.digests.setdefault(op.argv, digest) != digest:
            return f"{op.key}: data files differ from an earlier identical run"
        return None


def import_ambec():
    if not (SRC / "ambec" / "__init__.py").is_file():
        raise BenchError(f"no ambec package under {SRC}")
    sys.path.insert(0, str(SRC))
    ambec = importlib.import_module("ambec")
    importlib.import_module("ambec.cli")
    if pathlib.Path(ambec.__file__).resolve().parent != SRC / "ambec":
        raise BenchError(f"imported ambec from {ambec.__file__}, not {SRC}")
    return ambec


def set_up(workload, runner):
    """Import ambec, make the inputs and run the warm-up op; return seconds."""
    start = time.perf_counter()
    import_ambec()
    for op in workload.inputs:
        runner.call(op)
        if runner.failures:
            raise BenchError("set-up op failed: " + runner.failures[0])
    runner.call(workload.warmup)  # judged again each time the loop runs it
    return time.perf_counter() - start


def probe_set_up(args):
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment(args):
    ambec = sys.modules["ambec"]
    numpy = sys.modules["numpy"]
    return {"kernel_backend": ambec.kernel_backend(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny}


def backend_warning(env):
    """Warn when an earlier result of this workload used another kernel."""
    history = OUT / "results.jsonl"
    others = set()
    if history.exists():
        for line in history.read_text(encoding="utf-8").splitlines():
            old = json.loads(line)["environment"]
            if (old["workload"] == env["workload"]
                    and old["kernel_backend"] != env["kernel_backend"]):
                others.add(old["kernel_backend"])
    if others:
        return (f"warning: earlier {env['workload']} results in {history} used"
                f" kernel backend {sorted(others)}, this run uses "
                f"{env['kernel_backend']!r}; do not compare them")
    return None


def tail(latencies):
    """Value and percentile of the highest percentile with ten samples
    beyond it."""
    xs = sorted(latencies)
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def measure(args, workload, runner):
    """The timed loop with --trace 0; returns the end-to-end metrics."""
    rng = random.Random(args.seed)
    latencies, rounds = [], 0
    start = time.perf_counter()
    while (rounds == 0 or time.perf_counter() - start < args.seconds
           or len(latencies) < MIN_OPS):
        for op in workload.round(rng):
            latencies.append(runner.call(op))
        rounds += 1
    p_tail, pct = tail(latencies)
    n = len(latencies)
    failed = len(runner.failures)
    summary = (f"{args.workload}: {n} ops in {rounds} rounds; op_tail_ms is "
               f"p{pct:.1f} of n={n}; failed_share = {failed}/"
               f"{runner.attempted} = {failed / runner.attempted:g}")
    metrics = {
        "ops_per_s": (n / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * p_tail, "ms"),
        "ok_share": (1.0 - failed / runner.attempted, "ratio"),
    }
    return metrics, [summary]


def measure_traced(args, workload, runner):
    """Each op untraced then traced; returns per-layer metrics and report."""
    import tracing

    tracer = tracing.Tracer()
    rng = random.Random(args.seed)
    untraced = traced = 0.0
    rounds = ops = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        for op in workload.round(rng):
            untraced += runner.call(op)
            tracer.op = ops
            with tracer.installed():
                traced += runner.call(op)
            ops += 1
        rounds += 1
    metrics, lines = tracing.layer_metrics(tracer, args.workload, rounds,
                                           traced, untraced)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans_path, {"environment": environment(args),
                              "rounds": rounds, "ops": ops})
    lines.append(f"spans written to {spans_path}")
    return metrics, lines


def run(args):
    OUT.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.tiny)
    runner = Runner(workloads.load_reference()["tiny" if args.tiny
                                               else "full"])
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        setup_s = set_up(workload, runner)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return
        runner.attempted = 0
        runner.failures.clear()
        if args.trace:
            metrics, lines = measure_traced(args, workload, runner)
        else:
            probes = [setup_s] + [probe_set_up(args)
                                  for _ in range(SETUP_PROBES)]
            metrics, lines = measure(args, workload, runner)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["peak_rss_mb"] = (rss_mb, "MB")
            metrics["setup_s"] = (statistics.median(probes), "s")
            lines.append("setup_s probes: " + ", ".join(
                f"{p:.4f}" for p in probes))
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args)
    for problem in runner.failures[:5]:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    warning = backend_warning(env)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps({"environment": env, "result": result}) + "\n")
    for line in lines:
        print(line)
    if warning:
        print(warning)
    print("environment: " + json.dumps(env))
    print(json.dumps(result))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every op (smoke test)")
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up only and print it (set-up probes)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
