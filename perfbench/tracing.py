"""Spans for the benchmark's traced run, and the per-layer metrics from them.

The tracer wraps public ambec names that callers look up at call time
(module attributes, and RunManifest.write on its class). Every binding of a
wrapped function in a loaded ambec module is replaced, so a name imported
into another module (cli.write_csv, dynamics.nonlinear_step) is traced too.
Each call records a span in memory: name, start, end, parent span, op id,
the exception type it raised (if any) and a note counting the work done at
that boundary. Nothing inside the program changes; the wrappers are removed
after each traced op.

A span is named `<module>.<public name>`; the module is the layer. A span's
self time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

from workloads import count_rows


def _evolve_steps(args, result):
    cfg = args[2]
    return round(cfg.T / abs(cfg.dt))


def _wigner_cells(args, result):
    return int(result.W.size)


def _csv_path(args, result):
    return str(args[0])


#: span name -> note taken when the call returns (None: no note)
TARGETS = {
    "cli.main": None,
    "_kernels.nonlinear_step": None,
    "dynamics.evolve": _evolve_steps,
    "dynamics.conserved_number": None,
    "dynamics.mean_field_energy": None,
    "ansatz.sample_fields": None,
    "ansatz.rational_profile": None,
    "ansatz.superposed_profile": None,
    "wigner.wigner_transform": _wigner_cells,
    "wigner.phase_space_metrics": None,
    "wigner.fringe_spacing": None,
    "manifest.write_csv": _csv_path,
    "manifest.RunManifest.write": None,
    "consistency.solve_from_scan": None,
    "consistency.grid_scan_seed": None,
    "consistency.solve_family_I": None,
    "consistency.solve_family_II": None,
    "consistency.solve_family_III": None,
    "potentials.flatness_metric": None,
    "potentials.self_consistent_potentials": None,
    "potentials.eigen_residuals": None,
}

LAYERS = ("_kernels", "dynamics", "ansatz", "wigner", "manifest",
          "consistency", "potentials", "cli")

#: the errors solve_from_scan catches and moves on from, one seed at a time
SEED_ERRORS = ("ConvergenceError", "OutOfScopeRootError",
               "InconsistentRootError", "SingularParameterError")

# span fields
NAME, START, END, PARENT, OP, ERROR, NOTE = range(7)


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._patches = []
        self._op_start = 0

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                span[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[END] = time.perf_counter()
            if note is not None:
                span[NOTE] = note(args, result)
            return result
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ambec" or n.startswith("ambec.")]
        for name, note in TARGETS.items():
            layer, _, attr = name.partition(".")
            owner = importlib.import_module("ambec." + layer)
            if "." in attr:                      # a method on a class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                places = [owner]
            else:
                places = modules
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, note)
            for place in places:
                for key, value in list(vars(place).items()):
                    if value is original:
                        self._patches.append((place, key, value))
                        setattr(place, key, wrapper)
        self._op_start = len(self.spans)

    def uninstall(self):
        for place, key, value in reversed(self._patches):
            setattr(place, key, value)
        self._patches.clear()
        # the files a write_csv span wrote still hold this op's bytes
        for span in self.spans[self._op_start:]:
            if span[NAME] == "manifest.write_csv" and span[ERROR] is None:
                path = span[NOTE]
                span[NOTE] = [count_rows(path), os.path.getsize(path)]

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def write(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            keys = ("name", "start", "end", "parent", "op", "error", "note")
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")

    def totals(self):
        """Per span name: calls, self seconds, errors by type, summed notes."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                   "errors": Counter(), "note": 0})
        for i, span in enumerate(self.spans):
            t = out[span[NAME]]
            t["calls"] += 1
            t["self_s"] += span[END] - span[START] - child[i]
            if span[ERROR]:
                t["errors"][span[ERROR]] += 1
            if isinstance(span[NOTE], int):
                t["note"] += span[NOTE]
        return out

    def seed_counts(self):
        """(tried, failures by type) over the Newton seeds of scan-solves."""
        tried, failures = 0, Counter()
        for span in self.spans:
            if (span[NAME] in ("consistency.solve_family_II",
                               "consistency.solve_family_III")
                    and span[PARENT] >= 0 and self.spans[span[PARENT]][NAME]
                    == "consistency.solve_from_scan"):
                tried += 1
                if span[ERROR]:
                    failures[span[ERROR]] += 1
        return tried, failures

    def csv_totals(self):
        rows = size = 0
        for span in self.spans:
            if (span[NAME] == "manifest.write_csv"
                    and isinstance(span[NOTE], list)):
                rows += span[NOTE][0]
                size += span[NOTE][1]
        return rows, size


def _metric_name(span_name):
    # metric names must start with a letter: the `_kernels` layer is `kernels`
    return span_name.lstrip("_")


def _div(a, b):
    return a / b if b else 0.0


#: (span name, fields) reported per span; calls and self_s are per round
SPAN_METRICS = (
    ("_kernels.nonlinear_step", ("calls", "self_s")),
    ("dynamics.evolve", ("calls", "self_s")),
    ("dynamics.conserved_number", ("calls", "self_s")),
    ("dynamics.mean_field_energy", ("calls", "self_s")),
    ("ansatz.sample_fields", ("calls", "self_s")),
    ("ansatz.rational_profile", ("calls", "self_s")),
    ("ansatz.superposed_profile", ("calls", "self_s")),
    ("wigner.wigner_transform", ("calls", "self_s")),
    ("wigner.phase_space_metrics", ("self_s",)),
    ("wigner.fringe_spacing", ("self_s",)),
    ("manifest.write_csv", ("calls", "self_s")),
    ("manifest.RunManifest.write", ("calls", "self_s")),
    ("consistency.solve_from_scan", ("calls", "self_s")),
    ("consistency.grid_scan_seed", ("calls", "self_s")),
    ("consistency.solve_family_I", ("calls", "self_s")),
    ("consistency.solve_family_II", ("calls", "self_s")),
    ("consistency.solve_family_III", ("calls", "self_s")),
    ("potentials.flatness_metric", ("self_s",)),
    ("potentials.self_consistent_potentials", ("self_s",)),
    ("potentials.eigen_residuals", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
)

UNITS = {"calls": "count", "self_s": "s"}


def layer_metrics(tracer: Tracer, workload: str, rounds: int,
                  traced_s: float, untraced_s: float):
    """Per-layer metrics, each per round of the workload, plus a report.

    Returns (metrics, report lines); metrics maps name -> (value, unit).
    Shares are of the traced wall time; ratios carry their bases in the
    report, which ends with the check of what the workload was chosen for.
    """
    tot = tracer.totals()
    m = {}
    for span, fields in SPAN_METRICS:
        for field in fields:
            m[f"{_metric_name(span)}.{field}"] = (
                tot[span][field] / rounds, UNITS[field])

    kernel = tot["_kernels.nonlinear_step"]
    evolve = tot["dynamics.evolve"]
    steps = evolve["note"]
    m["kernels.nonlinear_step.us_per_call"] = (
        1e6 * _div(kernel["self_s"], kernel["calls"]), "us")
    m["dynamics.steps"] = (steps / rounds, "count")
    m["dynamics.step_us"] = (1e6 * _div(evolve["self_s"], steps), "us")
    m["wigner.cells"] = (tot["wigner.wigner_transform"]["note"] / rounds,
                         "count")

    rows, size = tracer.csv_totals()
    csv_self = tot["manifest.write_csv"]["self_s"]
    m["manifest.write_csv.rows"] = (rows / rounds, "count")
    m["manifest.write_csv.bytes"] = (size / rounds, "bytes")
    m["manifest.write_csv.mb_per_s"] = (_div(size / 1e6, csv_self), "MB/s")

    tried, failures = tracer.seed_counts()
    ok = tried - sum(failures.values())
    m["consistency.seeds_tried"] = (tried / rounds, "count")
    for err in SEED_ERRORS:
        m[f"consistency.seed_failures.{err}"] = (failures[err] / rounds,
                                                 "count")
    m["consistency.seed_yield"] = (_div(ok, tried), "ratio")

    layer_self = Counter()
    for span, t in tot.items():
        layer_self[span.split(".")[0]] += t["self_s"]
    for layer in LAYERS:
        m[f"{_metric_name(layer)}.share"] = (
            100.0 * _div(layer_self[layer], traced_s), "%")
    overhead = traced_s - untraced_s
    m["trace.wall_s"] = (traced_s / rounds, "s")
    m["trace.untraced_wall_s"] = (untraced_s / rounds, "s")
    m["trace.overhead_s"] = (overhead / rounds, "s")
    m["trace.overhead_share"] = (100.0 * _div(overhead, untraced_s), "%")

    lines = [f"traced wall {traced_s:.4f} s, untraced wall {untraced_s:.4f} s"
             f" over {rounds} round(s); tracing overhead {overhead:.4f} s"
             f" ({m['trace.overhead_share'][0]:.2f}% of untraced)",
             f"{'span':<40}{'calls':>10}{'self_s':>12}{'share':>9}"]
    for span in sorted(tot, key=lambda s: -tot[s]["self_s"]):
        t = tot[span]
        lines.append(f"{span:<40}{t['calls']:>10}{t['self_s']:>12.4f}"
                     f"{100.0 * _div(t['self_s'], traced_s):>8.2f}%")
    lines.append("layer shares of traced wall: " + ", ".join(
        f"{layer} {100.0 * _div(layer_self[layer], traced_s):.2f}%"
        for layer in LAYERS))
    lines += [
        f"kernels.nonlinear_step.us_per_call = self_s / calls = "
        f"{kernel['self_s']:.4f} s / {kernel['calls']}",
        f"dynamics.step_us = dynamics.evolve.self_s / dynamics.steps = "
        f"{evolve['self_s']:.4f} s / {steps}",
        f"manifest.write_csv.mb_per_s = bytes / self_s = {size} B / "
        f"{csv_self:.4f} s",
        f"consistency.seed_yield = successes / tried = {ok} / {tried}"
        + "".join(f", {e} {n}" for e, n in sorted(failures.items())),
        _claim_line(workload, tot, traced_s),
    ]
    return m, lines


#: what each workload was chosen for: (spans whose self time is summed,
#: the share of traced wall it is expected to exceed, in %)
CLAIMS = {
    "evolve": (("_kernels.nonlinear_step", "dynamics.evolve"), 90.0),
    "evolve-dense": (("dynamics.conserved_number",
                      "dynamics.mean_field_energy"), 20.0),
    "wigner": (("manifest.write_csv",), 80.0),
    "solve": (("consistency.*",), 50.0),
}


def _claim_line(workload, tot, traced_s):
    spans, floor = CLAIMS[workload]
    share = 0.0
    for pattern in spans:
        prefix = pattern[:-1] if pattern.endswith("*") else None
        for name, t in tot.items():
            if name == pattern or (prefix and name.startswith(prefix)):
                share += t["self_s"]
    share = 100.0 * _div(share, traced_s)
    verdict = "met" if share > floor else "NOT met"
    return (f"claim for {workload}: {' + '.join(spans)} self time is "
            f"{share:.2f}% of traced wall (expected > {floor:g}%): {verdict}")
