"""Command-line front end: solve, sample, analyze, evolve, transform.

Every command writes deterministic data files and `main` writes the
manifest JSON beside them; reruns with identical flags produce
byte-identical data.  Exit codes: 0 success, 2 no root found, 3 invalid
configuration, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import operator
import pathlib
import sys
import time
import warnings
from functools import cache, partial

import numpy as np

from . import _kernels, ansatz, consistency, dynamics, potentials, wigner
from .core import (CouplingParams, Diagnostics, Grid, SolutionRecord,
                   require_finite, require_tol)
from .errors import (AmbecError, ConfigurationError, NoDropletError,
                     OutOfScopeRegimeError, TruncationWarning)
from .manifest import (RunManifest, format_float, open_output, write_csv,
                       write_json, write_lattice_csv)


def _sibling(out: str, suffix: str) -> str:
    """The path next to --out that shares its stem: rec.json -> rec<suffix>."""
    return str(pathlib.Path(out).with_suffix("")) + suffix


def _load_record(path: str) -> SolutionRecord:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigurationError(f"cannot read solution file: {e}") from e
    try:
        return SolutionRecord.from_json(text)
    except (KeyError, ValueError) as e:
        raise ConfigurationError(f"{path} is not a solution JSON: {e}") from e


def _record_and_grid(args) -> tuple[SolutionRecord, Grid]:
    """The --solution record and the grid of --grid-l/--grid-n for it."""
    record = _load_record(args.solution)
    L = (args.grid_l if args.grid_l is not None
         else dynamics.default_half_width(record.beta))
    return record, dynamics.make_grid(L, args.grid_n)


#: each mode of solve, scan and wigner: the flags it needs and the other
#: flags of its command that it takes.  A flag of another command is absent
#: from args, so it reads as unset.
_MODES = {
    "family I": (("beta",), ()),
    "a family II/III solve without --scan": (
        ("g_m", "seed_mu", "seed_epsilon"), ()),
    "a --scan solve": (("g_m",), ("scan", "mu_range", "eps_range", "scan_n")),
    "a scan at one --mu": (("mu",), ()),
    "a --mu-min/--mu-max scan": (("mu_min", "mu_max"), ("count",)),
    "a --solution transform": (("solution",), ("component",)),
    "a transform without --solution": (("beta", "delta", "kind"), ()),
}


def _check_mode(args, mode: str) -> None:
    """Reject the first set flag `mode` does not read or unset one it needs."""
    needs, takes = _MODES[mode]
    for name in dict.fromkeys(n for pair in _MODES.values()
                              for names in pair for n in names):
        value = getattr(args, name, None)
        is_set = value is not None and value is not False
        flag = "--" + name.replace("_", "-")
        if is_set and name not in needs + takes:
            raise ConfigurationError(f"{mode} does not read {flag}")
        if not is_set and name in needs:
            raise ConfigurationError(f"{mode} needs {flag}")


def cmd_solve(args) -> dict | None:
    tol = args.tol
    _check_mode(args, "family I" if args.family == "I"
                else "a --scan solve" if args.scan
                else "a family II/III solve without --scan")
    if args.family == "I":
        record = consistency.solve_family_I(args.g_a, args.g_am, args.alpha,
                                            args.beta, tol=tol)
    else:
        params = CouplingParams(g_a=args.g_a, g_m=args.g_m, g_am=args.g_am,
                                alpha=args.alpha)
        if args.scan:
            n = consistency.SCAN_N if args.scan_n is None else args.scan_n
            record = consistency.solve_from_scan(
                args.family, params, mu_range=args.mu_range,
                eps_range=args.eps_range, n=n, tol=tol)
        else:
            solver = (consistency.solve_family_II if args.family == "II"
                      else consistency.solve_family_III)
            record = solver(params, (args.seed_mu, args.seed_epsilon), tol=tol)
    with open_output(args.out) as f:
        f.write(record.to_json())
        f.write("\n")
    print(f"family {record.family}: mu={format_float(record.mu)} "
          f"epsilon={format_float(record.epsilon)} B={format_float(record.B)} "
          f"residual_max={record.residual_max:.3e} -> {args.out}")
    if args.family != "I":  # the conditions ran in the kernel
        return {"environment": {"kernel_backend": _kernels.kernel_backend()}}


def cmd_profile(args) -> None:
    require_finite(t=args.t)
    record, grid = _record_and_grid(args)
    fields = ansatz.sample_fields(record, grid, t=args.t)
    na = np.abs(fields.psi_a) ** 2
    nm = np.abs(fields.psi_m) ** 2
    rows = zip(grid.x(), fields.psi_a.real, fields.psi_a.imag,
               fields.psi_m.real, fields.psi_m.imag, na, nm)
    write_csv(args.out,
              ["x", "psi_a_re", "psi_a_im", "psi_m_re", "psi_m_im",
               "n_a", "n_m"],
              rows, _sibling(args.out, ".manifest.json"))


def cmd_potential(args) -> None:
    record, grid = _record_and_grid(args)
    pair = potentials.self_consistent_potentials(record, grid)
    rows = zip(grid.x(), pair.V_a, pair.V_m, pair.phi_a, pair.phi_m)
    record_line = "record: " + json.dumps(record.to_dict())
    write_csv(args.out, ["x", "V_a", "V_m", "phi_a", "phi_m"], rows,
              _sibling(args.out, ".manifest.json"), comments=[record_line])


def cmd_residual(args) -> None:
    record, grid = _record_and_grid(args)
    r_a, r_m = potentials.eigen_residuals(record, grid)
    write_csv(args.out, ["r_a", "r_m"], [(r_a, r_m)],
              _sibling(args.out, ".manifest.json"))
    print(f"r_a={format_float(r_a)} r_m={format_float(r_m)} -> {args.out}")


def cmd_evolve(args) -> dict:
    record, grid = _record_and_grid(args)
    fields = ansatz.sample_fields(record, grid)
    cfg = dynamics.PropagatorConfig(dt=args.dt, T=args.t,
                                    record_every=args.record_every,
                                    tol_drift=args.tol_drift)
    diags = dynamics.evolve(fields, record.params, cfg)
    names = [f.name for f in dataclasses.fields(Diagnostics)]
    write_csv(args.out, names, map(operator.attrgetter(*names), diags),
              _sibling(args.out, ".manifest.json"))
    last = diags[-1]
    print(f"evolved to t={format_float(last.t)}: drift_a={last.drift_a:.3e} "
          f"drift_m={last.drift_m:.3e} -> {args.out}")
    return {"environment": {"kernel_backend": _kernels.kernel_backend()}}


def cmd_wigner(args) -> dict:
    _check_mode(args, "a --solution transform" if args.solution is not None
                else "a transform without --solution")
    if args.solution is not None:
        record, grid = _record_and_grid(args)
        component = args.component or "atomic"

        def profile(x):
            return ansatz.component_profile(record, component, x)
    else:
        kind, beta, delta = args.kind, args.beta, args.delta
        require_finite(beta=beta, delta=delta)
        if not beta > 0.0:
            raise ConfigurationError(f"--beta must be positive, got {beta}")

        def profile(x):
            return ansatz.superposed_profile(kind, beta, delta, x)

        L = (args.grid_l if args.grid_l is not None
             else abs(delta) / beta + 32.0 / beta)
        grid = dynamics.make_grid(L, args.grid_n)
    if args.p_count is None and grid.n % 2:
        raise ConfigurationError(
            "--p-count defaults to --grid-n, which must then be even; "
            f"got --grid-n {grid.n}")
    w = wigner.wigner_transform(profile, grid, p_count=args.p_count)
    metrics = wigner.phase_space_metrics(w)

    write_lattice_csv(args.out, ["x", "p", "W"], w.x, w.p, w.W,
                      _sibling(args.out, ".manifest.json"),
                      comments=[f"convention: {w.convention}"])

    try:
        fringe = wigner.fringe_spacing(w)
    except ConfigurationError:
        fringe = None
    payload = metrics.to_dict()
    payload["fringe_spacing"] = fringe
    payload["norm"] = w.norm
    metrics_path = _sibling(args.out, ".metrics.json")
    write_json(metrics_path, payload)
    print(f"W(0,0)={format_float(metrics.w00)} ratio={format_float(metrics.ratio)} "
          f"negative_volume={format_float(metrics.negative_volume)} "
          f"-> {args.out}, {metrics_path}")
    return {"outputs": [args.out, metrics_path],
            "environment": {"kernel_backend": _kernels.kernel_backend()}}


def cmd_scan(args) -> None:
    _check_mode(args, "a scan at one --mu" if args.mu is not None
                else "a --mu-min/--mu-max scan")
    require_finite(g_a=args.g_a, g_am=args.g_am, alpha=args.alpha, mu=args.mu,
                   mu_min=args.mu_min, mu_max=args.mu_max, tol=args.tol)
    require_tol(args.tol)
    if args.mu is not None:
        mus = [args.mu]
    else:
        count = 20 if args.count is None else args.count
        if not args.mu_min < args.mu_max:
            raise ConfigurationError("--mu-min must be below --mu-max")
        if count < 1:
            raise ConfigurationError("--count must be >= 1")
        mus = list(np.linspace(args.mu_min, args.mu_max, count))
    rows = []
    nan = float("nan")
    for mu in mus:
        try:  # only the family I solver decides which mu hold a droplet
            if not mu < 0.0:
                raise NoDropletError(f"mu = {mu:g} is not negative")
            record = consistency.solve_family_I(
                args.g_a, args.g_am, args.alpha, math.sqrt(-mu / 2.0),
                tol=args.tol)
        except (NoDropletError, OutOfScopeRegimeError):
            rows.append((mu, nan, nan, nan, nan, nan, "unattainable"))
            continue
        grid = dynamics.default_grid(record.beta, args.grid_n)
        peak = ansatz.component_profile(record, "atomic", 0.0) ** 2
        rows.append((mu, peak, ansatz.half_width_99(record),
                     potentials.flatness_metric(record, grid),
                     record.B, record.A, "ok"))
    write_csv(args.out,
              ["mu", "peak_density", "half_width_99", "flatness", "B", "A",
               "status"],
              rows, _sibling(args.out, ".manifest.json"))
    ok = sum(1 for r in rows if r[-1] == "ok")
    print(f"scan: {ok}/{len(rows)} attainable rows -> {args.out}")


def _add_grid_flags(p, n_default=dynamics.GRID_N):
    p.add_argument("--grid-l", type=float, default=None,
                   help="grid half-width (default: wide enough for the record)")
    p.add_argument("--grid-n", type=int, default=n_default,
                   help=f"grid points (default {n_default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambec",
        description="Exact droplet and cat solutions of coupled "
                    "atomic-molecular condensate mean-field equations")
    sub = parser.add_subparsers(dest="command", required=True)

    couplings = argparse.ArgumentParser(add_help=False)
    couplings.add_argument("--g-a", type=float, required=True)
    couplings.add_argument("--g-am", type=float, required=True)
    couplings.add_argument("--alpha", type=float, required=True)
    couplings.add_argument("--tol", type=float,
                           default=consistency.DEFAULT_TOL,
                           help="consistency tolerance (default %(default)g)")
    solution = argparse.ArgumentParser(add_help=False)
    solution.add_argument("--solution", required=True)
    _add_grid_flags(solution)

    p = sub.add_parser("solve", parents=[couplings],
                       help="find a solution record")
    p.add_argument("--family", required=True, choices=["I", "II", "III"])
    p.add_argument("--g-m", type=float, default=None)
    p.add_argument("--beta", type=float, default=None,
                   help="inverse width (family I only)")
    p.add_argument("--seed-mu", type=float, default=None)
    p.add_argument("--seed-epsilon", type=float, default=None)
    p.add_argument("--scan", action="store_true",
                   help="seed by scanning a (mu, epsilon) box")
    p.add_argument("--mu-range", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"))
    p.add_argument("--eps-range", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"))
    p.add_argument("--scan-n", type=int, default=None)
    p.add_argument("--out", default="solution.json")

    p = sub.add_parser("profile", parents=[solution],
                       help="sample fields to CSV")
    p.add_argument("--t", type=float, default=0.0, help="sample time")
    p.add_argument("--out", default="profile.csv")

    p = sub.add_parser("potential", parents=[solution],
                       help="self-consistent potentials to CSV")
    p.add_argument("--out", default="potential.csv")

    p = sub.add_parser("residual", parents=[solution],
                       help="eigen-equation residual norms")
    p.add_argument("--out", default="residual.csv")
    p.set_defaults(norm="relative inf-norm; outer 2.5% of grid points per "
                        "side excluded")

    p = sub.add_parser("evolve", parents=[solution],
                       help="propagate and record diagnostics")
    p.add_argument("--t", type=float, default=10.0, help="total time")
    p.add_argument("--dt", type=float, default=1e-3)
    config = dynamics.PropagatorConfig  # the class holds the defaults
    p.add_argument("--record-every", type=int, default=config.record_every)
    p.add_argument("--tol-drift", type=float, default=config.tol_drift)
    p.add_argument("--out", default="evolve.csv")

    p = sub.add_parser("wigner", help="Wigner distribution and metrics")
    p.add_argument("--solution", default=None)
    p.add_argument("--component", choices=["atomic", "molecular"],
                   default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--kind", choices=list(ansatz.SUPERPOSED_KINDS),
                   default=None)
    _add_grid_flags(p, n_default=512)
    p.add_argument("--p-count", type=int, default=None,
                   help="momentum points (default: grid size)")
    p.add_argument("--out", default="wigner.csv")

    p = sub.add_parser("scan", parents=[couplings],
                       help="family-I sweep over mu")
    p.add_argument("--mu", type=float, default=None, help="single mu value")
    p.add_argument("--mu-min", type=float, default=None)
    p.add_argument("--mu-max", type=float, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--grid-n", type=int, default=dynamics.GRID_N)
    p.add_argument("--out", default="scan.csv")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads argv with, built once per process; each
    parse_args call still returns a new namespace."""
    return build_parser()


def _show_warning(show, message, category, *rest):
    """Print a TruncationWarning as a `warning:` line; pass others to show."""
    if issubclass(category, TruncationWarning):
        print(f"warning: {message}", file=sys.stderr)
    else:
        show(message, category, *rest)


def main(argv=None) -> int:
    """Run one command, then write its manifest beside --out.

    A command returns the manifest fields only it knows, if any.  A numpy
    overflow, division by zero or NaN ends the run with exit code 3, as
    does a Python float overflow or division by zero; code that expects
    non-finite values opts out with its own np.errstate.  An allocation
    that fails (a huge --count, --scan-n or --grid-n) exits 3.
    A TruncationWarning prints one `warning:` line; other warnings pass on.
    """
    args = _parser().parse_args(argv)
    params = dict(vars(args))
    inputs = [args.solution] if params.get("solution") is not None else []
    start = time.perf_counter()
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"), \
                warnings.catch_warnings():
            warnings.showwarning = partial(_show_warning, warnings.showwarning)
            # looked up per call, not bound into the cached parser
            known = globals()["cmd_" + args.command](args) or {}
        manifest = RunManifest(args.command, params, **{
            "inputs": inputs, "outputs": [args.out], **known})
        manifest.duration_s = time.perf_counter() - start
        manifest.write(_sibling(args.out, ".manifest.json"))
    except AmbecError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except ArithmeticError as e:  # numpy's under errstate, or Python's
        print(f"error: floating-point {e.args[-1]}", file=sys.stderr)
        return ConfigurationError.exit_code
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return ConfigurationError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
