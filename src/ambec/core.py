"""Shared domain types: coupling parameters, solution records, grids, fields."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, OutOfScopeRegimeError

FAMILIES = ("I", "II", "III")

SQRT2 = math.sqrt(2.0)

#: JSON key order for a serialized solution record.
RECORD_KEYS = ("family", "g_a", "g_m", "g_am", "alpha", "epsilon",
               "mu", "beta", "A", "B", "D", "delta", "residual_max")

#: keys a record object must hold as finite numbers (residual_max may
#: be left out; delta is derived from B)
_NUMBER_KEYS = ("g_a", "g_m", "g_am", "alpha", "epsilon", "mu", "beta",
                "A", "B", "D")


@dataclass(frozen=True)
class CouplingParams:
    """Interaction strengths, interconversion strength and detuning.

    epsilon may be None for families II/III, where the detuning is an output
    of the consistency solve rather than an input.  alpha = 0 is allowed at
    construction (the decoupled dynamics limit); nonzero alpha is a per-family
    requirement enforced by validate_params.
    """

    g_a: float
    g_m: float
    g_am: float
    alpha: float
    epsilon: float | None = None

    def with_epsilon(self, epsilon: float) -> "CouplingParams":
        return replace(self, epsilon=epsilon)


def nonfinite(**values) -> list[str]:
    """One message per value that is not a finite number; None is skipped."""
    return [f"{name} must be finite, got {value}"
            for name, value in values.items()
            if value is not None and not math.isfinite(value)]


def require_finite(**values) -> None:
    """Raise ConfigurationError naming every value that is not finite."""
    bad = nonfinite(**values)
    if bad:
        raise ConfigurationError("; ".join(bad))


def require_tol(tol: float) -> None:
    """Raise ConfigurationError unless tol > 0: no residual is below tol <= 0."""
    if not tol > 0.0:
        raise ConfigurationError(f"tol must be positive, got {tol:g}")


def _finite_number(x) -> bool:
    """True for an int or float, not a bool, that is finite as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def validate_params(params: CouplingParams, family: str) -> list[str]:
    """Return the list of violated admissibility constraints for a family.

    Empty list means admissible.  A violation never raises, so a CLI can
    report every problem at once; an unknown family raises ConfigurationError.
    """
    if family not in FAMILIES:
        raise ConfigurationError(f"unknown family {family!r}; expected one of {FAMILIES}")
    bad = nonfinite(**vars(params))
    if params.alpha == 0.0:
        bad.append("alpha must be nonzero: every family couples the two fields")
    if family == "I":
        if params.g_a == params.g_m:
            bad.append("family I is degenerate when g_a equals g_m")
        if params.epsilon is not None and params.epsilon >= 0:
            bad.append("family I requires epsilon < 0")
    elif family == "II":
        if params.g_a >= 0:
            bad.append("family II requires g_a < 0")
        if params.g_m <= 0:
            bad.append("family II requires g_m > 0")
        if params.epsilon is not None and params.epsilon >= 0:
            bad.append("family II requires epsilon < 0")
    else:
        if params.g_m >= 0:
            bad.append("family III requires g_m < 0")
        if params.g_am >= 0:
            bad.append("family III requires g_am < 0")
        if params.epsilon is not None and params.epsilon == 0:
            bad.append("family III requires nonzero epsilon")
    return bad


def delta_from_B(B: float) -> float:
    """Displacement parameter of the superposed form: B = sinh^2(delta)."""
    if not B > 0:
        raise OutOfScopeRegimeError(
            f"B = {B} is outside the supported B > 0 regime")
    return math.asinh(math.sqrt(B))


@dataclass(frozen=True)
class SolutionRecord:
    """One fully determined analytic solution.

    The record carries its coupling set so it can be serialized standalone.
    Consistency of (mu, beta, epsilon, ...) with the family relations is the
    solvers' job; perturbed records are legal inputs for residual probes.
    """

    family: str
    params: CouplingParams
    A: float
    B: float
    D: float
    beta: float
    mu: float
    residual_max: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown family {self.family!r}")
        if not self.beta > 0:
            raise ConfigurationError(
                f"beta must be positive, got {self.beta!r}")
        if not self.B > 0:
            raise OutOfScopeRegimeError(
                f"B = {self.B} is outside the supported B > 0 regime")
        if self.params.epsilon is None:
            raise ConfigurationError("a solution record needs a concrete epsilon")

    @property
    def epsilon(self) -> float:
        return self.params.epsilon

    @property
    def delta(self) -> float:
        return delta_from_B(self.B)

    def to_dict(self) -> dict:
        p = self.params
        vals = {"family": self.family, "g_a": p.g_a, "g_m": p.g_m,
                "g_am": p.g_am, "alpha": p.alpha, "epsilon": p.epsilon,
                "mu": self.mu, "beta": self.beta, "A": self.A, "B": self.B,
                "D": self.D, "delta": self.delta,
                "residual_max": self.residual_max}
        return {k: vals[k] for k in RECORD_KEYS}

    def to_json(self) -> str:
        # float repr carries 17 significant digits, above the 15 required
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "SolutionRecord":
        """Record from its JSON object; "delta" is derived, not read.

        Raises KeyError for a missing key and ValueError for anything that
        is not a record object: a non-dict, an unknown family, or a number
        field holding a bool, a non-number or a non-finite value.
        """
        if not isinstance(d, dict):
            raise ValueError("a solution record is a JSON object, got "
                             f"{type(d).__name__}")
        if d["family"] not in FAMILIES:
            raise ValueError(f"unknown family {d['family']!r}; expected one "
                             f"of {FAMILIES}")
        v = {k: d[k] for k in _NUMBER_KEYS}
        v["residual_max"] = d.get("residual_max", 0.0)
        for k, x in v.items():
            if not _finite_number(x):
                raise ValueError(f"{k} must be a finite number, got {x!r}")
        params = CouplingParams(g_a=v["g_a"], g_m=v["g_m"], g_am=v["g_am"],
                                alpha=v["alpha"], epsilon=v["epsilon"])
        return cls(family=d["family"], params=params, A=v["A"], B=v["B"],
                   D=v["D"], beta=v["beta"], mu=v["mu"],
                   residual_max=v["residual_max"])

    @classmethod
    def from_json(cls, text: str) -> "SolutionRecord":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [x_min, x_max) with n >= 8 points.

    Every spectral operation (derivatives, the split-step kinetic phase,
    the Wigner transform) takes numpy's FFT, which works for any n.
    """

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 8:
            raise ConfigurationError(f"grid needs n >= 8, got {self.n}")
        require_finite(x_min=self.x_min, x_max=self.x_max)
        if not self.x_max > self.x_min:
            raise ConfigurationError("grid needs x_max > x_min")
        require_finite(grid_width=self.x_max - self.x_min)
        if not self.dx > 0.0:
            raise ConfigurationError("grid spacing (x_max - x_min)/n is 0")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    def k(self) -> np.ndarray:
        """Spectral wavenumbers matching numpy's FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)


@dataclass
class FieldPair:
    """Complex atomic/molecular field samples sharing one grid."""

    grid: Grid
    psi_a: np.ndarray
    psi_m: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.psi_a = np.asarray(self.psi_a, dtype=complex)
        self.psi_m = np.asarray(self.psi_m, dtype=complex)
        if self.psi_a.shape != (self.grid.n,) or self.psi_m.shape != (self.grid.n,):
            raise ConfigurationError("field arrays must match the grid length")
        if not (np.all(np.isfinite(self.psi_a)) and np.all(np.isfinite(self.psi_m))):
            raise ConfigurationError("field arrays must be finite")

    def copy(self) -> "FieldPair":
        return FieldPair(self.grid, self.psi_a.copy(), self.psi_m.copy(), self.t)


@dataclass(frozen=True)
class Diagnostics:
    """Per-sample conserved quantities and amplitude drift norms."""

    t: float
    N: float
    N_a: float
    N_m: float
    E: float
    drift_a: float = 0.0
    drift_m: float = 0.0
