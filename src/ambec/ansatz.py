"""Closed-form profiles, their soliton decompositions, and grid sampling.

All profile evaluators accept scalars or numpy arrays for x and use
exponential rewrites so that large |beta*x| neither overflows nor loses
the tails to cancellation.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import CouplingParams, FieldPair, Grid, SolutionRecord
from .errors import (ConfigurationError, NoDropletError,
                     SingularParameterError, TruncationWarning)

SUPERPOSED_KINDS = ("kink_pair", "bright_even", "bright_odd")

#: boundary/peak ratio above which a sampling grid is considered too narrow
GRID_ADEQUACY = 1e-12


def is_truncated(edge: float, peak: float) -> bool:
    """True when a profile's edge value is above GRID_ADEQUACY of its peak."""
    return peak > 0 and edge > GRID_ADEQUACY * peak


def mu_critical(params: CouplingParams) -> float:
    """Critical chemical potential below which no localized solution exists."""
    s = params.g_a + params.g_am
    if s == 0.0:
        raise SingularParameterError(
            "mu_critical is singular when g_a + g_am = 0")
    return -(4.0 / 9.0) * params.alpha ** 2 / s


def _stable_parts(beta: float, x):
    """Shared exponential building blocks for the rational profiles.

    Returns (q, r, sign) with q = exp(-2|beta x|), r = exp(-|beta x|) and
    sign = sign(beta x); the caller forms the denominator 4*B*q + (1+q)^2.
    """
    theta = beta * np.asarray(x, dtype=float)
    a = np.abs(theta)
    q = np.exp(-2.0 * a)
    r = np.exp(-a)
    return q, r, np.sign(theta)


def rational_profile(family: str, amp: float, B: float, beta: float, x):
    """Evaluate amp * {1, cosh, sinh}(beta x) / (B + cosh^2(beta x)).

    The numerator is 1 for family I, cosh for family II, sinh for family III.
    Raises ConfigurationError where beta * x or 2|beta x| overflows (|x|
    near the top of the float range).
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ConfigurationError("profile evaluation needs finite x")
    try:
        with np.errstate(over="raise"):
            q, r, sgn = _stable_parts(beta, xs)
            denom = 4.0 * B * q + (1.0 + q) ** 2
            if family == "I":
                out = amp * 4.0 * q / denom
            elif family == "II":
                out = amp * 2.0 * r * (1.0 + q) / denom
            elif family == "III":
                out = amp * sgn * 2.0 * r * (1.0 - q) / denom
            else:
                raise ConfigurationError(f"unknown family {family!r}")
    except FloatingPointError as e:
        raise ConfigurationError(
            f"family {family} profile overflows at beta = {beta:g} and |x| "
            f"up to {float(np.max(np.abs(xs))):g}: {e}") from e
    return out if np.ndim(x) else float(out)


def superposed_profile(kind: str, beta: float, delta: float, x):
    """Two-soliton decompositions of the rational profiles.

    kink_pair:  [tanh(bx+d) - tanh(bx-d)] / sinh(2d)
    bright_even: [sech(bx+d) + sech(bx-d)] / (2 cosh d)
    bright_odd:  [sech(bx-d) - sech(bx+d)] / (2 sinh d)

    Each equals the matching rational profile with B = sinh^2(delta).
    Raises ConfigurationError where beta * x or the normalization
    overflows (|delta| above about 710).
    """
    try:
        with np.errstate(over="raise"):
            u = beta * np.asarray(x, dtype=float)
            if kind == "kink_pair":
                if delta == 0.0:
                    raise SingularParameterError("kink_pair needs delta != 0")
                out = ((np.tanh(u + delta) - np.tanh(u - delta))
                       / math.sinh(2.0 * delta))
            elif kind == "bright_even":
                out = ((_sech(u + delta) + _sech(u - delta))
                       / (2.0 * math.cosh(delta)))
            elif kind == "bright_odd":
                if delta == 0.0:
                    raise SingularParameterError("bright_odd needs delta != 0")
                out = ((_sech(u - delta) - _sech(u + delta))
                       / (2.0 * math.sinh(delta)))
            else:
                raise ConfigurationError(
                    f"unknown kind {kind!r}; expected one of {SUPERPOSED_KINDS}")
    except (OverflowError, FloatingPointError) as e:
        raise ConfigurationError(
            f"{kind} overflows at beta = {beta:g}, delta = {delta:g}: {e}"
        ) from e
    return out if np.ndim(x) else float(out)


def _sech(u: np.ndarray) -> np.ndarray:
    # 2 e^{-|u|} / (1 + e^{-2|u|}) never overflows
    a = np.abs(u)
    e = np.exp(-a)
    return 2.0 * e / (1.0 + e * e)


@dataclass(frozen=True)
class PetrovParams:
    """Flat-top droplet parametrization by peak densities and mu/mu0."""

    n_a: float
    n_m: float
    mu: float
    mu0: float

    @property
    def ratio(self) -> float:
        return self.mu / self.mu0

    @classmethod
    def from_shape(cls, A: float, D: float, B: float, beta: float) -> "PetrovParams":
        """Build from the rational-profile parameters.

        sqrt(n) = amp*(2B+1)/(2B(B+1)), mu = -2 beta^2 and
        mu/mu0 = 4B(B+1)/(2B+1)^2 pin down all four fields.
        """
        if not B > 0:
            raise ConfigurationError("from_shape needs B > 0")
        scale = (2.0 * B + 1.0) / (2.0 * B * (B + 1.0))
        mu = -2.0 * beta ** 2
        ratio = 4.0 * B * (B + 1.0) / (2.0 * B + 1.0) ** 2
        return cls(n_a=(A * scale) ** 2, n_m=(D * scale) ** 2,
                   mu=mu, mu0=mu / ratio)


def petrov_profile(p: PetrovParams, x, component: str = "atomic"):
    """Flat-top profile sqrt(n)*r / (1 + sqrt(1-r)*cosh(k x)), r = mu/mu0.

    k = sqrt(-2 mu), which reproduces the rational profile exactly through
    the half-angle identity B + cosh^2(beta x) = (2B + 1 + cosh(2 beta x))/2.
    """
    r = p.ratio
    if not 0.0 < r < 1.0:
        raise NoDropletError(
            f"mu/mu0 = {r} is outside (0, 1); no localized solution")
    n = {"atomic": p.n_a, "molecular": p.n_m}.get(component)
    if n is None:
        raise ConfigurationError(f"unknown component {component!r}")
    k = math.sqrt(-2.0 * p.mu)
    u = k * np.asarray(x, dtype=float)
    # cosh via decaying exponentials: 1 + s*cosh(u) = (e^a + s*(1+q)/2) e^{-a}
    # is safe to form directly because s*cosh only appears in the denominator
    a = np.abs(u)
    q = np.exp(-2.0 * a)
    s = math.sqrt(1.0 - r)
    # sqrt(n)*r * e^{-a} / (e^{-a} + s*(1+q)/2)
    out = math.sqrt(n) * r * np.exp(-a) / (np.exp(-a) + 0.5 * s * (1.0 + q))
    return out if np.ndim(x) else float(out)


def half_width_99(record: SolutionRecord) -> float:
    """Half-width where the atomic density drops to 99% of peak, times beta.

    Only meaningful for the nodeless droplet, whose density peaks at the
    origin.  Returned in units of 1/beta so droplets at different chemical
    potentials can be compared shape-to-shape.
    """
    if record.family != "I":
        raise ConfigurationError(
            f"half-width is defined for family I, not {record.family!r}")
    B = record.B
    c = (B + 1.0) / math.sqrt(0.99) - B
    return math.acosh(math.sqrt(c))


def component_profile(record: SolutionRecord, component: str, x):
    """The real profile a record's component carries, at x.

    The atomic field carries the profile of the record's family with
    amplitude A; the molecular field always carries the family I (droplet)
    profile with amplitude D.
    """
    if component == "atomic":
        family, amp = record.family, record.A
    elif component == "molecular":
        family, amp = "I", record.D
    else:
        raise ConfigurationError(f"unknown component {component!r}")
    return rational_profile(family, amp, record.B, record.beta, x)


def truncation_report(record: SolutionRecord, grid: Grid,
                      phi_a, phi_m) -> list[str]:
    """One message per profile that has not decayed at the grid edges.

    phi_a and phi_m are the record's profiles already sampled on the grid; a
    profile is truncated when its edge-to-peak ratio exceeds GRID_ADEQUACY.
    """
    edges = np.array([grid.x_min, grid.x_max])
    problems = []
    for name, prof in (("atomic", phi_a), ("molecular", phi_m)):
        peak = float(np.max(np.abs(prof)))
        boundary = float(np.max(np.abs(
            component_profile(record, name, edges))))
        if is_truncated(boundary, peak):
            problems.append(
                f"{name} profile is {boundary:.3e} at the grid edge "
                f"({boundary / peak:.3e} of its peak, limit {GRID_ADEQUACY:g}); "
                "widen the grid")
    return problems


def sample_fields(record: SolutionRecord, grid: Grid, t: float = 0.0) -> FieldPair:
    """Sample the analytic solution onto a grid at time t.

    Atomic field carries phase exp(-i mu t), molecular exp(-2 i mu t).
    Emits a truncation warning if either profile has not decayed below
    1e-12 of its peak at the grid edges.
    """
    x = grid.x()
    phi_a = component_profile(record, "atomic", x)
    phi_m = component_profile(record, "molecular", x)
    for problem in truncation_report(record, grid, phi_a, phi_m):
        warnings.warn(TruncationWarning(problem))
    psi_a = phi_a * np.exp(-1j * record.mu * t)
    psi_m = phi_m * np.exp(-2j * record.mu * t)
    return FieldPair(grid, psi_a, psi_m, t=t)
