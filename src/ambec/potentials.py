"""Self-consistent potentials, eigen-equation residuals, well-shape metrics.

Rewriting the coupled equations as linear eigenvalue problems in the
solution's own density gives each field an effective potential; how exactly
those wells are shaped (harmonic, flat box, double well) is what this module
quantifies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ansatz import component_profile, truncation_report
from .core import SQRT2, Grid, SolutionRecord
from .errors import ConfigurationError, SingularParameterError, TruncationError

#: fraction of grid points dropped at each edge when taking residual norms
EDGE_EXCLUSION = 0.025

#: flatness thresholds separating harmonic, intermediate and box wells
FLATNESS_HARMONIC = -0.10
FLATNESS_BOX = 0.25


@dataclass(frozen=True)
class PotentialPair:
    """Effective potentials with the real profiles that generated them."""

    grid: Grid
    V_a: np.ndarray
    V_m: np.ndarray
    phi_a: np.ndarray
    phi_m: np.ndarray


def self_consistent_potentials(record: SolutionRecord, grid: Grid) -> PotentialPair:
    """Potentials that make each field an eigenstate of a linear problem.

    V_a = g_a phi_a^2 + g_am phi_m^2 + sqrt(2) alpha phi_m
    V_m = g_m phi_m^2 + g_am phi_a^2 + (alpha/sqrt(2)) phi_a^2 / phi_m
    """
    p = record.params
    x = grid.x()
    phi_a = component_profile(record, "atomic", x)
    phi_m = component_profile(record, "molecular", x)
    if np.min(np.abs(phi_m)) < 1e-300:
        raise SingularParameterError(
            "molecular profile vanishes on the grid; V_m is singular there")
    V_a = p.g_a * phi_a ** 2 + p.g_am * phi_m ** 2 + SQRT2 * p.alpha * phi_m
    V_m = (p.g_m * phi_m ** 2 + p.g_am * phi_a ** 2
           + (p.alpha / SQRT2) * phi_a ** 2 / phi_m)
    return PotentialPair(grid, V_a, V_m, phi_a, phi_m)


def second_derivative(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Periodic spectral second derivative of real samples, for any n."""
    k = grid.k()
    return np.real(np.fft.ifft(-(k * k) * np.fft.fft(f)))


def eigen_residuals(record: SolutionRecord, grid: Grid):
    """Relative inf-norm residuals of the two linear eigenvalue equations.

    r_a checks -phi_a''/2 + V_a phi_a = mu phi_a, r_m checks
    -phi_m''/4 + V_m phi_m = (2 mu - epsilon) phi_m.  The outer 2.5% of
    points on each side are excluded from the numerator so the (decayed,
    wrap-around-affected) tails cannot dominate.
    """
    pair = self_consistent_potentials(record, grid)
    phi_a, phi_m = pair.phi_a, pair.phi_m
    problems = truncation_report(record, grid, phi_a, phi_m)
    if problems:
        raise TruncationError("grid too narrow: " + problems[0])
    mu, eps = record.mu, record.epsilon
    res_a = -0.5 * second_derivative(phi_a, grid) + pair.V_a * phi_a - mu * phi_a
    res_m = (-0.25 * second_derivative(phi_m, grid) + pair.V_m * phi_m
             - (2.0 * mu - eps) * phi_m)
    n = grid.n
    interior = slice(int(EDGE_EXCLUSION * n), n - int(EDGE_EXCLUSION * n))
    r_a = float(np.max(np.abs(res_a[interior])) / np.max(np.abs(phi_a)))
    r_m = float(np.max(np.abs(res_m[interior])) / np.max(np.abs(phi_m)))
    return r_a, r_m


def quartic_fit(x: np.ndarray, V: np.ndarray, half_width: float):
    """Least-squares c0 + c2 x^2 + c4 x^4 over |x| < half_width."""
    mask = np.abs(x) < half_width
    if int(np.count_nonzero(mask)) < 5:
        raise ConfigurationError(
            f"only {int(np.count_nonzero(mask))} grid points inside "
            f"|x| < {half_width:g}; refine the grid")
    xs = x[mask]
    basis = np.stack([np.ones_like(xs), xs ** 2, xs ** 4], axis=1)
    coef, *_ = np.linalg.lstsq(basis, V[mask], rcond=None)
    return float(coef[0]), float(coef[1]), float(coef[2])


def _flatness(c2: float, c4: float, w: float) -> float:
    """Angle of the quartic-to-quadratic ratio, normalized by pi.

    atan2(c4 w^4, c2 w^2)/pi with the branch cut moved to -1/2, so the
    value lives in (-1/2, 3/2).  This is a bounded monotone function of
    the fit ratio c4 w^2 / c2 that stays finite and correctly ordered
    when the quadratic coefficient passes through zero.
    """
    a = math.atan2(c4 * w ** 4, c2 * w ** 2) / math.pi
    if a < -0.5:
        a += 2.0
    return a


def flatness_metric(record: SolutionRecord, grid: Grid) -> float:
    """How box-like the molecular well is near the origin.

    V_m is fit to c0 + c2 x^2 + c4 x^4 on |x| < 1/beta and the metric is
    the normalized angle of (c2 w^2, c4 w^4), w = 1/beta.  A clean upward
    parabola saturates near -0.115; the value grows through 0 as the
    quartic term takes over (flat bottom, steep walls) and past +1 once
    the bottom turns concave.  Strictly increasing as the chemical
    potential approaches its critical value.
    """
    pair = self_consistent_potentials(record, grid)
    w = 1.0 / record.beta
    _, c2, c4 = quartic_fit(grid.x(), pair.V_m, w)
    return _flatness(c2, c4, w)


@dataclass(frozen=True)
class WellShape:
    """Classification of a potential well on a grid."""

    kind: str        # harmonic | intermediate | box | double_well
    barrier: float   # V(0) - min V; positive only for double wells
    x_min: float     # |x| of the global minimum
    flatness: float  # quartic-vs-quadratic weight near the origin


def well_shape(V: np.ndarray, grid: Grid, beta: float) -> WellShape:
    """Classify a (symmetric) well as harmonic, box, or double well.

    A double well is detected from a global minimum away from the origin
    with a positive central barrier; otherwise the flatness metric of the
    near-origin quartic fit decides between harmonic (<= -0.10), box
    (>= 0.25) and intermediate.
    """
    x = grid.x()
    i_min = int(np.argmin(V))
    i_zero = int(np.argmin(np.abs(x)))
    barrier = float(V[i_zero] - V[i_min])
    x_star = abs(float(x[i_min]))
    w = 1.0 / beta
    _, c2, c4 = quartic_fit(x, V, w)
    flat = _flatness(c2, c4, w)
    span = float(np.max(V) - np.min(V))
    if x_star > 2.0 * grid.dx and barrier > 1e-12 * max(span, 1e-300):
        return WellShape("double_well", barrier, x_star, flat)
    if flat <= FLATNESS_HARMONIC:
        kind = "harmonic"
    elif flat >= FLATNESS_BOX:
        kind = "box"
    else:
        kind = "intermediate"
    return WellShape(kind, 0.0, 0.0, flat)
