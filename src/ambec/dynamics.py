"""Split-step time propagation of the coupled mean-field equations.

Strang splitting: half a kinetic step in spectral space, one full
nonlinear+coupling step pointwise (classical RK4, since the conjugate
coupling is not a pure phase rotation), then the second kinetic half.
The molecular kinetic phase runs at half the atomic rate, matching its
1/4 kinetic coefficient against the atomic 1/2.  Both fields travel as
one (2, n) array, and the trailing kinetic half of each step is merged
with the leading half of the next; the halves are split apart only where
the fields are recorded (Bao, Jaksch and Markowich, J. Comput. Phys. 187,
318 (2003)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import nonlinear_step
from .core import (SQRT2, CouplingParams, Diagnostics, FieldPair, Grid,
                   require_power_of_two)
from .errors import BlowUpError, ConfigurationError, InstabilityError

#: N drift beyond this multiple of tol_drift aborts the run
INSTABILITY_FACTOR = 100.0


def make_grid(L: float, n: int) -> Grid:
    """Uniform periodic grid on [-L, L) with a power-of-two point count."""
    if not L > 0.0:
        raise ConfigurationError(f"grid half-width must be positive, got {L}")
    grid = Grid(-float(L), float(L), n)
    require_power_of_two(grid, "make_grid")
    return grid


def default_half_width(beta: float) -> float:
    """Half-width wide enough that profiles with decay rate beta fit to 1e-12."""
    return max(20.0, 40.0 / beta)


def default_grid(beta: float, n: int = 2048) -> Grid:
    """Grid wide enough that profiles with decay rate beta fit to 1e-12."""
    return make_grid(default_half_width(beta), n)


@dataclass(frozen=True)
class PropagatorConfig:
    """Time-stepping parameters for evolve."""

    dt: float
    T: float
    record_every: int = 100
    tol_drift: float = 1e-6

    def __post_init__(self):
        if self.dt == 0.0 or not math.isfinite(self.dt):
            raise ConfigurationError(
                f"dt must be nonzero and finite, got {self.dt}")
        if not 0.0 < self.T < math.inf:
            raise ConfigurationError(
                f"T must be positive and finite, got {self.T}")
        if self.record_every < 1:
            raise ConfigurationError(
                f"record_every must be >= 1, got {self.record_every}")
        if not 0.0 < self.tol_drift < math.inf:
            raise ConfigurationError(
                f"tol_drift must be positive and finite, got {self.tol_drift}")


def conserved_number(fields: FieldPair):
    """(N, N_a, N_m) with N = N_a + 2 N_m, trapezoid on the periodic grid."""
    dx = fields.grid.dx
    N_a = dx * float(np.sum(np.abs(fields.psi_a) ** 2))
    N_m = dx * float(np.sum(np.abs(fields.psi_m) ** 2))
    return N_a + 2.0 * N_m, N_a, N_m


def mean_field_energy(fields: FieldPair, params: CouplingParams) -> float:
    """Energy functional whose variation generates the evolution equations."""
    if params.epsilon is None:
        raise ConfigurationError("params.epsilon is required for the energy")
    grid = fields.grid
    require_power_of_two(grid, "mean_field_energy")
    psi = np.stack((fields.psi_a, fields.psi_m))
    d = np.fft.ifft(1j * grid.k() * np.fft.fft(psi))
    dd = d.real ** 2 + d.imag ** 2
    na, nm = psi.real ** 2 + psi.imag ** 2
    pa, pm = psi
    density = (0.5 * dd[0] + 0.25 * dd[1]
               + params.epsilon * nm
               + 0.5 * params.g_a * na ** 2 + 0.5 * params.g_m * nm ** 2
               + params.g_am * na * nm
               + (params.alpha / SQRT2) * 2.0 * np.real(np.conj(pm) * pa * pa))
    return grid.dx * float(np.sum(density))


def _sample(fields, params, t, abs_a0, abs_m0):
    N, N_a, N_m = conserved_number(fields)
    E = mean_field_energy(fields, params)
    drift_a = float(np.max(np.abs(np.abs(fields.psi_a) - abs_a0)))
    drift_m = float(np.max(np.abs(np.abs(fields.psi_m) - abs_m0)))
    return Diagnostics(t=t, N=N, N_a=N_a, N_m=N_m, E=E,
                       drift_a=drift_a, drift_m=drift_m)


def evolve(fields: FieldPair, params: CouplingParams,
           cfg: PropagatorConfig) -> list[Diagnostics]:
    """Propagate fields in place for T, sampling every record_every steps.

    Negative dt runs the same splitting backward (used by time-reversal
    checks).  Raises on non-finite values (blow-up) and when the total
    number N drifts past 100x tol_drift (instability).
    """
    if params.epsilon is None:
        raise ConfigurationError("params.epsilon is required to evolve")
    grid = fields.grid
    require_power_of_two(grid, "evolve")
    k = grid.k()
    k2 = k * k
    wrap = abs(cfg.dt) * float(np.max(k2)) / 2.0
    if wrap >= math.pi:
        raise ConfigurationError(
            f"dt*max(k)^2/2 = {wrap:.3f} >= pi: kinetic phase wraps; "
            "reduce dt or the grid resolution")

    dt = cfg.dt
    half = np.exp(np.multiply.outer([-0.25j, -0.125j], k2) * dt)
    full = half * half
    n_steps = int(round(cfg.T / abs(dt)))
    if n_steps < 1:
        raise ConfigurationError("T shorter than a single step")

    abs_a0 = np.abs(fields.psi_a)
    abs_m0 = np.abs(fields.psi_m)
    t0 = fields.t
    out = [_sample(fields, params, t0, abs_a0, abs_m0)]
    N0 = out[0].N

    # fields holds views of psi after a record point: never write into psi
    psi = np.stack((fields.psi_a, fields.psi_m))
    kick = half
    for step in range(1, n_steps + 1):
        # a blow-up is reported once, by the check below, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            psi = np.fft.ifft(kick * np.fft.fft(psi))
            psi = nonlinear_step(psi, dt, params.g_a, params.g_m,
                                 params.g_am, params.alpha, params.epsilon)
        if not np.isfinite(psi).all():
            raise BlowUpError(f"non-finite field values at step {step} "
                              f"(t = {t0 + step * dt:g})")
        kick = full
        if step % cfg.record_every == 0 or step == n_steps:
            psi = np.fft.ifft(half * np.fft.fft(psi))
            kick = half
            fields.psi_a, fields.psi_m = psi[0], psi[1]
            fields.t = t0 + step * dt
            out.append(_sample(fields, params, fields.t, abs_a0, abs_m0))
            if N0 != 0.0 and abs(out[-1].N - N0) / abs(N0) > \
                    INSTABILITY_FACTOR * cfg.tol_drift:
                raise InstabilityError(
                    f"relative N drift {abs(out[-1].N - N0) / abs(N0):.3e} "
                    f"at t = {fields.t:g} exceeds "
                    f"{INSTABILITY_FACTOR * cfg.tol_drift:g}")
    return out


def kernel_backend() -> str:
    """Which nonlinear-step implementation is active: the numpy one."""
    return "python"
