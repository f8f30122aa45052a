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

Each step transforms the fields once, after the substep.  Its spectrum F
feeds both kinetic phases: the next step starts from ifft(full F), and a
record point samples ifft(half F).  The sample's N comes from its
densities and the kinetic part of its energy from F itself, by Parseval,
since |half| = 1; so a record point costs one inverse transform more than
a plain step, not two transform pairs more.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import nonlinear_step
from .core import SQRT2, CouplingParams, Diagnostics, FieldPair, Grid
from .errors import BlowUpError, ConfigurationError, InstabilityError

#: N drift beyond this multiple of tol_drift aborts the run
INSTABILITY_FACTOR = 100.0

#: largest step count T/|dt| a run may ask for (hours at n = 2048)
MAX_STEPS = 1e9

#: points of a default grid: the CLI's --grid-n default but for wigner
GRID_N = 2048


def make_grid(L: float, n: int) -> Grid:
    """Uniform periodic grid on [-L, L) with n points."""
    if not L > 0.0:
        raise ConfigurationError(f"grid half-width must be positive, got {L}")
    return Grid(-float(L), float(L), n)


def default_half_width(beta: float) -> float:
    """Half-width wide enough that profiles with decay rate beta fit to 1e-12."""
    return max(20.0, 40.0 / beta)


def default_grid(beta: float, n: int = GRID_N) -> Grid:
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
        if not self.T / abs(self.dt) <= MAX_STEPS:
            raise ConfigurationError(
                f"step count T/|dt| = {self.T}/{abs(self.dt)} exceeds "
                f"{MAX_STEPS:.0e}")
        if self.record_every < 1:
            raise ConfigurationError(
                f"record_every must be >= 1, got {self.record_every}")
        if not 0.0 < self.tol_drift < math.inf:
            raise ConfigurationError(
                f"tol_drift must be positive and finite, got {self.tol_drift}")


def _kinetic_weights(k2):
    """Weights of the squared words of a (2, n) spectrum viewed as floats:
    k2/2 for psi_a's real and imaginary parts, k2/4 for psi_m's."""
    return np.repeat(np.multiply.outer([0.5, 0.25], k2), 2, axis=1)


def _moments(psi, dx, spectrum=None, weights=None, params=None):
    """(N_a, N_m, E) of the fields psi = (psi_a, psi_m): complex, C-ordered,
    of shape (2, n).

    E, which needs params, is the energy functional.  Its kinetic term
    comes from the spectrum, fft(psi) along axis 1 or that times any
    unit-modulus factor per mode (a kinetic step): by Parseval it is
    dx/n sum k^2 (|F_a|^2/2 + |F_m|^2/4), with _kinetic_weights(k^2) as
    weights.  Without params E is None.
    """
    sq = psi.view(float) ** 2
    dens = sq[:, 0::2] + sq[:, 1::2]
    N_a, N_m = (dx * dens.sum(axis=1)).tolist()
    if params is None:
        return N_a, N_m, None
    kinetic = spectrum.view(float) ** 2
    kinetic *= weights
    na, nm = dens
    local = na * (0.5 * params.g_a * na + params.g_am * nm)
    local += nm * (params.epsilon + 0.5 * params.g_m * nm)
    coupling = psi[0] * psi[0]
    coupling *= np.conj(psi[1])                 # conj(psi_m) psi_a^2
    E = (dx / psi.shape[1] * float(kinetic.sum())
         + dx * (float(local.sum())
                 + (params.alpha / SQRT2) * 2.0 * float(coupling.real.sum())))
    return N_a, N_m, E


def _stacked(fields: FieldPair) -> np.ndarray:
    """A new complex (2, n) array of (psi_a, psi_m)."""
    return np.stack((fields.psi_a, fields.psi_m)).astype(complex, copy=False)


def conserved_number(fields: FieldPair):
    """(N, N_a, N_m) with N = N_a + 2 N_m, trapezoid on the periodic grid."""
    N_a, N_m, _ = _moments(_stacked(fields), fields.grid.dx)
    return N_a + 2.0 * N_m, N_a, N_m


def mean_field_energy(fields: FieldPair, params: CouplingParams) -> float:
    """Energy functional whose variation generates the evolution equations."""
    if params.epsilon is None:
        raise ConfigurationError("params.epsilon is required for the energy")
    grid = fields.grid
    psi = _stacked(fields)
    return _moments(psi, grid.dx, np.fft.fft(psi),
                    _kinetic_weights(grid.k() ** 2), params)[2]


def _sample(t, psi, spectrum, weights, params, dx, abs0):
    """Diagnostics at time t of psi with its spectrum (as in _moments); the
    drifts are the largest changes of |psi_a| and |psi_m| from abs0."""
    N_a, N_m, E = _moments(psi, dx, spectrum, weights, params)
    drift = np.abs(psi)
    drift -= abs0
    drift_a, drift_m = np.abs(drift, out=drift).max(axis=1)
    return Diagnostics(t=t, N=N_a + 2.0 * N_m, N_a=N_a, N_m=N_m, E=E,
                       drift_a=float(drift_a), drift_m=float(drift_m))


def evolve(fields: FieldPair, params: CouplingParams,
           cfg: PropagatorConfig) -> list[Diagnostics]:
    """Propagate fields in place for T, sampling every record_every steps.

    Each step transforms the fields once after its nonlinear substep.  That
    spectrum F gives the next step's input, ifft(full kinetic step F), and
    at a record point also the sample, ifft(half kinetic step F), whose
    energy takes its kinetic term from F itself (see _moments).  The
    starting sample shares its spectrum with the first half kinetic step.

    Negative dt runs the same splitting backward (used by time-reversal
    checks).  Raises on non-finite values (blow-up) and when the total
    number N drifts past 100x tol_drift (instability).
    """
    if params.epsilon is None:
        raise ConfigurationError("params.epsilon is required to evolve")
    grid = fields.grid
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

    # fields holds views of psi after a record point: never write into psi
    psi = _stacked(fields)
    abs0 = np.abs(psi)
    t0 = fields.t
    F = np.fft.fft(psi)
    weights = _kinetic_weights(k2)
    out = [_sample(t0, psi, F, weights, params, grid.dx, abs0)]
    N0 = out[0].N

    kick = half
    for step in range(1, n_steps + 1):
        record = step % cfg.record_every == 0 or step == n_steps
        # a blow-up is reported once, by the check below, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            psi = nonlinear_step(np.fft.ifft(kick * F), dt, params.g_a,
                                 params.g_m, params.g_am, params.alpha,
                                 params.epsilon)
            F = np.fft.fft(psi)
            if record:
                psi = np.fft.ifft(half * F)
                out.append(_sample(t0 + step * dt, psi, F, weights, params,
                                   grid.dx, abs0))
        if not np.isfinite(F).all():
            raise BlowUpError(f"non-finite field values at step {step} "
                              f"(t = {t0 + step * dt:g})")
        kick = full
        if record:
            fields.psi_a, fields.psi_m = psi[0], psi[1]
            fields.t = out[-1].t
            if not (math.isfinite(out[-1].N) and math.isfinite(out[-1].E)):
                raise BlowUpError(f"non-finite N or E at step {step} "
                                  f"(t = {fields.t:g})")
            if N0 != 0.0 and abs(out[-1].N - N0) / abs(N0) > \
                    INSTABILITY_FACTOR * cfg.tol_drift:
                raise InstabilityError(
                    f"relative N drift {abs(out[-1].N - N0) / abs(N0):.3e} "
                    f"at t = {fields.t:g} exceeds "
                    f"{INSTABILITY_FACTOR * cfg.tol_drift:g}")
    return out
