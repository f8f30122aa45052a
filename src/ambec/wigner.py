"""Wigner phase-space distributions and their interference/squeezing metrics.

Convention: W(x, p) = (1/pi) Integral psi*(x+y) psi(x-y) e^{2ipy} dy with
hbar = 1, evaluated per x row by a discrete Fourier transform over y on a
symmetric window as wide as the grid itself.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import Grid
from .errors import ConfigurationError, TruncationError

CONVENTION = "wigner-1d-hbar1-v1"

#: boundary amplitude above this fraction of peak clips the correlation window
CLIP_LIMIT = 1e-12

_CHUNK_VALUES = 1 << 18


@dataclass(frozen=True)
class WignerGrid:
    """Dense Wigner values W[i, l] on the x[i] x p[l] lattice."""

    x: np.ndarray
    p: np.ndarray
    W: np.ndarray
    norm: float
    convention: str = CONVENTION

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dp(self) -> float:
        return float(self.p[1] - self.p[0])

    def marginal_x(self) -> np.ndarray:
        """Integral of W over p; matches |psi(x)|^2."""
        return self.W.sum(axis=1) * self.dp

    def marginal_p(self) -> np.ndarray:
        """Integral of W over x; matches the momentum density."""
        return self.W.sum(axis=0) * self.dx


def _boundary_check(values: np.ndarray, edges: np.ndarray) -> None:
    peak = float(np.max(np.abs(values)))
    edge = float(np.max(np.abs(edges)))
    if peak > 0.0 and edge > CLIP_LIMIT * peak:
        raise TruncationError(
            f"profile is {edge / peak:.3e} of its peak at the window edge; "
            "the correlation product would be clipped, widen the grid")


def wigner_transform(profile, grid: Grid, p_count: int | None = None) -> WignerGrid:
    """Wigner distribution of a 1D profile on a periodic grid.

    profile is either an array sampled on the grid (then p_count must equal
    the grid size, so correlations land on lattice points) or a callable
    psi(x) evaluated exactly where needed.  The y window spans the full
    grid; the p lattice is the conjugate of the y sampling.
    """
    n = grid.n
    m = n if p_count is None else int(p_count)
    if m < 8 or m % 2:
        raise ConfigurationError(f"p_count must be even and >= 8, got {m}")
    x = grid.x()
    span = grid.x_max - grid.x_min
    dy = span / m
    h = m // 2
    y = (np.arange(m) - h) * dy
    edges = np.array([grid.x_min, grid.x_max])

    if callable(profile):
        psi = np.asarray(profile(x), dtype=complex)
        _boundary_check(psi, np.asarray(profile(edges), dtype=complex))

        def correlation(rows):
            xp = x[rows, None] + y[None, :]
            xm = x[rows, None] - y[None, :]
            return np.conj(np.asarray(profile(xp), dtype=complex)) \
                * np.asarray(profile(xm), dtype=complex)
    else:
        psi = np.asarray(profile, dtype=complex)
        if psi.shape != (n,):
            raise ConfigurationError(
                f"profile shape {psi.shape} does not match the grid ({n},)")
        if m != n:
            raise ConfigurationError(
                "array profiles need p_count == grid.n so x +/- y stays "
                "on the lattice; pass a callable for other p counts")
        _boundary_check(psi, psi[[0, -1]])
        offsets = np.arange(m) - h

        def correlation(rows):
            idx_p = (rows[:, None] + offsets[None, :]) % n
            idx_m = (rows[:, None] - offsets[None, :]) % n
            return np.conj(psi[idx_p]) * psi[idx_m]

    alt = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    sign = np.where((np.arange(m) + h) % 2 == 0, 1.0, -1.0)
    W = np.empty((n, m))
    chunk = max(1, _CHUNK_VALUES // m)
    for start in range(0, n, chunk):
        rows = np.arange(start, min(start + chunk, n))
        C = correlation(rows)
        S = sign * (m * np.fft.ifft(C * alt, axis=1))
        W[rows] = (dy / math.pi) * np.real(S)

    p = (np.arange(m) - h) * (math.pi / (m * dy))
    dp = math.pi / (m * dy)
    norm = float(np.sum(W)) * grid.dx * dp
    return WignerGrid(x=x, p=p, W=W, norm=norm)


@dataclass(frozen=True)
class PhaseSpaceMetrics:
    """Marginal variances, extrema and negativity of a Wigner distribution."""

    var_x: float
    var_p: float
    ratio: float
    w_min: float
    w_min_x: float
    w_min_p: float
    negative_volume: float
    w00: float
    convention: str = CONVENTION

    def to_dict(self) -> dict:
        return asdict(self)


def phase_space_metrics(w: WignerGrid) -> PhaseSpaceMetrics:
    """Metrics of W rescaled to unit norm.

    Var(x), Var(p) come from the marginals; ratio = Var(x)/Var(p) is the
    squeezing proxy; negative_volume integrates |W| over the W < 0 region;
    w00 is the value at the lattice point nearest the origin.  w_min is the
    minimum of W; (w_min_x, w_min_p) is the first lattice point, in x-major
    order, whose value lies within 1e-12 max|W| of it.
    """
    if not w.norm > 0.0:
        raise ConfigurationError(f"cannot normalize: norm = {w.norm:g}")
    W = w.W / w.norm
    dx, dp = w.dx, w.dp

    P_x = W.sum(axis=1) * dp
    P_p = W.sum(axis=0) * dx
    mean_x = float(np.sum(w.x * P_x)) * dx
    mean_p = float(np.sum(w.p * P_p)) * dp
    var_x = float(np.sum((w.x - mean_x) ** 2 * P_x)) * dx
    var_p = float(np.sum((w.p - mean_p) ** 2 * P_p)) * dp

    # W of a symmetric field has mirror-image minima that differ only by
    # rounding; report the first one (x-major) within 1e-12 of the scale of
    # W, so the location does not flip with the last bits of the input
    w_min = float(np.min(W))
    near = W <= w_min + 1e-12 * float(np.max(np.abs(W)))
    i_min, l_min = np.unravel_index(int(np.argmax(near)), W.shape)
    neg = float(np.sum(np.abs(np.minimum(W, 0.0)))) * dx * dp
    i0 = int(np.argmin(np.abs(w.x)))
    l0 = int(np.argmin(np.abs(w.p)))
    return PhaseSpaceMetrics(
        var_x=var_x, var_p=var_p, ratio=var_x / var_p,
        w_min=w_min, w_min_x=float(w.x[i_min]),
        w_min_p=float(w.p[l_min]), negative_volume=neg,
        w00=float(W[i0, l0]))


def fringe_spacing(w: WignerGrid) -> float:
    """Mean p-distance between adjacent fringe maxima along the x = 0 row.

    For superposed profiles with peak separation 2s the spacing is pi/s.
    """
    i0 = int(np.argmin(np.abs(w.x)))
    row = w.W[i0]
    floor = 0.01 * float(np.max(row))
    inner = slice(1, len(row) - 1)
    is_max = ((row[inner] > row[:-2]) & (row[inner] > row[2:])
              & (row[inner] > floor))
    peaks = np.nonzero(is_max)[0] + 1
    if len(peaks) < 2:
        raise ConfigurationError(
            "fewer than two fringe maxima at x = 0; not an interference row")
    return float(np.mean(np.diff(w.p[peaks])))
