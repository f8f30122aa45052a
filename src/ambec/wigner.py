"""Wigner phase-space distributions and their interference/squeezing metrics.

Convention: W(x, p) = (1/pi) Integral psi*(x+y) psi(x-y) e^{2ipy} dy with
hbar = 1, evaluated per x row by a discrete Fourier transform over y on a
symmetric window as wide as the grid itself.  The kernel psi*(x+y) psi(x-y)
is sampled on the grid's own lattice (Hillery, O'Connell, Scully and
Wigner, Phys. Rep. 106, 121 (1984)): the profile is called once per point
of one y-spaced lattice per class of rows, and each row's W is the
half-spectrum inverse real FFT of its kernel.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .ansatz import is_truncated
from .core import Grid
from .errors import ConfigurationError, TruncationError

CONVENTION = "wigner-1d-hbar1-v1"

_CHUNK_VALUES = 1 << 18


@dataclass(frozen=True)
class WignerGrid:
    """Wigner values W[i, l] on the x[i] x p[l] lattice; norm = sum(W) dx dp."""

    x: np.ndarray
    p: np.ndarray
    W: np.ndarray
    dx: float
    dp: float
    norm: float
    convention: str = CONVENTION

    def marginal_x(self) -> np.ndarray:
        """Integral of W over p; matches |psi(x)|^2."""
        return self.W.sum(axis=1) * self.dp

    def marginal_p(self) -> np.ndarray:
        """Integral of W over x; matches the momentum density."""
        return self.W.sum(axis=0) * self.dx


def _boundary_check(values: np.ndarray, edges: np.ndarray) -> None:
    peak = float(np.max(np.abs(values)))
    edge = float(np.max(np.abs(edges)))
    if is_truncated(edge, peak):
        raise TruncationError(
            f"profile is {edge / peak:.3e} of its peak at the window edge; "
            "the correlation product would be clipped, widen the grid")


def wigner_transform(profile, grid: Grid, p_count: int | None = None) -> WignerGrid:
    """Wigner distribution of a 1D profile on a periodic grid of any n.

    profile is a callable psi(x), evaluated at every x +/- y the transform
    needs, so nothing wraps around the window edge.  The y window spans the
    full grid with p_count = m points (default: the grid's n), which must be
    even and at least 8, spaced dy; the p lattice is the conjugate of the y
    sampling.  With g = gcd(n, m), the rows fall into n/g classes of g rows
    each, and every x +/- y of a class lies on one dy-spaced lattice, where
    the profile is called once per point: 2n points in all when m = n, at
    most n (m + 1) for any m.  Since C(x, -y) = conj C(x, y), each row's
    kernel is formed for y >= 0 only and W comes from an irfft.  Rows are
    transformed in chunks of about _CHUNK_VALUES values, so memory stays
    bounded for a long p axis.  A sum of W that overflows (a grid near the
    top of the float range) raises ConfigurationError.
    """
    n = grid.n
    m = n if p_count is None else int(p_count)
    if m < 8 or m % 2:
        raise ConfigurationError(f"p_count must be even and >= 8, got {m}")
    x = grid.x()
    dy = (grid.x_max - grid.x_min) / m
    h = m // 2
    edges = np.array([grid.x_min, grid.x_max])

    psi = np.asarray(profile(x), dtype=complex)
    _boundary_check(psi, np.asarray(profile(edges), dtype=complex))

    # class c < b holds rows c + s b at x_c + s a dy; f is psi at x_c + q dy
    g = math.gcd(n, m)
    a, b = m // g, n // g
    q = np.arange(-h, (g - 1) * a + h + 1)
    k = np.arange(h + 1)
    # dy/pi weighs the sum over y; (-1)^k puts p = 0 at column h
    scale = (dy / math.pi) * np.where(k % 2 == 0, 1.0, -1.0)
    W = np.empty((n, m))
    per = max(1, _CHUNK_VALUES // m)  # rows per chunk
    step = max(1, per // g)  # classes per chunk
    for c0 in range(0, b, step):
        cls = np.arange(c0, min(c0 + step, b))
        f = np.asarray(profile(x[cls, None] + q * dy), dtype=complex)
        for s0 in range(0, g, per):
            s = np.arange(s0, min(s0 + per, g))
            t = (s * a + h)[:, None]  # the index of x_i in f
            # C(x_i, k dy) for k = 0..h; irfft takes C(x, -y) = conj C(x, y)
            C = np.conj(f[:, t + k]) * f[:, t - k] * scale
            W[cls[:, None] + s * b] = np.fft.irfft(C, m, norm="forward")

    dp = math.pi / (m * dy)
    p = (np.arange(m) - h) * dp
    try:
        with np.errstate(over="raise"):
            norm = float(np.sum(W)) * grid.dx * dp
    except FloatingPointError as e:
        raise ConfigurationError(f"Wigner norm overflows: {e}") from e
    return WignerGrid(x=x, p=p, W=W, dx=grid.dx, dp=dp, norm=norm)


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
    order, whose value lies within 1e-12 max|W| of it.  Each is found on W
    itself and divided by the norm.  A norm that is not positive, marginal
    variances that overflow, or Var(p) = 0 raise ConfigurationError.
    """
    W, dx, dp, norm = w.W, w.dx, w.dp, w.norm
    if not norm > 0.0:
        raise ConfigurationError(f"cannot normalize: norm = {norm:g}")

    try:
        with np.errstate(over="raise", invalid="raise"):
            P_x = w.marginal_x() / norm
            P_p = w.marginal_p() / norm
            mean_x = float(np.sum(w.x * P_x)) * dx
            mean_p = float(np.sum(w.p * P_p)) * dp
            var_x = float(np.sum((w.x - mean_x) ** 2 * P_x)) * dx
            var_p = float(np.sum((w.p - mean_p) ** 2 * P_p)) * dp
    except FloatingPointError as e:
        raise ConfigurationError(f"marginal variances overflow: {e}") from e
    if var_p == 0.0 or not math.isfinite(var_x / var_p):
        raise ConfigurationError(
            f"Var(x)/Var(p) = {var_x:g}/{var_p:g} is not finite")

    # W of a symmetric field has mirror-image minima that differ only by
    # rounding; report the first one (x-major) within 1e-12 of the scale of
    # W, so the location does not flip with the last bits of the input
    lo, hi = np.min(W), np.max(W)
    near = W <= lo + 1e-12 * max(hi, -lo)
    i_min, l_min = np.unravel_index(int(np.argmax(near)), W.shape)
    # the sum of W over W < 0, with no copy of those values
    neg = abs(np.einsum("il,il->", W, W < 0.0)) * dx * dp
    i0 = int(np.argmin(np.abs(w.x)))
    l0 = int(np.argmin(np.abs(w.p)))
    # numpy scalars, so a quotient that overflows obeys np.errstate
    return PhaseSpaceMetrics(
        var_x=var_x, var_p=var_p, ratio=var_x / var_p,
        w_min=float(lo / norm), w_min_x=float(w.x[i_min]),
        w_min_p=float(w.p[l_min]), negative_volume=float(neg / norm),
        w00=float(W[i0, l0] / norm))


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
