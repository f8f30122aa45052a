"""Phase-space transform against closed-form and frozen oracle values."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambec.ansatz import SUPERPOSED_KINDS, rational_profile, superposed_profile
from ambec.core import Grid
from ambec.errors import ConfigurationError, TruncationError
from ambec.wigner import (CONVENTION, WignerGrid, fringe_spacing,
                          phase_space_metrics, wigner_transform)


def _gaussian(x):
    return math.pi ** -0.25 * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)


def _cat_window(beta, delta, n=1024):
    L = delta / beta + 32.0 / beta
    return Grid(-L, L, n)


def _cat(x):
    return superposed_profile("bright_even", 1.0, 6.219, x)


def _family_III(x):
    return rational_profile("III", 1.0, 3.0, 1.0, x)


def reference_wigner(profile, grid, p_count=None):
    """(W, norm) by the direct sum: C(x_i, y_j) from the profile at every
    x_i + y_j and x_i - y_j, one full complex ifft per row."""
    n = grid.n
    m = n if p_count is None else p_count
    x = grid.x()
    dy = (grid.x_max - grid.x_min) / m
    h = m // 2
    y = (np.arange(m) - h) * dy
    C = (np.conj(np.asarray(profile(x[:, None] + y), dtype=complex))
         * np.asarray(profile(x[:, None] - y), dtype=complex))
    alt = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    sign = np.where((np.arange(m) + h) % 2 == 0, 1.0, -1.0)
    W = (dy / math.pi) * np.real(sign * (m * np.fft.ifft(C * alt, axis=1)))
    return W, float(np.sum(W)) * grid.dx * math.pi / (m * dy)


def reference_metrics(w):
    """The metrics as a dict, on a normalized copy of W, with spacings
    taken as differences of the coordinate arrays."""
    if not w.norm > 0.0:
        raise ConfigurationError(f"cannot normalize: norm = {w.norm:g}")
    W = w.W / w.norm
    dx, dp = float(w.x[1] - w.x[0]), float(w.p[1] - w.p[0])
    P_x = W.sum(axis=1) * dp
    P_p = W.sum(axis=0) * dx
    mean_x = float(np.sum(w.x * P_x)) * dx
    mean_p = float(np.sum(w.p * P_p)) * dp
    var_x = float(np.sum((w.x - mean_x) ** 2 * P_x)) * dx
    var_p = float(np.sum((w.p - mean_p) ** 2 * P_p)) * dp
    w_min = float(np.min(W))
    near = W <= w_min + 1e-12 * float(np.max(np.abs(W)))
    i_min, l_min = np.unravel_index(int(np.argmax(near)), W.shape)
    neg = float(np.sum(np.abs(np.minimum(W, 0.0)))) * dx * dp
    i0 = int(np.argmin(np.abs(w.x)))
    l0 = int(np.argmin(np.abs(w.p)))
    return dict(var_x=var_x, var_p=var_p, ratio=var_x / var_p, w_min=w_min,
                w_min_x=float(w.x[i_min]), w_min_p=float(w.p[l_min]),
                negative_volume=neg, w00=float(W[i0, l0]),
                convention=CONVENTION)


def _moving_gaussian(x):
    return _gaussian(x) * np.exp(0.7j * np.asarray(x, dtype=float))


#: each oracle profile with a window it has decayed in; the Gaussian moves,
#: so its kernel is complex
PROFILES = {
    "gaussian": (_moving_gaussian, 12.0),
    "bright_even": (_cat, 6.219 + 32.0),
    "family_III": (_family_III, 40.0),
}


@pytest.fixture(scope="module")
def gauss_w():
    return wigner_transform(_gaussian, Grid(-12.0, 12.0, 512))


@pytest.fixture(scope="module")
def even_cat_w():
    g = _cat_window(1.0, 6.219)
    return wigner_transform(_cat, g)


@pytest.fixture(scope="module")
def odd_cat_w():
    g = _cat_window(1.414, 6.21077)
    return wigner_transform(
        lambda x: superposed_profile("bright_odd", 1.414, 6.21077, x), g)


class TestGaussianOracle:
    def test_matches_closed_form(self, gauss_w):
        w = gauss_w
        exact = (1.0 / math.pi) * np.exp(-w.x[:, None] ** 2 - w.p[None, :] ** 2)
        assert np.max(np.abs(w.W - exact)) < 1e-8

    def test_axes_contain_origin(self, gauss_w):
        assert 0.0 in gauss_w.x and 0.0 in gauss_w.p

    def test_unit_variances(self, gauss_w):
        m = phase_space_metrics(gauss_w)
        assert m.var_x == pytest.approx(0.5, abs=1e-10)
        assert m.var_p == pytest.approx(0.5, abs=1e-10)
        assert m.ratio == pytest.approx(1.0, abs=1e-9)
        assert m.negative_volume < 1e-12
        assert m.convention == CONVENTION

    def test_marginals(self, gauss_w):
        w = gauss_w
        dens = np.abs(_gaussian(w.x)) ** 2
        assert np.max(np.abs(w.marginal_x() - dens)) < 1e-6
        phases = np.exp(-1j * np.outer(w.p, w.x))
        psi_p = w.dx * phases @ _gaussian(w.x) / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(w.marginal_p() - np.abs(psi_p) ** 2)) < 1e-6

    def test_norm_equals_density_integral(self, gauss_w):
        w = gauss_w
        dens = w.dx * float(np.sum(np.abs(_gaussian(w.x)) ** 2))
        assert w.norm == pytest.approx(dens, rel=1e-12)

    def test_no_fringes_in_a_single_packet(self, gauss_w):
        with pytest.raises(ConfigurationError):
            fringe_spacing(gauss_w)


class TestCatStates:
    def test_even_central_peak(self, even_cat_w):
        m = phase_space_metrics(even_cat_w)
        assert m.w00 > 0
        assert m.w00 * math.pi == pytest.approx(1.0, rel=1e-6)
        assert m.negative_volume == pytest.approx(0.327770630263, rel=1e-9)

    def test_even_fringe_spacing(self, even_cat_w):
        s = 6.219
        assert fringe_spacing(even_cat_w) == pytest.approx(math.pi / s, rel=0.05)

    def test_even_parity(self, even_cat_w):
        W = even_cat_w.W
        scale = np.max(np.abs(W))
        assert np.max(np.abs(W[1:, :] - W[:0:-1, :])) < 1e-12 * scale
        assert np.max(np.abs(W[:, 1:] - W[:, :0:-1])) < 1e-12 * scale

    def test_odd_central_dip(self, odd_cat_w):
        m = phase_space_metrics(odd_cat_w)
        assert m.w00 < 0
        assert m.w00 * math.pi == pytest.approx(-1.0, rel=1e-6)
        assert m.negative_volume == pytest.approx(0.328398532371, rel=1e-9)
        assert m.w_min_x == 0.0 and m.w_min_p == 0.0

    def test_minimum_location_ignores_rounding_between_mirrors(self,
                                                               even_cat_w):
        # the even cat's minima sit at p = -p0 and p = +p0; nudging either
        # one down by a few ulps must not move the reported location
        w = even_cat_w
        first = phase_space_metrics(w)
        assert first.w_min_p < 0.0
        l_mirror = int(np.argmin(np.abs(w.p + first.w_min_p)))
        i = int(np.argmin(np.abs(w.x - first.w_min_x)))
        W = w.W.copy()
        W[i, l_mirror] -= 4e-16 * abs(W[i, l_mirror])
        nudged = phase_space_metrics(
            WignerGrid(x=w.x, p=w.p, W=W, dx=w.dx, dp=w.dp, norm=w.norm))
        assert (nudged.w_min_x, nudged.w_min_p) == (first.w_min_x,
                                                    first.w_min_p)
        assert nudged.w_min == W[i, l_mirror] / w.norm

    def test_odd_fringe_spacing(self, odd_cat_w):
        s = 6.21077 / 1.414
        assert fringe_spacing(odd_cat_w) == pytest.approx(math.pi / s, rel=0.05)


class TestDropletSqueezing:
    B = math.sinh(7.2545) ** 2
    beta = 2.1089

    def _profile(self, x):
        return rational_profile("I", 1.0, self.B, self.beta, x)

    def test_frozen_variance_ratio(self):
        w = wigner_transform(self._profile, Grid(-20.0, 20.0, 2048))
        m = phase_space_metrics(w)
        assert m.ratio == pytest.approx(16.1534017292, rel=1e-6)
        assert abs(m.ratio - 1.0) > 0.1

    def test_p_refinement_is_converged(self):
        g = Grid(-20.0, 20.0, 2048)
        r1 = phase_space_metrics(wigner_transform(self._profile, g)).ratio
        r2 = phase_space_metrics(
            wigner_transform(self._profile, g, p_count=4096)).ratio
        assert abs(r2 - r1) < 1e-6 * r1


class TestInputHandling:
    def test_real_profile_momentum_symmetry(self, gauss_w):
        W = gauss_w.W
        assert np.max(np.abs(W[:, 1:] - W[:, :0:-1])) < 1e-12 * np.max(W)

    def test_bad_p_counts(self):
        g = Grid(-12.0, 12.0, 256)
        with pytest.raises(ConfigurationError):
            wigner_transform(_gaussian, g, p_count=255)
        with pytest.raises(ConfigurationError):
            wigner_transform(_gaussian, g, p_count=6)

    def test_undecayed_profile_rejected(self):
        g = Grid(-10.0, 10.0, 256)
        with pytest.raises(TruncationError):
            wigner_transform(lambda x: np.exp(-x ** 2 / 200.0), g)

    def test_zero_norm_cannot_be_normalized(self, gauss_w):
        blank = WignerGrid(x=gauss_w.x, p=gauss_w.p,
                           W=np.zeros_like(gauss_w.W), dx=gauss_w.dx,
                           dp=gauss_w.dp, norm=0.0)
        with pytest.raises(ConfigurationError):
            phase_space_metrics(blank)

    def test_zero_momentum_variance(self):
        # all weight in the p = 0 column: Var(p) = 0, so no ratio
        x = np.arange(-4.0, 4.0)
        p = np.arange(-4.0, 4.0)
        W = np.zeros((8, 8))
        W[:, 4] = np.exp(-x ** 2)
        w = WignerGrid(x=x, p=p, W=W, dx=1.0, dp=1.0,
                       norm=float(np.sum(W)))
        with pytest.raises(ConfigurationError, match="not finite"):
            phase_space_metrics(w)


class TestLatticeTransform:
    """The transform evaluates the profile on one dy-lattice per row class
    and takes W from a half-spectrum irfft; the direct sum is its oracle."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(name=st.sampled_from(sorted(PROFILES)), n=st.integers(8, 96),
           h=st.integers(4, 128))
    def test_matches_direct_sum(self, name, n, h):
        profile, L = PROFILES[name]
        grid = Grid(-L, L, n)
        w = wigner_transform(profile, grid, p_count=2 * h)
        W, norm = reference_wigner(profile, grid, 2 * h)
        scale = float(np.max(np.abs(W)))
        assert np.max(np.abs(w.W - W)) <= 1e-13 * scale
        assert w.norm == pytest.approx(norm, rel=1e-13)

    @pytest.mark.parametrize("n, p_count", [
        (8, None), (64, None), (512, None), (63, 64), (63, 8), (97, 10),
        (96, 256), (512, 300), (512, 4094), (512, 4096)])
    def test_profile_evaluation_count(self, n, p_count):
        asked = []

        def counted(x):
            asked.append(np.size(x))
            return _cat(x)

        wigner_transform(counted, _cat_window(1.0, 6.219, n), p_count)
        m = n if p_count is None else p_count
        assert sum(asked) <= n * m + 2 * n + 2
        if m == n:
            assert sum(asked) <= 3 * n + 2

    @pytest.mark.parametrize("p_count", [4094, 4096])
    def test_peak_memory_of_a_long_p_axis(self, p_count):
        # the direct sum over chunks of rows (reference_wigner, chunked)
        # peaked at 48.33 MB at both p_counts; W itself is 16.8 MB of that
        grid = _cat_window(1.0, 6.219, 512)
        tracemalloc.start()
        try:
            wigner_transform(_cat, grid, p_count=p_count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48.3e6


class TestMetrics:
    """The metrics read WignerGrid's spacings and marginals and find the
    extrema on W itself; reference_metrics, on a normalized copy, is their
    oracle."""

    def test_spacings_are_the_transforms(self):
        grid = _cat_window(1.0, 6.219, 512)  # the README cat lattice
        w = wigner_transform(_cat, grid)
        assert w.dx == grid.dx
        assert w.dp == math.pi / (512 * grid.dx)
        assert float(np.sum(w.W)) * w.dx * w.dp == w.norm

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(kind=st.sampled_from(SUPERPOSED_KINDS),
           beta=st.floats(0.3, 3.0), delta=st.floats(0.5, 8.0),
           n=st.integers(9, 97), h=st.integers(4, 64))
    def test_matches_normalized_copy(self, kind, beta, delta, n, h):
        L = (delta + 40.0) / beta  # decayed even at the coarsest n
        grid = Grid(-L, L, n)
        w = wigner_transform(
            lambda x: superposed_profile(kind, beta, delta, x), grid,
            p_count=2 * h)
        want = reference_metrics(w)
        got = phase_space_metrics(w).to_dict()
        exact = ("w_min", "w_min_x", "w_min_p", "w00", "convention")
        assert {k: got[k] for k in exact} == {k: want[k] for k in exact}
        for key in sorted(set(want) - set(exact)):
            assert got[key] == pytest.approx(want[key], rel=1e-12), key
