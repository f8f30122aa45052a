"""Phase-space transform against closed-form and frozen oracle values."""
import math

import numpy as np
import pytest

from ambec.ansatz import rational_profile, superposed_profile
from ambec.core import Grid
from ambec.errors import ConfigurationError, TruncationError
from ambec.wigner import (CONVENTION, WignerGrid, fringe_spacing,
                          phase_space_metrics, wigner_transform)


def _gaussian(x):
    return math.pi ** -0.25 * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)


def _cat_window(beta, delta):
    L = delta / beta + 32.0 / beta
    return Grid(-L, L, 1024)


@pytest.fixture(scope="module")
def gauss_w():
    return wigner_transform(_gaussian, Grid(-12.0, 12.0, 512))


@pytest.fixture(scope="module")
def even_cat_w():
    g = _cat_window(1.0, 6.219)
    return wigner_transform(
        lambda x: superposed_profile("bright_even", 1.0, 6.219, x), g)


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
            WignerGrid(x=w.x, p=w.p, W=W, norm=w.norm))
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

    def test_array_profile_matches_callable(self):
        # the wrapped index path carries the usual periodic-image ghost at
        # the window edge, so compare away from it
        g = Grid(-12.0, 12.0, 256)
        w_arr = wigner_transform(_gaussian(g.x()), g)
        w_fun = wigner_transform(_gaussian, g)
        inner = np.abs(w_fun.x) <= 6.0
        diff = np.max(np.abs(w_arr.W[inner] - w_fun.W[inner]))
        assert diff < 1e-12 * np.max(w_fun.W)

    def test_array_profile_rejects_other_p_count(self):
        g = Grid(-12.0, 12.0, 256)
        with pytest.raises(ConfigurationError):
            wigner_transform(_gaussian(g.x()), g, p_count=512)

    def test_bad_p_counts(self):
        g = Grid(-12.0, 12.0, 256)
        with pytest.raises(ConfigurationError):
            wigner_transform(_gaussian, g, p_count=255)
        with pytest.raises(ConfigurationError):
            wigner_transform(_gaussian, g, p_count=6)

    def test_wrong_shape_rejected(self):
        g = Grid(-12.0, 12.0, 256)
        with pytest.raises(ConfigurationError):
            wigner_transform(np.zeros(200), g)

    def test_undecayed_profile_rejected(self):
        g = Grid(-10.0, 10.0, 256)
        with pytest.raises(TruncationError):
            wigner_transform(lambda x: np.exp(-x ** 2 / 200.0), g)

    def test_zero_norm_cannot_be_normalized(self, gauss_w):
        blank = WignerGrid(x=gauss_w.x, p=gauss_w.p,
                           W=np.zeros_like(gauss_w.W), norm=0.0)
        with pytest.raises(ConfigurationError):
            phase_space_metrics(blank)
