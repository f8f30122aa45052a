"""Effective potentials, eigen residuals, and well-shape metrics."""
import math

import numpy as np
import pytest

from ambec.ansatz import mu_critical
from ambec.consistency import solve_family_I
from ambec.core import CouplingParams, Grid
from ambec.errors import ConfigurationError, TruncationError
from ambec.potentials import (eigen_residuals, flatness_metric, quartic_fit,
                              second_derivative, self_consistent_potentials,
                              well_shape)


def _grid_for(record, n=2048):
    L = max(20.0, 40.0 / record.beta)
    return Grid(-L, L, n)


class TestEigenResiduals:
    def test_all_reference_records_satisfy_gate(self, all_records):
        for name, rec in all_records.items():
            L = 40.0 / rec.beta
            r_a, r_m = eigen_residuals(rec, Grid(-L, L, 2048))
            assert r_a < 1e-8 and r_m < 1e-8, (name, r_a, r_m)

    def test_finite_difference_fallback_agrees(self, fam1_record):
        r_spec = eigen_residuals(fam1_record, _grid_for(fam1_record, 2048))
        r_fd = eigen_residuals(fam1_record, _grid_for(fam1_record, 2000))
        assert max(r_fd) < 1e-4
        assert max(r_spec) < max(r_fd)

    def test_narrow_grid_rejected(self, fam1_record):
        with pytest.raises(TruncationError):
            eigen_residuals(fam1_record, Grid(-5.0, 5.0, 512))

    def test_perturbed_eigenvalue_detected(self, fam1_record):
        import dataclasses
        off = dataclasses.replace(fam1_record, mu=fam1_record.mu * (1 + 1e-4))
        r_a, _ = eigen_residuals(off, _grid_for(fam1_record))
        assert r_a > 1e-6


class TestPotentialShapes:
    def test_atomic_potential_is_even(self, all_records):
        for rec in all_records.values():
            pair = self_consistent_potentials(rec, _grid_for(rec))
            scale = np.max(np.abs(pair.V_a))
            assert np.max(np.abs(pair.V_a[1:] - pair.V_a[:0:-1])) < 1e-13 * scale

    def test_double_wells_and_barrier_ordering(self, all_records):
        shapes = {}
        for name in ("II-high", "II-low", "III-high", "III-low"):
            rec = all_records[name]
            pair = self_consistent_potentials(rec, _grid_for(rec))
            shapes[name] = well_shape(pair.V_a, _grid_for(rec), rec.beta)
        for name, ws in shapes.items():
            assert ws.kind == "double_well", name
            assert ws.barrier > 0 and ws.x_min > 0, name
        assert shapes["II-high"].barrier > shapes["II-low"].barrier
        assert shapes["III-high"].barrier > shapes["III-low"].barrier

    def test_minima_locations_track_separation(self, fam2_high_record):
        rec = fam2_high_record
        grid = _grid_for(rec)
        ws = well_shape(self_consistent_potentials(rec, grid).V_a, grid, rec.beta)
        assert ws.x_min == pytest.approx(rec.delta / rec.beta, rel=0.05)

    def test_small_width_droplet_is_harmonic(self, fam1_record):
        grid = _grid_for(fam1_record)
        pair = self_consistent_potentials(fam1_record, grid)
        assert well_shape(pair.V_m, grid, fam1_record.beta).kind == "harmonic"

    def test_mild_quartic_well_is_intermediate(self):
        # flatness 0.032, between the harmonic and box thresholds
        grid = Grid(-5.0, 5.0, 512)
        x = grid.x()
        assert well_shape(x ** 2 + 0.1 * x ** 4, grid, 1.0).kind == (
            "intermediate")

    def test_near_critical_droplet_is_box(self):
        mu = -80.0 / 9.0 * 0.93
        rec = solve_family_I(3.0, -2.8, 2.0, math.sqrt(-mu / 2.0))
        grid = _grid_for(rec)
        pair = self_consistent_potentials(rec, grid)
        assert well_shape(pair.V_m, grid, rec.beta).kind == "box"


class TestFlatness:
    def test_monotone_along_chemical_potential_sweep(self):
        mu0 = mu_critical(CouplingParams(3.0, None, -2.8, 2.0))
        values = []
        for f in np.linspace(0.05, 0.95, 20):
            beta = math.sqrt(-mu0 * f / 2.0)
            rec = solve_family_I(3.0, -2.8, 2.0, beta)
            values.append(flatness_metric(rec, _grid_for(rec)))
        assert np.all(np.diff(values) > 0)

    def test_quartic_fit_recovers_polynomial(self):
        g = Grid(-2.0, 2.0, 512)
        x = g.x()
        V = 0.7 - 1.3 * x ** 2 + 0.25 * x ** 4
        c0, c2, c4 = quartic_fit(x, V, 1.5)
        assert (c0, c2, c4) == pytest.approx((0.7, -1.3, 0.25), abs=1e-10)

    def test_fit_window_needs_points(self):
        g = Grid(-50.0, 50.0, 64)
        with pytest.raises(ConfigurationError):
            quartic_fit(g.x(), np.zeros(64), 1e-3)


class TestSecondDerivative:
    @pytest.mark.parametrize("n", [64, 96, 100, 101])
    def test_spectral_exact_for_band_limited(self, n):
        g = Grid(-math.pi, math.pi, n)
        x = g.x()
        f = np.sin(3.0 * x)
        assert np.max(np.abs(second_derivative(f, g) + 9.0 * f)) < 1e-10
