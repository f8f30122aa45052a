"""Split-step propagation: conservation, phase evolution, reversibility."""
import math

import numpy as np
import pytest

from ambec._kernels import nonlinear_step
from ambec.ansatz import sample_fields
from ambec.core import CouplingParams, FieldPair, Grid
from ambec.dynamics import (PropagatorConfig, conserved_number, default_grid,
                            evolve, kernel_backend, make_grid,
                            mean_field_energy)
from ambec.errors import BlowUpError, ConfigurationError, InstabilityError


def _fields(record, n=512):
    grid = default_grid(record.beta, n)
    return sample_fields(record, grid), grid


class TestSetupValidation:
    def test_make_grid_is_symmetric(self):
        g = make_grid(12.5, 256)
        assert (g.x_min, g.x_max, g.n) == (-12.5, 12.5, 256)

    def test_make_grid_rejects_bad_input(self):
        with pytest.raises(ConfigurationError):
            make_grid(-1.0, 256)
        with pytest.raises(ConfigurationError):
            make_grid(10.0, 300)

    def test_default_grid_widens_for_shallow_states(self):
        assert default_grid(0.25).x_max == 160.0
        assert default_grid(10.0).x_max == 20.0

    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.0, T=1.0),
        dict(dt=float("nan"), T=1.0),
        dict(dt=1e-3, T=-1.0),
        dict(dt=1e-3, T=1.0, record_every=0),
        dict(dt=1e-3, T=1.0, tol_drift=0.0),
    ])
    def test_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            PropagatorConfig(**kwargs)

    def test_kinetic_wrap_guard(self, fam1_record):
        fields, _ = _fields(fam1_record, 4096)
        cfg = PropagatorConfig(dt=0.05, T=1.0)
        with pytest.raises(ConfigurationError, match="wrap"):
            evolve(fields, fam1_record.params, cfg)


class TestConservedQuantities:
    def test_zero_fields(self):
        g = Grid(-10.0, 10.0, 64)
        z = FieldPair(g, np.zeros(64), np.zeros(64))
        assert conserved_number(z) == (0.0, 0.0, 0.0)
        assert mean_field_energy(z, CouplingParams(1.0, 1.0, 1.0, 1.0, 1.0)) == 0.0

    def test_droplet_component_numbers_match(self, fam1_record):
        # family I locks D = -A, so both densities integrate identically
        fields, _ = _fields(fam1_record)
        N, N_a, N_m = conserved_number(fields)
        assert N_a == pytest.approx(N_m, rel=1e-12)
        assert N == pytest.approx(N_a + 2.0 * N_m, rel=1e-14)

    def test_energy_is_variational(self, fam1_record):
        rec = fam1_record
        grid = default_grid(rec.beta, 1024)
        base = sample_fields(rec, grid)
        params = rec.params
        x, k = grid.x(), grid.k()
        env = np.exp(-0.5 * (x / 3.0) ** 2)
        chi_a = env * (0.3 + 0.2j * x)
        chi_m = env * (0.1 * x - 0.4j)

        def energy(eps):
            f = FieldPair(grid, base.psi_a + eps * chi_a,
                          base.psi_m + eps * chi_m)
            return mean_field_energy(f, params)

        h = 1e-6
        numeric = (energy(h) - energy(-h)) / (2.0 * h)

        def dxx(f):
            return np.fft.ifft(-(k ** 2) * np.fft.fft(f))

        n_a = np.abs(base.psi_a) ** 2
        n_m = np.abs(base.psi_m) ** 2
        rhs_a = (-0.5 * dxx(base.psi_a)
                 + (params.g_a * n_a + params.g_am * n_m) * base.psi_a
                 + math.sqrt(2.0) * params.alpha * base.psi_m
                 * np.conj(base.psi_a))
        rhs_m = (-0.25 * dxx(base.psi_m)
                 + (params.epsilon + params.g_m * n_m + params.g_am * n_a)
                 * base.psi_m
                 + params.alpha / math.sqrt(2.0) * base.psi_a ** 2)
        analytic = 2.0 * grid.dx * float(np.sum(
            (np.conj(chi_a) * rhs_a + np.conj(chi_m) * rhs_m).real))
        assert numeric == pytest.approx(analytic, rel=1e-6)


class TestStationaryEvolution:
    def test_short_run_drift(self, fam1_record):
        fields, _ = _fields(fam1_record, 1024)
        cfg = PropagatorConfig(dt=1e-3, T=1.0)
        diags = evolve(fields, fam1_record.params, cfg)
        last = diags[-1]
        assert last.drift_a < 1e-7 and last.drift_m < 1e-7
        assert abs(last.N - diags[0].N) / diags[0].N < 1e-12
        assert abs(last.E - diags[0].E) < 1e-10 * max(1.0, abs(diags[0].E))

    def test_phase_rotation_law(self, fam1_record):
        rec = fam1_record
        grid = default_grid(rec.beta, 1024)
        fields = sample_fields(rec, grid)
        evolve(fields, rec.params, PropagatorConfig(dt=4e-3, T=2.0))
        expect = sample_fields(rec, grid, t=2.0)
        assert np.max(np.abs(fields.psi_a - expect.psi_a)) < 1e-6
        assert np.max(np.abs(fields.psi_m - expect.psi_m)) < 1e-6

    def test_sampling_schedule(self, fam1_record):
        fields, _ = _fields(fam1_record)
        cfg = PropagatorConfig(dt=1e-3, T=0.1, record_every=30)
        diags = evolve(fields, fam1_record.params, cfg)
        assert [round(d.t, 9) for d in diags] == [0.0, 0.03, 0.06, 0.09, 0.1]
        assert fields.t == pytest.approx(0.1)

    def test_time_reversal(self, fam1_record):
        fields, _ = _fields(fam1_record)
        start = fields.copy()
        evolve(fields, fam1_record.params, PropagatorConfig(dt=1e-3, T=0.5))
        evolve(fields, fam1_record.params, PropagatorConfig(dt=-1e-3, T=0.5))
        assert fields.t == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(fields.psi_a - start.psi_a)) < 1e-7
        assert np.max(np.abs(fields.psi_m - start.psi_m)) < 1e-7


class TestDecoupledLimit:
    def test_bright_soliton_survives(self):
        # alpha = 0 turns the atomic equation into plain attractive NLS
        grid = make_grid(20.0, 512)
        x = grid.x()
        psi_a = 1.0 / np.cosh(x) + 0j
        fields = FieldPair(grid, psi_a, np.zeros_like(psi_a))
        params = CouplingParams(-1.0, 0.0, 0.0, 0.0, 0.0)
        diags = evolve(fields, params, PropagatorConfig(dt=2e-3, T=2.0))
        assert abs(diags[-1].N_a - diags[0].N_a) < 1e-10
        assert diags[-1].N_m == 0.0
        assert np.max(np.abs(np.abs(fields.psi_a) - np.abs(psi_a))) < 1e-5


class TestFailureModes:
    def test_blow_up_raises(self, fam1_record):
        fields, _ = _fields(fam1_record)
        fields.psi_a *= 50.0
        fields.psi_m *= 50.0
        with pytest.raises(BlowUpError):
            evolve(fields, fam1_record.params, PropagatorConfig(dt=0.01, T=1.0))

    def test_instability_raises_on_tight_tolerance(self, fam1_record):
        fields, _ = _fields(fam1_record)
        fields.psi_a *= 3.0
        fields.psi_m *= 3.0
        cfg = PropagatorConfig(dt=5e-3, T=2.0, tol_drift=1e-12)
        with pytest.raises(InstabilityError):
            evolve(fields, fam1_record.params, cfg)


def _random_fields(seed, n=256):
    """Fixed-seed O(1) complex fields and couplings in [-3, 3]."""
    rng = np.random.default_rng(seed)
    pa = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    pm = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return pa, pm, tuple(rng.uniform(-3.0, 3.0, 5))


class TestKernels:
    def test_backend_reported(self):
        assert kernel_backend() == "python"

    def test_inputs_unmodified(self):
        pa, pm, couplings = _random_fields(7)
        psi = np.stack((pa, pm))
        psi0 = psi.copy()
        out = nonlinear_step(psi, 1e-2, *couplings)
        assert np.array_equal(psi, psi0)
        assert out is not psi and out.shape == psi.shape

    @pytest.mark.parametrize("seed", range(4))
    def test_local_number_drift_is_fifth_order(self, seed):
        # the exact local flow conserves n_a + 2 n_m at each point; one RK4
        # step misses it by O(dt^5), so halving dt cuts the drift by ~32
        pa, pm, couplings = _random_fields(seed)
        psi = np.stack((pa, pm))
        n0 = np.abs(pa) ** 2 + 2.0 * np.abs(pm) ** 2

        def drift(dt):
            a, m = nonlinear_step(psi, dt, *couplings)
            n1 = np.abs(a) ** 2 + 2.0 * np.abs(m) ** 2
            return float(np.max(np.abs(n1 - n0) / n0))

        assert 16.0 <= drift(2e-3) / drift(1e-3) <= 64.0


def _unfused_strang(fields, params, dt, n_steps, record_every):
    """Reference loop: every step is half kinetic, RK4, half kinetic."""
    k2 = fields.grid.k() ** 2
    half_a = np.exp(-0.25j * k2 * dt)
    half_m = np.exp(-0.125j * k2 * dt)
    abs_a0, abs_m0 = np.abs(fields.psi_a), np.abs(fields.psi_m)
    t0 = fields.t

    def sample(pa, pm, t):
        f = FieldPair(fields.grid, pa, pm, t)
        N, N_a, N_m = conserved_number(f)
        return (t, N, N_a, N_m, mean_field_energy(f, params),
                float(np.max(np.abs(np.abs(pa) - abs_a0))),
                float(np.max(np.abs(np.abs(pm) - abs_m0))))

    pa, pm = fields.psi_a, fields.psi_m
    out = [sample(pa, pm, t0)]
    for step in range(1, n_steps + 1):
        pa = np.fft.ifft(half_a * np.fft.fft(pa))
        pm = np.fft.ifft(half_m * np.fft.fft(pm))
        pa, pm = nonlinear_step(np.stack((pa, pm)), dt, params.g_a,
                                params.g_m, params.g_am, params.alpha,
                                params.epsilon)
        pa = np.fft.ifft(half_a * np.fft.fft(pa))
        pm = np.fft.ifft(half_m * np.fft.fft(pm))
        if step % record_every == 0 or step == n_steps:
            out.append(sample(pa, pm, t0 + step * dt))
    return out, pa, pm


class TestFusedKinetics:
    """Merging kinetic halves between records changes only rounding."""

    @pytest.mark.parametrize("dt, record_every", [
        (1e-3, 1), (1e-3, 7), (1e-3, 30), (1e-3, 1000), (-1e-3, 7)])
    def test_matches_unfused_strang(self, fam1_record, dt, record_every):
        fields, _ = _fields(fam1_record)
        params = fam1_record.params
        want, pa, pm = _unfused_strang(fields.copy(), params, dt, 100,
                                       record_every)
        got = evolve(fields, params, PropagatorConfig(
            dt=dt, T=100 * abs(dt), record_every=record_every))
        assert [d.t for d in got] == [row[0] for row in want]
        scale = float(np.max(np.abs(pa)) + np.max(np.abs(pm)))
        for d, row in zip(got, want):
            values = (d.N, d.N_a, d.N_m, d.E)
            assert values == pytest.approx(row[1:5], rel=1e-12, abs=0.0)
            # a drift is a difference of field moduli: its rounding
            # scales with the fields, not with the drift itself
            assert abs(d.drift_a - row[5]) <= 1e-12 * scale
            assert abs(d.drift_m - row[6]) <= 1e-12 * scale
        assert np.max(np.abs(fields.psi_a - pa)) <= 1e-12 * scale
        assert np.max(np.abs(fields.psi_m - pm)) <= 1e-12 * scale
