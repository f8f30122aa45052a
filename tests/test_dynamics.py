"""Split-step propagation: conservation, phase evolution, reversibility."""
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ambec import _kernels, dynamics
from ambec._kernels import kernel_backend, nonlinear_step, numpy_step
from ambec.ansatz import sample_fields
from ambec.cli import main
from ambec.consistency import solve_family_I
from ambec.core import CouplingParams, FieldPair, Grid
from ambec.dynamics import (PropagatorConfig, conserved_number, default_grid,
                            evolve, make_grid, mean_field_energy)
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

    def test_default_grid_widens_for_shallow_states(self):
        assert default_grid(0.25).x_max == 160.0
        assert default_grid(10.0).x_max == 20.0

    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.0, T=1.0),
        dict(dt=float("nan"), T=1.0),
        dict(dt=1e-3, T=-1.0),
        dict(dt=1e-3, T=1.0, record_every=0),
        dict(dt=1e-3, T=1.0, tol_drift=0.0),
        dict(dt=-1e-300, T=1e300),
        dict(dt=1e-10, T=1e10),
    ])
    def test_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            PropagatorConfig(**kwargs)

    def test_epsilon_required(self, fam1_record):
        fields, _ = _fields(fam1_record, 256)
        params = dataclasses.replace(fam1_record.params, epsilon=None)
        with pytest.raises(ConfigurationError, match="epsilon is required"):
            evolve(fields, params, PropagatorConfig(dt=1e-3, T=1e-2))
        with pytest.raises(ConfigurationError, match="epsilon is required"):
            mean_field_energy(fields, params)

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


def _derivative_moments(fields, params):
    """N_a, N_m and E by the formulas that conserved_number and
    mean_field_energy used before they shared the record point's spectrum
    (|psi|^2 by np.abs, the kinetic term from the spectral derivative
    ifft(i k fft(psi))), and the scale of E: dx sum |term| over its terms."""
    grid = fields.grid
    dx = grid.dx
    N_a = dx * float(np.sum(np.abs(fields.psi_a) ** 2))
    N_m = dx * float(np.sum(np.abs(fields.psi_m) ** 2))
    psi = np.stack((fields.psi_a, fields.psi_m))
    d = np.fft.ifft(1j * grid.k() * np.fft.fft(psi))
    dd = d.real ** 2 + d.imag ** 2
    na, nm = psi.real ** 2 + psi.imag ** 2
    pa, pm = psi
    terms = (0.5 * dd[0] + 0.25 * dd[1], params.epsilon * nm,
             0.5 * params.g_a * na ** 2, 0.5 * params.g_m * nm ** 2,
             params.g_am * na * nm,
             (params.alpha / math.sqrt(2.0)) * 2.0
             * np.real(np.conj(pm) * pa * pa))
    E = dx * float(np.sum(sum(terms)))
    scale = dx * sum(float(np.sum(np.abs(t))) for t in terms)
    return N_a, N_m, E, scale


class TestSpectrumMoments:
    """The record point's N and E, taken from the sample and the spectrum
    the step already holds, against the derivative formulas."""

    # smooth random fields: a Gaussian envelope of width kappa in k keeps
    # the kinetic and local terms of E comparable
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(n=st.sampled_from([64, 96, 101, 2048]),
           seed=st.integers(0, 2 ** 32 - 1),
           kappa=st.floats(0.5, 5.0), amplitude=st.floats(0.1, 3.0),
           couplings=st.tuples(*[st.floats(-3.0, 3.0)] * 5),
           dt=st.floats(-1e-2, 1e-2))
    def test_matches_derivative_formulas(self, n, seed, kappa, amplitude,
                                         couplings, dt):
        grid = make_grid(10.0, n)
        k2 = grid.k() ** 2
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        psi = np.fft.ifft(np.exp(-0.5 * k2 / kappa ** 2) * noise)
        psi *= amplitude / np.max(np.abs(psi))
        params = CouplingParams(*couplings)
        # a record point: the sample is a half kinetic step past F
        F = np.fft.fft(psi)
        half = np.exp(np.multiply.outer([-0.25j, -0.125j], k2) * dt)
        sample = np.fft.ifft(half * F)
        fields = FieldPair(grid, sample[0], sample[1])
        N_a, N_m, E, scale = _derivative_moments(fields, params)
        got = dynamics._moments(sample, grid.dx, F,
                                dynamics._kinetic_weights(k2), params)
        assert got[:2] == pytest.approx((N_a, N_m), rel=1e-12, abs=0.0)
        assert abs(got[2] - E) <= 1e-12 * scale
        # the public functions share the helper
        assert conserved_number(fields)[1:] == pytest.approx(
            (N_a, N_m), rel=1e-12, abs=0.0)
        assert abs(mean_field_energy(fields, params) - E) <= 1e-12 * scale


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


class TestNumberConservation:
    # the admissible family I couplings and beta range of
    # test_consistency.py::TestFamilyIClosedForm
    @settings(derandomize=True, deadline=None)
    @given(g_a=st.floats(-10.0, 10.0), g_am=st.floats(-10.0, 10.0),
           alpha=st.floats(0.1, 10.0), negative_alpha=st.booleans(),
           fraction=st.floats(1e-3, 0.999) | st.floats(1e-12, 1e-8))
    def test_total_number_over_50_steps(self, g_a, g_am, alpha,
                                        negative_alpha, fraction):
        assume(g_a + g_am >= 0.1)
        if negative_alpha:
            alpha = -alpha
        beta_max = abs(alpha) * math.sqrt(2.0 / (9.0 * (g_a + g_am)))
        rec = solve_family_I(g_a, g_am, alpha, fraction * beta_max)
        fields, grid = _fields(rec, 256)
        # at most half the step at which the kinetic phase dt*max(k)^2/2
        # wraps, and |mu| dt at most the README record's 2e-3: the RK4
        # substep's N error grows as dt^6, so dt = 1e-3 alone reaches 4e-8
        # relative at mu = -33
        dt = min(1e-3, math.pi / float(np.max(grid.k() ** 2)),
                 2e-3 / abs(rec.mu))
        diags = evolve(fields, rec.params, PropagatorConfig(
            dt=dt, T=50 * dt, record_every=50))
        assert len(diags) == 2
        first, last = diags
        assert first.N == first.N_a + 2.0 * first.N_m
        assert abs(last.N - first.N) <= 1e-10 * first.N


class TestStrangOrder:
    # the admissible family I couplings of TestNumberConservation, with beta
    # at most 2, so that the n = 512 default grid (beta dx <= 0.16) puts the
    # spatial error far below the splitting error
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(g_a=st.floats(-10.0, 10.0), g_am=st.floats(-10.0, 10.0),
           alpha=st.floats(0.1, 10.0), negative_alpha=st.booleans(),
           fraction=st.floats(0.01, 0.99))
    def test_error_quarters_under_dt_halving(self, g_a, g_am, alpha,
                                             negative_alpha, fraction):
        assume(g_a + g_am >= 0.1)
        if negative_alpha:
            alpha = -alpha
        beta = fraction * abs(alpha) * math.sqrt(2.0 / (9.0 * (g_a + g_am)))
        assume(beta <= 2.0)
        rec = solve_family_I(g_a, g_am, alpha, beta)
        fields, grid = _fields(rec, 512)
        # a tenth over the fastest local rate (|mu| and the largest
        # potential the fields see), or half the step at which the kinetic
        # phase wraps: 16 steps against 32 of half the size
        p = rec.params
        abs_a, abs_m = np.abs(fields.psi_a), np.abs(fields.psi_m)
        rate = abs(rec.mu) + abs(p.epsilon) + float(np.max(
            (abs(p.g_a) + abs(p.g_am)) * abs_a ** 2
            + (abs(p.g_m) + abs(p.g_am)) * abs_m ** 2
            + math.sqrt(2.0) * abs(p.alpha) * (abs_a + abs_m)))
        dt = min(0.1 / rate, math.pi / float(np.max(grid.k() ** 2)))
        exact = sample_fields(rec, grid, t=16 * dt)

        def final_err(step, count):
            run = fields.copy()
            evolve(run, p, PropagatorConfig(dt=step, T=count * step))
            return float(np.max(np.abs(run.psi_a - exact.psi_a)))

        ratio = final_err(dt, 16) / final_err(dt / 2, 32)
        assert 3.5 < ratio < 4.5


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

    @pytest.mark.parametrize("record_every", [4, 100])
    def test_blow_up_raises_under_cli_errstate(self, fam1_record,
                                               record_every):
        # cli.main raises on every overflow; a run that blows up must still
        # end in BlowUpError (exit 4), also where a record point samples
        # fields whose densities overflow (step 4 here)
        fields, _ = _fields(fam1_record)
        fields.psi_a *= 50.0
        fields.psi_m *= 50.0
        cfg = PropagatorConfig(dt=0.01, T=1.0, record_every=record_every)
        with np.errstate(over="raise", invalid="raise", divide="raise"), \
                pytest.raises(BlowUpError) as err:
            evolve(fields, fam1_record.params, cfg)
        assert err.value.exit_code == 4

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


class _KernelChecks:
    """What every nonlinear substep must do; `kernel` is the one checked."""

    kernel = None

    def test_inputs_unmodified(self):
        pa, pm, couplings = _random_fields(7)
        psi = np.stack((pa, pm))
        psi0 = psi.copy()
        out = self.kernel(psi, 1e-2, *couplings)
        assert np.array_equal(psi, psi0)
        assert out is not psi and out.shape == psi.shape

    def test_one_field_pair_required(self):
        with pytest.raises(ValueError):
            self.kernel(np.ones((3, 8), dtype=complex), 1e-2,
                        1.0, 1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_local_number_drift_is_fifth_order(self, seed):
        # the exact local flow conserves n_a + 2 n_m at each point; one RK4
        # step misses it by O(dt^5), so halving dt cuts the drift by ~32
        pa, pm, couplings = _random_fields(seed)
        psi = np.stack((pa, pm))
        n0 = np.abs(pa) ** 2 + 2.0 * np.abs(pm) ** 2

        def drift(dt):
            a, m = self.kernel(psi, dt, *couplings)
            n1 = np.abs(a) ** 2 + 2.0 * np.abs(m) ** 2
            return float(np.max(np.abs(n1 - n0) / n0))

        assert 16.0 <= drift(2e-3) / drift(1e-3) <= 64.0


needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler")


class TestKernels(_KernelChecks):
    """The kernel evolve runs: the C loop when it builds, else numpy."""

    kernel = staticmethod(nonlinear_step)

    def test_backend_reported(self):
        loaded = _kernels.c_library() is not None
        assert kernel_backend() == ("c" if loaded else "python")

    @needs_cc
    @pytest.mark.parametrize("dt", [1e-2, -1e-2, 5e-4, -5e-4])
    @pytest.mark.parametrize("n", [1, 7, 2048])
    def test_c_matches_numpy(self, n, dt):
        assert kernel_backend() == "c"
        rng = np.random.default_rng(n)
        for _ in range(5):
            psi = (rng.standard_normal((2, n))
                   + 1j * rng.standard_normal((2, n)))
            couplings = tuple(rng.uniform(-3.0, 3.0, 5))
            want = numpy_step(psi, dt, *couplings)
            got = nonlinear_step(psi, dt, *couplings)
            assert np.array_equal(got, want)

    @needs_cc
    @pytest.mark.parametrize("dt", [1e-2, -1e-2, 5e-4, -5e-4])
    @pytest.mark.parametrize("scale", [0.0, 5e-324, 1e-300, 1e-160, 1.0,
                                       1e100, 1e150, 1e154, 1e200])
    def test_c_matches_numpy_bits_at_extremes(self, scale, dt):
        # underflow, overflow to inf, inf - inf and the sign of each zero
        # must come out the same; any NaN counts as equal to any NaN
        assert kernel_backend() == "c"
        rng = np.random.default_rng(33)
        for _ in range(5):
            psi = scale * (rng.standard_normal((2, 33))
                           + 1j * rng.standard_normal((2, 33)))
            psi.real[:, :3] = -0.0
            psi.imag[:, 1:4] = [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]]
            couplings = tuple(rng.uniform(-3.0, 3.0, 5))
            with np.errstate(all="ignore"):
                want = numpy_step(psi, dt, *couplings).view(float)
                got = nonlinear_step(psi, dt, *couplings).view(float)
            same = ((got.view(np.uint64) == want.view(np.uint64))
                    | (np.isnan(got) & np.isnan(want)))
            assert same.all()

    def test_strided_and_real_input(self):
        pa, pm, couplings = _random_fields(3)
        psi = np.stack((pa, pm))
        view = psi[:, ::2]
        assert np.array_equal(nonlinear_step(view, 1e-2, *couplings),
                              nonlinear_step(view.copy(), 1e-2, *couplings))
        real = psi.real.copy()
        assert np.array_equal(nonlinear_step(real, 1e-2, *couplings),
                              nonlinear_step(real + 0j, 1e-2, *couplings))


class TestNumpyKernel(_KernelChecks):
    """The numpy reference, which evolve falls back to."""

    kernel = staticmethod(numpy_step)


class TestShapeRule:
    """nonlinear_step takes exactly a (2, n) stack on either backend."""

    @pytest.fixture(params=[pytest.param("c", marks=needs_cc), "python"])
    def backend(self, request, monkeypatch):
        if request.param == "python":
            monkeypatch.setattr(_kernels, "c_library", lambda: None)
        assert kernel_backend() == request.param

    @pytest.mark.parametrize("shape", [(2,), (2, 3, 4)])
    def test_other_shapes_rejected(self, backend, shape):
        with pytest.raises(ValueError, match="two fields"):
            nonlinear_step(np.ones(shape, dtype=complex), 1e-2,
                           1.0, 1.0, 1.0, 1.0, 1.0)

    def test_field_pair_accepted(self, backend):
        pa, pm, couplings = _random_fields(11, n=16)
        psi = np.stack((pa, pm))
        assert nonlinear_step(psi, 1e-2, *couplings).shape == (2, 16)


def _run_python(code, cache, **env):
    """Run code in a fresh interpreter whose kernel cache is `cache`."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=300, env={**os.environ, "XDG_CACHE_HOME": str(cache), **env})


@pytest.fixture()
def fresh_kernel():
    """Forget the loaded kernel before and after the test."""
    _kernels.c_library.cache_clear()
    yield
    _kernels.c_library.cache_clear()


class TestKernelBuild:
    """Compile on first use, into the cache; fall back silently."""

    def test_no_compiler_falls_back(self, monkeypatch, fresh_kernel):
        monkeypatch.setattr(_kernels.shutil, "which", lambda name: None)
        assert kernel_backend() == "python"
        pa, pm, couplings = _random_fields(5)
        psi = np.stack((pa, pm))
        assert np.array_equal(nonlinear_step(psi, 1e-2, *couplings),
                              numpy_step(psi, 1e-2, *couplings))

    @needs_cc
    def test_failed_build_is_silent(self, monkeypatch, fresh_kernel,
                                    tmp_path, capfd):
        bad = tmp_path / "bad.c"
        bad.write_text("this is not C\n")
        monkeypatch.setattr(_kernels, "SOURCE", bad)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        assert kernel_backend() == "python"
        assert capfd.readouterr() == ("", "")
        assert os.listdir(tmp_path / "cache" / "ambec") == []

    @needs_cc
    def test_source_compiles_without_warnings(self, tmp_path):
        proc = subprocess.run(
            ["cc", *_kernels.CFLAGS, "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / "kernels.so"), str(_kernels.SOURCE)],
            capture_output=True, text=True, stdin=subprocess.DEVNULL,
            timeout=120)
        assert proc.returncode == 0, proc.stderr

    @needs_cc
    def test_source_is_warning_free_iso_c(self):
        # the source alone as ISO C99, so that no GNU extension creeps in
        proc = subprocess.run(
            ["cc", "-fsyntax-only", "-std=c99", "-Wall", "-Wextra",
             "-Wpedantic", "-Werror", str(_kernels.SOURCE)],
            capture_output=True, text=True, stdin=subprocess.DEVNULL,
            timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("how", ["no-compiler", "cache-is-a-file"])
    def test_cli_evolve_without_the_library(self, how, fam1_record, tmp_path):
        rec = tmp_path / "rec.json"
        rec.write_text(fam1_record.to_json())
        cache, env = tmp_path / "cache", {}
        if how == "no-compiler":
            env["PATH"] = str(tmp_path)
        else:
            cache.write_text("")
        out = tmp_path / "ev.csv"
        proc = _run_python(
            "import sys; from ambec.cli import main; sys.exit(main(["
            f"'evolve', '--solution', {str(rec)!r}, '--grid-n', '64', "
            f"'--t', '0.01', '--out', {str(out)!r}]))", cache, **env)
        assert (proc.returncode, proc.stderr) == (0, "")
        manifest = json.loads((tmp_path / "ev.manifest.json").read_text())
        assert manifest["environment"] == {"kernel_backend": "python"}

    @needs_cc
    def test_cli_wigner_without_compiler(self, tmp_path):
        # no compiler: the Python rows, the same bytes as the C library's
        out = {}
        for backend, env in (("c", {}), ("python", {"PATH": str(tmp_path)})):
            run_dir = tmp_path / backend
            run_dir.mkdir()
            proc = _run_python(
                "import os, sys; from ambec.cli import main; "
                f"os.chdir({str(run_dir)!r}); sys.exit(main(['wigner', "
                "'--beta', '1', '--delta', '3', '--kind', 'bright_even', "
                "'--grid-n', '64', '--out', 'w.csv']))",
                tmp_path / "cache", **env)
            assert (proc.returncode, proc.stderr) == (0, "")
            manifest = json.loads((run_dir / "w.manifest.json").read_text())
            assert manifest["environment"] == {"kernel_backend": backend}
            out[backend] = (run_dir / "w.csv").read_bytes()
        assert out["python"] == out["c"]

    @needs_cc
    def test_cli_evolve_same_bytes_with_numpy_substep(
            self, fam1_record, tmp_path, monkeypatch):
        # the numpy substep gives the C loop's bits, so evolve.csv does not
        # depend on whether a compiler exists
        rec = tmp_path / "rec.json"
        rec.write_text(fam1_record.to_json())
        out = {}
        for backend in ("c", "python"):
            if backend == "python":
                monkeypatch.setattr(dynamics, "nonlinear_step", numpy_step)
            run_dir = tmp_path / backend
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            assert main(["evolve", "--solution", str(rec), "--grid-n", "256",
                         "--t", "0.2", "--dt", "1e-3", "--record-every", "10",
                         "--out", "ev.csv"]) == 0
            out[backend] = (run_dir / "ev.csv").read_bytes()
        assert kernel_backend() == "c"
        assert out["python"] == out["c"]

    def test_import_and_solve_load_no_library(self, tmp_path):
        cache = tmp_path / "cache"
        out = tmp_path / "rec.json"
        proc = _run_python(
            "import ambec; from ambec import _kernels; from ambec.cli import "
            f"main; rc = main(['solve', '--family', 'I', '--g-a', '3', "
            f"'--g-am', '-2.8', '--alpha', '2', '--beta', '1', '--out', "
            f"{str(out)!r}]); print(rc, _kernels.c_library.cache_info()"
            ".currsize)", cache)
        assert proc.stdout.split()[-2:] == ["0", "0"], proc.stderr
        assert not cache.exists()

    @needs_cc
    def test_concurrent_builds_load_one_library(self, tmp_path):
        cache = tmp_path / "cache"
        code = ("import hashlib, numpy as np; from ambec import _kernels; "
                "psi = np.arange(16.0).reshape(2, 8) * (0.1 + 0.2j); "
                "out = _kernels.nonlinear_step(psi, 1e-2, 1, 2, 3, 4, 5); "
                "print(_kernels.kernel_backend(), "
                "hashlib.sha256(out.tobytes()).hexdigest())")
        env = {**os.environ, "XDG_CACHE_HOME": str(cache)}
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
                 for _ in range(3)]
        results = [p.communicate(timeout=300) for p in procs]
        assert [r[1] for r in results] == ["", "", ""]
        assert len({r[0] for r in results}) == 1
        assert results[0][0].split()[0] == "c"
        files = os.listdir(cache / "ambec")
        assert len(files) == 1 and files[0].endswith(".so")


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
