"""Root solvers and the keyed residual vector they are gated on."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ambec import consistency
from ambec.consistency import (check_consistency, default_scan_ranges,
                               grid_scan_seed, normalized_residuals,
                               solve_family_I, solve_family_II,
                               solve_family_III, solve_from_scan)
from ambec.core import CouplingParams, SolutionRecord
from ambec.errors import (AmbecError, ConfigurationError,
                          InconsistentRootError, NoDropletError,
                          NoRootFoundError, SingularParameterError)
from conftest import CAT_SOLVES, solve_cat

KEYS_I = {"A1", "A2", "A3", "A4", "A4b", "A5", "A6", "A7", "A8", "A9"}
KEYS_II = {"A10", "A11", "A12", "A13", "A13b", "A14", "A15", "A16", "A17"}
KEYS_III = {"A18", "A19", "A20", "A21", "A21b", "A22", "A23", "A24", "A25"}

# shape parameter B is invariant under rescaling alpha, so these values,
# frozen from unit-alpha solves, pin the roots at any alpha
FROZEN_B = {
    "II-high": 764.57375,
    "II-low": 1.3366709,
    "III-high": 840.13426,
    "III-low": 1.6586129,
}


class TestFamilyIClosedForm:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0])
    def test_round_trip_residuals(self, beta):
        rec = solve_family_I(3.0, -2.8, 2.0, beta)
        res = check_consistency(rec)
        assert set(res) == KEYS_I
        assert max(abs(v) for v in res.values()) < 1e-10
        assert rec.residual_max < 1e-10

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0])
    def test_derived_couplings_exact(self, beta):
        rec = solve_family_I(3.0, -2.8, 2.0, beta)
        assert rec.epsilon == 1.5 * rec.mu
        assert rec.params.g_m == 2.9
        assert rec.mu == -2.0 * beta ** 2

    def test_reference_amplitudes(self):
        rec = solve_family_I(3.0, -2.8, 2.0, 1.0)
        assert rec.A == pytest.approx(1.2048289933537484, rel=1e-12)
        assert rec.B == pytest.approx(0.06796183424706492, rel=1e-12)

    def test_amplitude_symmetry_and_sign(self):
        rec = solve_family_I(3.0, -2.8, 2.0, 0.7)
        assert rec.D == -rec.A
        assert rec.D < 0 < rec.A
        flipped = solve_family_I(3.0, -2.8, -2.0, 0.7)
        assert flipped.D == rec.A
        assert flipped.A == rec.A

    def test_admissibility_window(self):
        mu0 = -80.0 / 9.0
        beta_max = math.sqrt(-mu0 / 2.0)
        for beta in np.linspace(0.1, 3.0, 50):
            mu = -2.0 * beta ** 2
            if mu0 < mu < 0.0:
                rec = solve_family_I(3.0, -2.8, 2.0, beta)
                assert rec.A ** 2 > 0.0
            else:
                assert beta >= beta_max
                with pytest.raises(NoDropletError):
                    solve_family_I(3.0, -2.8, 2.0, beta)

    # g_a + g_am >= 0.1 keeps cancellation in the coupling sum mild;
    # beta/beta_max goes down to 1e-12, where B ~ (beta/beta_max)^2 / 4
    # is far below the rounding error of 1/sqrt(1 - x) - 1
    @settings(derandomize=True, deadline=None)
    @given(g_a=st.floats(-10.0, 10.0), g_am=st.floats(-10.0, 10.0),
           alpha=st.floats(0.1, 10.0), negative_alpha=st.booleans(),
           fraction=st.floats(1e-3, 0.999) | st.floats(1e-12, 1e-8))
    def test_random_admissible_couplings(self, g_a, g_am, alpha,
                                         negative_alpha, fraction):
        assume(g_a + g_am >= 0.1)
        if negative_alpha:
            alpha = -alpha
        beta_max = abs(alpha) * math.sqrt(2.0 / (9.0 * (g_a + g_am)))
        rec = solve_family_I(g_a, g_am, alpha, fraction * beta_max)
        res = normalized_residuals(rec)
        assert set(res) == KEYS_I
        assert max(res.values()) < 1e-10
        assert SolutionRecord.from_json(rec.to_json()) == rec

    def test_singular_coupling_sum(self):
        with pytest.raises(SingularParameterError):
            solve_family_I(3.0, -3.0, 2.0, 1.0)

    def test_zero_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_family_I(3.0, -2.8, 0.0, 1.0)

    def test_negative_coupling_sum_out_of_scope(self):
        with pytest.raises(AmbecError) as e:
            solve_family_I(1.0, -2.0, 2.0, 0.3)
        assert e.value.exit_code == 2


class TestNewtonSolvers:
    def test_frozen_shape_parameters(self, all_records):
        for name, expect in FROZEN_B.items():
            assert all_records[name].B == pytest.approx(expect, rel=1e-5), name

    def test_residual_keys_and_gate(self, all_records):
        keys = {"I": KEYS_I, "II": KEYS_II, "III": KEYS_III}
        for rec in all_records.values():
            res = normalized_residuals(rec)
            assert set(res) == keys[rec.family]
            assert max(res.values()) < 1e-9

    def test_even_root_sign_structure(self, fam2_high_record, fam2_low_record):
        for rec in (fam2_high_record, fam2_low_record):
            assert rec.mu < 0 and rec.epsilon < 0
            assert rec.D > 0 and rec.A > 0 and rec.B > 0

    def test_odd_root_sign_structure(self, fam3_high_record, fam3_low_record):
        for rec in (fam3_high_record, fam3_low_record):
            assert rec.mu < 0
            assert rec.epsilon * rec.D < 0

    def test_scale_covariance(self, fam2_low_record):
        base = fam2_low_record
        s = 2.0
        scaled = solve_family_II(
            dataclasses.replace(base.params, alpha=base.params.alpha * s,
                                epsilon=None),
            (base.mu * s * s, base.epsilon * s * s))
        assert scaled.B == pytest.approx(base.B, rel=1e-9)
        assert scaled.mu == pytest.approx(base.mu * s * s, rel=1e-9)
        assert scaled.epsilon == pytest.approx(base.epsilon * s * s, rel=1e-9)

    def test_bad_seed_signs_rejected(self):
        params = CouplingParams(-5.0, 1.0, -1.1, 1.0)
        with pytest.raises(ConfigurationError):
            solve_family_II(params, (0.5, -1.0))
        with pytest.raises(ConfigurationError):
            solve_family_III(CouplingParams(-1.03, -1.2, -0.8, 1.0), (0.5, 1.0))

    def test_invalid_couplings_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_family_II(CouplingParams(5.0, 1.0, -1.1, 1.0), (-0.1, -0.4))

    def test_far_seed_fails_loudly(self):
        params = CouplingParams(-5.0, 1.0, -1.1, 1.584335)
        with pytest.raises(AmbecError) as e:
            solve_family_II(params, (-5.0, -1.0))
        assert e.value.exit_code in (2, 4)

    def test_perturbed_record_flagged_inconsistent(self, fam2_low_record):
        broken = dataclasses.replace(fam2_low_record, A=fam2_low_record.A * (1 + 1e-6))
        assert max(normalized_residuals(broken).values()) > 1e-9

    def test_residuals_are_signed_and_finite(self, fam3_low_record):
        res = check_consistency(fam3_low_record)
        assert all(math.isfinite(v) for v in res.values())

    @pytest.mark.parametrize("family, g_m, keys, b_form", [
        ("II", 1.0, KEYS_II, "A15"), ("III", -1.0, KEYS_III, "A23")])
    def test_residuals_total_at_zero_gamma_denominator(self, family, g_m,
                                                       keys, b_form):
        # g_a = -1, g_am = 0, alpha = 1, epsilon = -1 zero both families'
        # Gamma denominator
        rec = SolutionRecord(family, CouplingParams(-1.0, g_m, 0.0, 1.0, -1.0),
                             A=1.0, B=1.0, D=1.0, beta=1.0, mu=-0.5)
        res = check_consistency(rec)
        assert set(res) == keys
        assert not math.isfinite(res[b_form])
        assert set(normalized_residuals(rec)) == keys


def _mirrored(rec):
    """rec with alpha and D negated: psi_m -> -psi_m at -alpha."""
    return dataclasses.replace(
        rec, params=dataclasses.replace(rec.params, alpha=-rec.params.alpha),
        D=-rec.D)


class TestMirrorSymmetry:
    """alpha -> -alpha with psi_m -> -psi_m negates both conditions
    exactly, so a solve at -alpha takes the same Newton steps and returns
    the alpha record with alpha and D negated, bit for bit."""

    @staticmethod
    def _assert_mirror(plus, minus):
        assert _mirrored(minus).to_json() == plus.to_json()
        assert normalized_residuals(minus) == normalized_residuals(plus)

    @pytest.mark.parametrize("name", list(CAT_SOLVES))
    def test_seeded_solve(self, name):
        self._assert_mirror(solve_cat(name), solve_cat(name, -1.0))

    @pytest.mark.parametrize("family, params", [
        ("II", CouplingParams(-5.0, 1.0, -1.1, 1.0)),
        ("III", CouplingParams(-1.03, -1.2, -0.8, 1.0))],
        ids=["readme-II", "readme-III"])
    def test_scan_solve(self, family, params):
        minus = dataclasses.replace(params, alpha=-params.alpha)
        self._assert_mirror(solve_from_scan(family, params),
                            solve_from_scan(family, minus))


class TestScanSeeding:
    def test_scan_recovers_direct_root(self, fam2_low_record):
        params = CouplingParams(-5.0, 1.0, -1.1, 1.0)
        rec = solve_from_scan("II", params)
        assert rec.B == pytest.approx(fam2_low_record.B, rel=1e-8)

    def test_scan_recovers_sign_changing_detuning(self, fam3_low_record):
        params = CouplingParams(-1.03, -1.2, -0.8, 1.0)
        rec = solve_from_scan("III", params)
        assert rec.B == pytest.approx(fam3_low_record.B, rel=1e-8)
        assert rec.epsilon > 0

    def test_no_root_in_hopeless_box(self):
        params = CouplingParams(-5.0, 1.0, -1.1, 1.0)
        with pytest.raises(NoRootFoundError):
            solve_from_scan("II", params, mu_range=(-9.0, -8.0),
                            eps_range=(-0.02, -0.01), n=12)

    def test_grid_scan_rejects_family_I(self):
        with pytest.raises(ConfigurationError):
            grid_scan_seed(CouplingParams(3.0, 2.9, -2.8, 2.0), "I",
                           (-1.0, -0.1), (-1.0, -0.1))

    def test_grid_scan_validates_ranges(self):
        params = CouplingParams(-5.0, 1.0, -1.1, 1.0)
        with pytest.raises(ConfigurationError):
            grid_scan_seed(params, "II", (-0.1, -1.0), (-1.0, -0.1))
        with pytest.raises(ConfigurationError):
            grid_scan_seed(params, "II", (-1.0, 0.5), (-1.0, -0.1))

    def test_default_ranges_scale_with_alpha(self):
        (m1, m2), (e1, e2) = default_scan_ranges("II", 2.0)
        (n1, n2), (f1, f2) = default_scan_ranges("II", 1.0)
        assert (m1, m2, e1, e2) == (4 * n1, 4 * n2, 4 * f1, 4 * f2)


class TestTolerancePlumbing:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_nonfinite_tol_rejected_before_newton(self, tol, monkeypatch):
        def never(*args):
            raise AssertionError("Newton started")

        monkeypatch.setattr(consistency, "_newton2", never)
        params = CouplingParams(-5.0, 1.0, -1.1, 1.0)
        solves = [lambda: solve_family_I(3.0, -2.8, 2.0, 0.5, tol=tol),
                  lambda: solve_family_II(params, (-0.1, -0.44), tol=tol),
                  lambda: solve_family_III(params, (-0.1, -0.44), tol=tol),
                  lambda: solve_from_scan("II", params, tol=tol)]
        for solve in solves:
            with pytest.raises(ConfigurationError, match="tol must be finite"):
                solve()

    def test_explicit_tol_can_reject_good_roots(self):
        with pytest.raises(InconsistentRootError):
            solve_family_I(3.0, -2.8, 2.0, 0.5, tol=0.0)
