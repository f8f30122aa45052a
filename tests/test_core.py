"""Domain type validation, serialization, and grid behavior."""
import dataclasses
import json
import math

import numpy as np
import pytest

from ambec.core import (CouplingParams, FieldPair, Grid, RECORD_KEYS,
                        SolutionRecord, delta_from_B, validate_params)
from ambec.errors import (ConfigurationError, OutOfScopeRegimeError)


def _record(**over):
    base = dict(family="I", A=1.2, B=0.068, D=-1.2, beta=1.0, mu=-2.0)
    base.update(over)
    params = over.pop("params", CouplingParams(3.0, 2.9, -2.8, 2.0, -3.0))
    base.setdefault("params", params)
    return SolutionRecord(**base)


class TestCouplingParams:
    def test_with_epsilon_returns_new_instance(self):
        p = CouplingParams(1.0, 2.0, 3.0, 4.0)
        q = p.with_epsilon(-1.5)
        assert p.epsilon is None
        assert q.epsilon == -1.5
        assert q.g_a == p.g_a

    @pytest.mark.parametrize("family", ["I", "II", "III"])
    def test_zero_alpha_rejected_everywhere(self, family):
        p = CouplingParams(-5.0, 1.0, -2.0, 0.0, -1.0)
        assert any("alpha" in msg for msg in validate_params(p, family))

    def test_family_I_equal_couplings_rejected(self):
        p = CouplingParams(3.0, 3.0, -2.8, 2.0, -3.0)
        assert validate_params(p, "I")

    def test_family_II_sign_structure(self):
        good = CouplingParams(-5.0, 1.0, -2.41, 0.7, -1.0)
        assert validate_params(good, "II") == []
        assert validate_params(CouplingParams(5.0, 1.0, -2.41, 0.7, -1.0), "II")
        assert validate_params(CouplingParams(-5.0, -1.0, -2.41, 0.7, -1.0), "II")

    def test_family_III_sign_structure(self):
        good = CouplingParams(-1.03, -1.2, -0.8, 0.06, 0.5)
        assert validate_params(good, "III") == []
        assert validate_params(CouplingParams(-1.03, 1.2, -0.8, 0.06, 0.5), "III")
        assert validate_params(CouplingParams(-1.03, -1.2, 0.8, 0.06, 0.5), "III")

    @pytest.mark.parametrize("family", ["I", "II", "III"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_couplings_rejected(self, family, value):
        for name in ("g_a", "g_m", "g_am", "alpha", "epsilon"):
            p = dataclasses.replace(CouplingParams(-1.0, -1.0, -1.0, 1.0, -1.0),
                                    **{name: value})
            assert any(msg.startswith(f"{name} must be finite")
                       for msg in validate_params(p, family)), name

    def test_unknown_family_raises(self):
        with pytest.raises(ConfigurationError):
            validate_params(CouplingParams(1.0, 1.0, 1.0, 1.0), "IV")


class TestSolutionRecord:
    def test_json_round_trip_is_exact(self):
        rec = _record()
        back = SolutionRecord.from_json(rec.to_json())
        assert back == rec

    def test_dict_key_order_is_fixed(self):
        assert tuple(_record().to_dict()) == RECORD_KEYS

    def test_epsilon_and_delta_properties(self):
        rec = _record()
        assert rec.epsilon == -3.0
        assert math.isclose(math.sinh(rec.delta) ** 2, rec.B, rel_tol=1e-14)

    def test_nonpositive_B_rejected(self):
        with pytest.raises(OutOfScopeRegimeError):
            _record(B=-0.1)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
    def test_nonpositive_beta_rejected(self, beta):
        with pytest.raises(ConfigurationError, match="beta must be positive"):
            dataclasses.replace(_record(), beta=beta)

    def test_missing_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            _record(params=CouplingParams(3.0, 2.9, -2.8, 2.0))

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            _record(family="X")

    def test_json_carries_all_digits(self):
        rec = _record(A=1.2048289933537484)
        assert json.loads(rec.to_json())["A"] == 1.2048289933537484


class TestGrid:
    def test_spacing_and_points(self):
        g = Grid(-20.0, 20.0, 2048)
        assert g.dx == 40.0 / 2048
        x = g.x()
        assert x[0] == -20.0
        assert x[-1] == pytest.approx(20.0 - g.dx)
        assert len(x) == 2048

    def test_contains_origin_exactly(self):
        g = Grid(-20.0, 20.0, 256)
        assert 0.0 in g.x()

    def test_wavenumbers_match_fft_layout(self):
        g = Grid(-10.0, 10.0, 64)
        k = g.k()
        assert k[0] == 0.0
        assert np.argmax(np.abs(k)) == 32

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigurationError):
            Grid(-1.0, 1.0, 4)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            Grid(1.0, -1.0, 64)

    def test_width_beyond_float_range_rejected(self):
        with pytest.raises(ConfigurationError, match="grid_width"):
            Grid(-1e308, 1e308, 64)

    @pytest.mark.parametrize("x_min, x_max, n", [
        (-5e-324, 5e-324, 64),
        (0.0, 5e-324, 8),
        (-1e-322, 1e-322, 4096),
    ])
    def test_spacing_that_underflows_rejected(self, x_min, x_max, n):
        # the width is positive and finite, but width / n rounds to 0
        with pytest.raises(ConfigurationError, match="spacing"):
            Grid(x_min, x_max, n)


class TestDeltaFromB:
    @pytest.mark.parametrize("B", [1e-6, 0.068, 1.0, 764.57, 2.2e6])
    def test_inverts_sinh_squared(self, B):
        assert math.sinh(delta_from_B(B)) ** 2 == pytest.approx(B, rel=1e-12)

    @pytest.mark.parametrize("B", [0.0, -1.0])
    def test_nonpositive_rejected(self, B):
        with pytest.raises(OutOfScopeRegimeError):
            delta_from_B(B)


class TestFieldPair:
    def test_copy_is_independent(self):
        g = Grid(-5.0, 5.0, 32)
        f = FieldPair(g, np.ones(32, complex), np.zeros(32, complex), t=1.0)
        c = f.copy()
        c.psi_a[0] = 5.0
        assert f.psi_a[0] == 1.0
        assert c.t == 1.0

    def test_shape_mismatch_rejected(self):
        g = Grid(-5.0, 5.0, 32)
        with pytest.raises(ConfigurationError):
            FieldPair(g, np.ones(16, complex), np.zeros(32, complex))

    def test_non_finite_rejected(self):
        g = Grid(-5.0, 5.0, 32)
        bad = np.ones(32, complex)
        bad[3] = np.nan
        with pytest.raises(ConfigurationError):
            FieldPair(g, bad, np.zeros(32, complex))
