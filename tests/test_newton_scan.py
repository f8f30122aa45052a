"""Batched Newton and lazy scan seeding: same roots as the scalar loops."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambec import consistency
from ambec.consistency import (_condition_parts, _in_sign_scope, _newton2,
                               default_scan_ranges, grid_scan_seed,
                               solve_from_scan)
from ambec.core import CouplingParams
from ambec.errors import AmbecError, ConvergenceError, NoRootFoundError


def reference_newton2(parts, v0, max_iter=100, tol=1e-12, max_halvings=30,
                      leash=1e3):
    """The damped Newton iteration one point at a time: two parts() calls
    per Jacobian column and one per damping level tried."""
    def combine(v):
        r = parts(v)
        return np.array(r[:2], dtype=float), np.array(r[2:], dtype=float)

    v = np.array(v0, dtype=float)
    limit = leash * max(1.0, float(np.max(np.abs(v))))
    raw, scale = combine(v)
    weights = np.where(np.isfinite(scale), 1.0 / (1.0 + scale), 1.0)

    def merit(r):
        x = np.abs(weights * r)
        return float(np.max(x)) if np.all(np.isfinite(x)) else math.inf

    def converged(r, s):
        return bool(np.all(np.isfinite(r)) and np.all(np.isfinite(s))
                    and np.max(np.abs(r) / (1.0 + s)) < tol)

    polish_left = 3
    best = merit(raw)
    since_best = 0
    for _ in range(max_iter):
        at_root = converged(raw, scale)
        if at_root:
            if polish_left == 0:
                return v
            polish_left -= 1
        elif since_best > 12:
            raise ConvergenceError(
                f"Newton stagnated at residual {merit(raw):.3e}")
        J = np.empty((2, 2))
        for j in range(2):
            h = 1e-7 * max(1.0, abs(v[j]))
            e = h * np.eye(2)[j]
            hi, _ = combine(v + e)
            lo, _ = combine(v - e)
            J[:, j] = weights * (hi - lo) / (2.0 * h)
        if not np.all(np.isfinite(J)):
            if at_root:
                return v
            raise ConvergenceError(
                f"non-finite Jacobian at (mu, epsilon) = {tuple(v)}")
        try:
            step = np.linalg.solve(J, weights * raw)
        except np.linalg.LinAlgError:
            if at_root:
                return v
            raise ConvergenceError(
                f"singular Jacobian at (mu, epsilon) = {tuple(v)}") from None
        base = merit(raw)
        lam = 1.0
        taken = None
        fallback = None
        for _ in range(max_halvings):
            trial = v - lam * step
            if float(np.max(np.abs(trial))) <= limit:
                t_raw, t_scale = combine(trial)
                if np.all(np.isfinite(t_raw)):
                    fallback = (trial, t_raw, t_scale)
                    if merit(t_raw) < base:
                        taken = fallback
                        break
            lam *= 0.5
        if taken is None:
            if at_root:
                return v
            if fallback is None:
                raise ConvergenceError(
                    f"Newton left the search region at residual {base:.3e}")
            taken = fallback
        v, raw, scale = taken
        m = merit(raw)
        if m < 0.9 * best:
            best = m
            since_best = 0
        else:
            since_best += 1
    if converged(raw, scale):
        return v
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations; last residual {merit(raw):.3e}")


#: (family, couplings, a root): the four conftest cat records and the
#: README family II/III scan-solves
ROOTS = [
    ("II", CouplingParams(-5.0, 1.0, -2.41, 0.230806),
     (-0.2500002985466334, -0.5163495953780387)),
    ("II", CouplingParams(-5.0, 1.0, -1.1, 1.584335),
     (-0.2499995227880614, -1.1011716181472522)),
    ("III", CouplingParams(-1.03, -1.2, -0.53, 0.059261),
     (-0.24999999025992847, -0.4626496228369691)),
    ("III", CouplingParams(-1.03, -1.2, -0.8, 0.0562413),
     (-0.12499927108786034, 0.06097172464354698)),
    ("II", CouplingParams(-5.0, 1.0, -1.1, 1.0),
     (-0.09959674538028639, -0.43869327448911083)),
    ("III", CouplingParams(-1.03, -1.2, -0.8, 1.0),
     (-39.51816580788611, 19.27603819675771)),
]

README_II = CouplingParams(-5.0, 1.0, -1.1, 1.0)
README_III = CouplingParams(-1.03, -1.2, -0.8, 1.0)


def _outcome(newton, parts, seed):
    """The root's bits, or the type and text of the error raised."""
    try:
        return [float(x).hex() for x in newton(parts, seed)]
    except AmbecError as exc:
        return type(exc).__name__, str(exc)


class TestBatchedNewton:
    # seeds from near a root out to several times its coordinates, so that
    # converging, creeping (no damping level improves) and failing runs
    # all occur
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(index=st.integers(0, len(ROOTS) - 1),
           f_mu=st.floats(0.3, 3.0), f_eps=st.floats(-3.0, 3.0))
    def test_same_root_bits_as_scalar_loop(self, index, f_mu, f_eps):
        family, params, (mu, eps) = ROOTS[index]

        def parts(v):
            return _condition_parts(family, params, v[0], v[1])

        seed = (mu * f_mu, eps * f_eps)
        assert (_outcome(_newton2, parts, seed)
                == _outcome(reference_newton2, parts, seed))

    @pytest.mark.parametrize("index", range(len(ROOTS)))
    def test_root_seed_converges_to_same_bits(self, index):
        family, params, root = ROOTS[index]

        def parts(v):
            return _condition_parts(family, params, v[0], v[1])

        got = _outcome(_newton2, parts, root)
        assert isinstance(got, list)
        assert got == _outcome(reference_newton2, parts, root)

    def test_stack_is_evaluated_column_by_column(self):
        family, params, (mu, eps) = ROOTS[3]
        V = np.array([[mu, mu * 1.5, mu * 0.5], [eps, -eps, 3.0 * eps]])
        stacked = _condition_parts(family, params, V[0], V[1])
        for c in range(V.shape[1]):
            alone = _condition_parts(family, params, V[0, c], V[1, c])
            assert [float(a[c]) for a in stacked] == [float(a) for a in alone]


def _counting(monkeypatch, name):
    """Replace consistency.<name> by a wrapper that logs each call's args."""
    calls = []
    original = getattr(consistency, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(consistency, name, wrapper)
    return calls


class TestLazySeeding:
    def test_readme_III_refines_only_up_to_the_winner(self, monkeypatch):
        seeds = grid_scan_seed(README_III, "III",
                               *default_scan_ranges("III", 1.0))
        assert len(seeds) == 74
        refined = _counting(monkeypatch, "_refine_seed")
        tried = _counting(monkeypatch, "solve_family_III")
        rec = solve_from_scan("III", README_III)
        # the first seed lies outside mu < 0 and is skipped untried; the
        # second wins
        assert not _in_sign_scope("III", *seeds[0])
        assert [args[1] for args in tried] == [seeds[1]]
        assert len(refined) == 2
        assert (rec.mu, rec.epsilon) == (-39.51816580788611, 19.27603819675771)

    def test_readme_II_refines_one_cell(self, monkeypatch):
        refined = _counting(monkeypatch, "_refine_seed")
        tried = _counting(monkeypatch, "solve_family_II")
        solve_from_scan("II", README_II)
        assert len(refined) == len(tried) == 1

    def test_full_list_is_the_order_seeds_are_tried(self, monkeypatch):
        seeds = grid_scan_seed(README_III, "III",
                               *default_scan_ranges("III", 1.0))
        tried = []

        def always_fails(params, seed, *, tol=None):
            tried.append(seed)
            raise ConvergenceError("rejected")

        monkeypatch.setattr(consistency, "solve_family_III", always_fails)
        with pytest.raises(NoRootFoundError) as e:
            solve_from_scan("III", README_III)
        in_scope = [s for s in seeds if _in_sign_scope("III", *s)]
        assert tried == in_scope and len(in_scope) == 73
        assert "(74 candidates, 73 tried: 73 ConvergenceError)" in str(e.value)
        assert str(e.value).endswith("; last failure: rejected")

    def test_no_cells_raised_before_any_seed(self, monkeypatch):
        refined = _counting(monkeypatch, "_refine_seed")
        with pytest.raises(NoRootFoundError, match="no sign-change cells"):
            solve_from_scan("II", README_II, mu_range=(-3.0, -1.0),
                            eps_range=(-3.0, -1.0), n=30)
        assert refined == []


class TestScanFailureReport:
    def test_failures_counted_by_type(self):
        # no root passes a zero-width gate, so every candidate fails
        with pytest.raises(NoRootFoundError) as e:
            solve_from_scan("III", README_III, tol=1e-300)
        msg = str(e.value)
        assert ("(74 candidates, 73 tried: 57 InconsistentRootError, "
                "8 ConvergenceError, 8 OutOfScopeRootError); last failure: "
                "root (mu, epsilon) = ") in msg
        assert msg.endswith("violates mu < 0")


class TestPinnedScanRecords:
    """The README --scan records, bit for bit."""

    def test_readme_II(self):
        assert repr(solve_from_scan("II", README_II)) == (
            "SolutionRecord(family='II', params=CouplingParams(g_a=-5.0, "
            "g_m=1.0, g_am=-1.1, alpha=1.0, epsilon=-0.43869327448911083), "
            "A=0.6816891671903355, B=1.3366709183673493, "
            "D=0.7490258584949867, beta=0.446310979879022, "
            "mu=-0.09959674538028639, residual_max=6.661338147750939e-16)")

    def test_readme_III(self):
        assert repr(solve_from_scan("III", README_III)) == (
            "SolutionRecord(family='III', params=CouplingParams(g_a=-1.03, "
            "g_m=-1.2, g_am=-0.8, alpha=1.0, epsilon=19.27603819675771), "
            "A=26.53003157908525, B=1.6586129065353439, "
            "D=-25.819198582480002, beta=8.890237995451653, "
            "mu=-39.51816580788611, residual_max=1.1368683772161603e-12)")
