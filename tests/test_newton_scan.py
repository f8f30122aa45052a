"""One-seed Newton and lazy scan seeding: same roots as the scalar loops."""
import hashlib
import math
import shutil
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambec import _kernels, consistency
from ambec.consistency import (_MAX_HALVINGS, DEFAULT_TOL, SCAN_N,
                               _condition_parts, _in_sign_scope, _newton,
                               default_scan_ranges, default_tol,
                               grid_scan_seed, normalized_residuals,
                               solve_family_II, solve_family_III,
                               solve_from_scan)
from ambec.core import CouplingParams
from ambec.errors import (AmbecError, ConfigurationError, ConvergenceError,
                          InconsistentRootError, NoRootFoundError,
                          OutOfScopeRootError, SingularParameterError)


def reference_newton(parts, v0, max_iter=100, tol=1e-12, max_halvings=30,
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
                f"non-finite Jacobian at (mu, epsilon) = {tuple(v.tolist())}")
        try:
            step = np.linalg.solve(J, weights * raw)
        except np.linalg.LinAlgError:
            if at_root:
                return v
            raise ConvergenceError(
                f"singular Jacobian at (mu, epsilon) = {tuple(v.tolist())}") from None
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


def _describe(outcome):
    """A root as the hex of its bits, an error as its type and text."""
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    return [float(x).hex() for x in outcome]


def _outcome(newton, parts, seed):
    """newton's root from the seed, or the error it raised, described."""
    try:
        return _describe(newton(parts, seed))
    except (AmbecError, FloatingPointError) as exc:
        return _describe(exc)


def _same_as_reference(parts, seed):
    """_newton's outcome, checked against reference_newton's."""
    got = _outcome(_newton, parts, seed)
    assert got == _outcome(reference_newton, parts, seed)
    return got


def _parts(index):
    family, params, _ = ROOTS[index]
    return lambda v: _condition_parts(family, params, v[0], v[1])


#: a seed as factors of a ROOTS root: from near it out to several times its
#: coordinates, so that converging, creeping (no damping level improves)
#: and failing runs all occur
FACTORS = st.tuples(st.floats(0.3, 3.0), st.floats(-3.0, 3.0))


class TestBatchedNewton:
    """One seed's Newton, whose parts calls each batch a stack of points,
    against the one-point-at-a-time reference."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(index=st.integers(0, len(ROOTS) - 1), factors=FACTORS)
    def test_same_root_bits_as_scalar_loop(self, index, factors):
        mu, eps = ROOTS[index][2]
        _same_as_reference(_parts(index), (mu * factors[0], eps * factors[1]))

    @pytest.mark.parametrize("index", range(len(ROOTS)))
    def test_root_seed_converges_to_same_bits(self, index):
        assert isinstance(_same_as_reference(_parts(index), ROOTS[index][2]),
                          list)

    @pytest.mark.parametrize("index", range(len(ROOTS)))
    def test_parts_sees_only_two_row_stacks(self, index):
        mu, eps = ROOTS[index][2]
        shapes = []

        def parts(v):
            shapes.append(np.shape(v))
            return _parts(index)(v)

        _outcome(_newton, parts, (mu * 1.5, eps * 0.5))
        # the seed, then per iteration the four finite-difference points
        # and every damping level
        assert shapes[0] == (2, 1) and len(shapes) >= 3, shapes
        assert set(shapes[1::2]) == {(2, 4)}, shapes
        assert set(shapes[2::2]) == {(2, _MAX_HALVINGS)}, shapes

    def test_iteration_cap(self):
        # Newton on (mu^2, epsilon^2) halves v at each step, so from 1e50
        # the 100 iterations end near 1e20, still improving
        def parts(V):
            sq = V * V
            return sq[0], sq[1], np.abs(sq[0]), np.abs(sq[1])

        kind, text = _same_as_reference(parts, (1e50, 1e50))
        assert kind == "ConvergenceError"
        assert text.startswith("no convergence in 100 iterations; ")

    def test_stack_is_evaluated_column_by_column(self):
        family, params, (mu, eps) = ROOTS[3]
        V = np.array([[mu, mu * 1.5, mu * 0.5], [eps, -eps, 3.0 * eps]])
        stacked = _condition_parts(family, params, V[0], V[1])
        for c in range(V.shape[1]):
            alone = _condition_parts(family, params, V[0, c], V[1, c])
            assert [float(a[c]) for a in stacked] == [float(a) for a in alone]

    def test_singular_column_is_solved_alone(self):
        # mu = 0 makes the Jacobian of (mu + eps, mu^2) exactly singular
        def parts(v):
            f1, f2 = v[0] + v[1], v[0] * v[0]
            return f1, f2, np.abs(v[0]) + np.abs(v[1]), f2

        for seed in [(0.5, 1.0), (-2.0, 3.0)]:
            _same_as_reference(parts, seed)
        assert _same_as_reference(parts, (0.0, 1.0)) == (
            "ConvergenceError", "singular Jacobian at (mu, epsilon) = (0.0, 1.0)")

    def test_floating_point_error_stays_in_its_column(self):
        # the finite-difference points of the first seed overflow
        def parts(v):
            return v[0] - 1.0, v[1] - 2.0, np.abs(v[0]), np.abs(v[1])

        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert _same_as_reference(parts, (1.7976931348623157e308, 1.0)) == (
                "FloatingPointError", "overflow encountered in add")
            assert _same_as_reference(parts, (3.0, 5.0)) == [
                "0x1.0000000000000p+0", "0x1.0000000000000p+1"]


def _counting(monkeypatch, name):
    """Replace consistency.<name> by a wrapper that logs each call's args."""
    calls = []
    original = getattr(consistency, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(consistency, name, wrapper)
    return calls


def _cells(refine_calls):
    """The number of scan cells refined: one per logged _refine_seed call."""
    return len(refine_calls)


def _seeds_tried(solve_calls):
    """The seed of each logged solve_family_II/III call."""
    return [tuple(map(float, args[1])) for args in solve_calls]


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
        assert _seeds_tried(tried) == [seeds[1]]
        assert _cells(refined) == 2
        assert (rec.mu, rec.epsilon) == (-39.51816580788611, 19.27603819675771)

    def test_readme_II_refines_one_cell(self, monkeypatch):
        refined = _counting(monkeypatch, "_refine_seed")
        tried = _counting(monkeypatch, "solve_family_II")
        solve_from_scan("II", README_II)
        assert _cells(refined) == 1
        assert len(_seeds_tried(tried)) == 1

    def test_full_list_is_the_order_seeds_are_tried(self, monkeypatch):
        seeds = grid_scan_seed(README_III, "III",
                               *default_scan_ranges("III", 1.0))
        tried = []

        def always_fails(params, seed, *, tol):
            tried.append(tuple(map(float, seed)))
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


def reference_solve_from_scan(family, params, mu_range=None, eps_range=None,
                              n=SCAN_N, tol=DEFAULT_TOL):
    """solve_from_scan as one seeded solve after another, each seed refined
    only when its turn comes."""
    if family not in ("II", "III"):
        raise ConfigurationError("scan-solve applies to families II and III")
    d_mu, d_eps = default_scan_ranges(family, params.alpha)
    found, seeds = consistency._scan_seeds(
        params, family, d_mu if mu_range is None else mu_range,
        d_eps if eps_range is None else eps_range, n)
    solve = solve_family_II if family == "II" else solve_family_III
    failures = Counter()
    detail = "every seed violated sign preconditions"
    for mu_g, eps_g in seeds:
        if not _in_sign_scope(family, mu_g, eps_g):
            continue
        try:
            return solve(params, (mu_g, eps_g), tol=tol)
        except (ConvergenceError, OutOfScopeRootError, InconsistentRootError,
                SingularParameterError) as exc:
            failures[type(exc).__name__] += 1
            detail = str(exc)
    summary = f"{found} candidates, {sum(failures.values())} tried"
    if failures:
        summary += ": " + ", ".join(f"{k} {name}"
                                    for name, k in failures.most_common())
    raise NoRootFoundError(f"no scan candidate solves family {family} "
                           f"({summary}); last failure: {detail}")


def _scan_outcome(solve, *args, **kwargs):
    try:
        return repr(solve(*args, **kwargs))
    except AmbecError as exc:
        return type(exc).__name__, str(exc)


#: the README and conftest family II/III couplings: (family, g_a, g_m,
#: g_am, alpha)
SCAN_BASES = (
    ("II", -5.0, 1.0, -1.1, 1.0),
    ("III", -1.03, -1.2, -0.8, 1.0),
    ("II", -5.0, 1.0, -2.41, 0.230806),
    ("II", -5.0, 1.0, -1.1, 1.584335),
    ("III", -1.03, -1.2, -0.53, 0.059261),
    ("III", -1.03, -1.2, -0.8, 0.0562413),
)


class TestScanSolveOracle:
    """solve_from_scan gives the record, or the error, of one seeded solve
    after another; small scans make the failure paths run."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(base=st.sampled_from(SCAN_BASES),
           jitter=st.tuples(*[st.floats(-0.02, 0.02)] * 4),
           n=st.integers(20, 60))
    def test_same_record_or_error_as_seed_loop(self, base, jitter, n):
        family, *values = base
        params = CouplingParams(*(v * (1.0 + j) for v, j in zip(values, jitter)))
        assert (_scan_outcome(solve_from_scan, family, params, n=n)
                == _scan_outcome(reference_solve_from_scan, family, params,
                                 n=n))


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


class TestScanSolveProperty:
    """Near the README couplings, solve_from_scan returns a record that
    passes its gate or raises an AmbecError, and nothing else."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(base=st.sampled_from([("II", README_II), ("III", README_III)]),
           jitter=st.tuples(*[st.floats(-0.02, 0.02)] * 4))
    def test_gated_record_or_ambec_error(self, base, jitter):
        family, params = base
        params = CouplingParams(*(v * (1.0 + j) for v, j in zip(
            (params.g_a, params.g_m, params.g_am, params.alpha), jitter)))
        try:
            record = solve_from_scan(family, params)
        except AmbecError:
            return
        assert record.family == family
        assert record.params.with_epsilon(None) == params
        assert max(normalized_residuals(record).values()) < default_tol()


#: the benchmark's scan-solve coupling sets: (family, g_a, g_m, g_am, alpha),
#: each solved at alpha * (1 + k/1000) for k = -10..10
JITTERED_SETS = (
    ("II", -5.0, 1.0, -1.1, 1.0),
    ("III", -1.03, -1.2, -0.8, 1.0),
    ("II", -5.0, 1.0, -2.41, 0.230806),
    ("II", -5.0, 1.0, -1.1, 1.584335),
    ("III", -1.03, -1.2, -0.8, 0.0562413),
)
JITTER_STEPS = range(-10, 11)


class TestPinnedScanRecords:
    """The README --scan records, bit for bit."""

    def test_jittered_and_conftest_records(self):
        # the 105 jittered sets in order, then conftest III-high and III-low
        digest = hashlib.sha256()
        for family, g_a, g_m, g_am, alpha in JITTERED_SETS:
            for k in JITTER_STEPS:
                alpha_k = float(format(alpha * (1 + k / 1000), ".9g"))
                record = solve_from_scan(
                    family, CouplingParams(g_a, g_m, g_am, alpha_k))
                digest.update((record.to_json() + "\n").encode())
        for g_am, alpha in ((-0.53, 0.059261), (-0.8, 0.0562413)):
            record = solve_from_scan(
                "III", CouplingParams(-1.03, -1.2, g_am, alpha))
            digest.update((record.to_json() + "\n").encode())
        assert digest.hexdigest() == (
            "60c550c6e93d302054f82f7240a149b99ad58ed7fe11da791240ad36c3e92468")

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


class TestPinnedScanSeeds:
    """Every scan seed of the README and conftest family II/III couplings,
    bit for bit."""

    def test_seed_bits(self):
        digest = hashlib.sha256()
        counts = []
        for family, params in (
                ("II", README_II), ("III", README_III),
                ("III", CouplingParams(-1.03, -1.2, -0.8, 0.0562413)),
                ("III", CouplingParams(-1.03, -1.2, -0.53, 0.059261)),
                ("II", CouplingParams(-5.0, 1.0, -2.41, 0.230806)),
                ("II", CouplingParams(-5.0, 1.0, -1.1, 1.584335))):
            seeds = grid_scan_seed(params, family,
                                   *default_scan_ranges(family, params.alpha),
                                   SCAN_N)
            counts.append(len(seeds))
            for mu, eps in seeds:
                digest.update(f"{mu.hex()} {eps.hex()}\n".encode())
        assert counts == [7, 74, 74, 94, 54, 7]
        assert digest.hexdigest() == (
            "2b32bfd14d31c9fbd2a27c51cf75d68f8545317de2d17582f77522af158f38ab")


class TestPinnedScanSeedsInNumpy(TestPinnedScanSeeds):
    """The same seeds from the numpy conditions, without the C library."""

    @pytest.fixture(autouse=True)
    def _numpy_conditions(self, monkeypatch):
        monkeypatch.setattr(_kernels, "c_library", lambda: None)


class TestPinnedScanRecordsInNumpy(TestPinnedScanRecords):
    """The same records from the numpy conditions, without the C library."""

    @pytest.fixture(autouse=True)
    def _numpy_conditions(self, monkeypatch):
        monkeypatch.setattr(_kernels, "c_library", lambda: None)


needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler")

#: couplings, zeros included, and points that force 0/0, x/0, overflow,
#: inf - inf and inf * 0 in the conditions
COUPLING = st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0, 1.0])
POINT = st.floats(-1e3, 1e3) | st.sampled_from(
    [0.0, -0.0, 1.0, 0.5, -1.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308,
     math.inf, -math.inf, math.nan, -math.nan])


class TestConditionKernel:
    """The C library's conditions against the numpy reference."""

    @needs_cc
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(family=st.sampled_from(["II", "III"]),
           couplings=st.tuples(COUPLING, COUPLING, COUPLING, COUPLING),
           mu=st.lists(POINT, min_size=1, max_size=6),
           eps=st.lists(POINT, min_size=1, max_size=6),
           shape=st.sampled_from(["0-d", "k", "broadcast"]))
    def test_same_bits_as_numpy(self, family, couplings, mu, eps, shape):
        params = CouplingParams(*couplings)
        if shape == "0-d":
            mu, eps = np.array(mu[0]), np.array(eps[0])
        elif shape == "k":
            k = min(len(mu), len(eps))
            mu, eps = np.array(mu[:k]), np.array(eps[:k])
        else:  # as _refine_seed passes them
            mu, eps = np.array(mu)[:, None], np.array(eps)
        with np.errstate(all="raise"):
            got = _kernels.condition_parts(family, params, mu, eps)
        want = np.array(consistency._numpy_condition_parts(family, params,
                                                           mu, eps))
        assert got.shape == want.shape == (4, *np.broadcast(mu, eps).shape)
        same = got.view(np.int64) == want.view(np.int64)
        if np.isnan(mu).any() or np.isnan(eps).any():
            # the NaN that a NaN input propagates is whichever operand's
            # NaN numpy's SIMD loops (chosen per CPU) return: only its
            # NaN-ness is the formula's
            same |= np.isnan(got) & np.isnan(want)
        assert same.all(), (got, want)

    @needs_cc
    def test_condition_parts_runs_in_c(self, monkeypatch):
        family, params, (mu, eps) = ROOTS[5]
        calls = []
        monkeypatch.setattr(consistency, "_numpy_condition_parts",
                            lambda *args: calls.append(args))
        f1, f2, s1, s2 = _condition_parts(family, params, mu, eps)
        assert calls == [] and abs(f1) < 1e-9 * s1 and abs(f2) < 1e-9 * s2

    @needs_cc
    @pytest.mark.parametrize("family", ["II", "III"])
    def test_singular_point_raises_nothing(self, family):
        # epsilon = 1 zeroes the denominator of Gamma: x/0 at mu = 1, then
        # inf - inf; 0/0 at the origin with alpha = 0 as well
        for alpha, point in ((1.0, 1.0), (0.0, 0.0)):
            params = CouplingParams(1.0, 1.0, 0.0, alpha)
            with np.errstate(all="raise"):
                parts = _kernels.condition_parts(family, params, point, point)
                assert not np.isfinite(parts).all()
                # numpy's next operations see no flag the C raised
                assert np.isfinite(np.ones(3) * 2.0 + 1.0).all()
                np.linalg.solve(np.eye(2), np.ones(2))
