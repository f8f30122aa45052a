"""Consistency systems that pin down the free parameters of each family.

Family I collapses to closed form.  Families II and III reduce to two scalar
conditions in (mu, epsilon), solved here by a damped Newton iteration and then
expanded back to the full parameter set; every original relation is re-checked
before a record is returned.

The model is invariant under alpha -> -alpha with psi_m -> -psi_m, so every
solver takes either sign of alpha: at -alpha it returns the alpha record with
alpha and D negated.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import numpy as np

from .core import (SQRT2, CouplingParams, SolutionRecord, nonfinite,
                   require_finite, validate_params)
from .errors import (ConfigurationError, ConvergenceError,
                     InconsistentRootError, NoDropletError, NoRootFoundError,
                     OutOfScopeRegimeError, OutOfScopeRootError,
                     SingularParameterError)

#: the normalized-residual bound every solver gates on, and the points per
#: axis of the (mu, epsilon) seed scan: the CLI's --tol and --scan-n defaults
DEFAULT_TOL = 1e-9
SCAN_N = 200

#: default Newton seed-scan boxes, (mu, epsilon) ranges in units of alpha^2
SCAN_BOX_II = ((-10.0, -0.01), (-10.0, -0.01))
SCAN_BOX_III = ((-100.0, -0.01), (-200.0, 200.0))

#: agreement required between alternative closed forms of B at a root
B_AGREEMENT = 1e-8

#: _newton2's iteration cap, convergence bound, damping halvings and leash,
#: and _refine_seed's zoom levels and points per side of each level
_NEWTON_MAX_ITER = 100
_NEWTON_TOL = 1e-12
_MAX_HALVINGS = 30
_LEASH = 1e3
_REFINE_LEVELS = 3
_REFINE_POINTS = 9


def default_tol() -> float:
    """The residual tolerance every solver gates on unless given another."""
    return DEFAULT_TOL


def _require_admissible(params: CouplingParams, family: str, **values) -> None:
    """Raise unless params suit the family (epsilon aside) and the values are finite."""
    bad = validate_params(replace(params, epsilon=None), family) + nonfinite(**values)
    if bad:
        raise ConfigurationError("; ".join(bad))


#: sign scope of family II/III seeds and roots, as _in_sign_scope tests it
_SIGN_SCOPE = {"II": "mu < 0 and epsilon < 0", "III": "mu < 0"}


def _in_sign_scope(family: str, mu: float, eps: float) -> bool:
    return mu < 0.0 and (family == "III" or eps < 0.0)


def _gamma_den_terms(family: str, params: CouplingParams, eps):
    """Terms of the denominator shared by Gamma and C."""
    al, ga, gam = params.alpha, params.g_a, params.g_am
    if family == "II":
        return 2.0 * gam * eps, -3.0 * ga * eps, 3.0 * al * al
    return 2.0 * gam * eps, -ga * eps, al * al


def _gamma_and_C(family: str, params: CouplingParams, mu, eps):
    """Gamma and C of the elimination D = Gamma*B + C (C = 0 for family II).

    Accepts scalars or arrays.  Summing the denominator left to right for
    every caller lets the solver expand a root with the very Gamma whose
    conditions Newton zeroed.  Never raises: a zero denominator gives inf/nan.
    """
    al = params.alpha
    mu = np.asarray(mu, dtype=float)
    eps = np.asarray(eps, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t1, t2, t3 = _gamma_den_terms(family, params, eps)
        den = t1 + t2 + t3
        if family == "II":
            return SQRT2 * (eps + 6.0 * mu) * al / den, 0.0
        return SQRT2 * (eps - 2.0 * mu) * al / den, SQRT2 * eps * al / den


def _b_forms(family: str, params: CouplingParams, mu, eps, G, C):
    """The relations for B at (mu, epsilon), given Gamma and C there.

    Returns (forms, quadratics), keyed by relation: the closed forms of B as
    (numerator, denominator) pairs, primary first (A15-A17 for family II, A23
    for III), and family III's A24/A25 quadratics in B as (a, b, c) triples.
    """
    al, ga, gm, gam = params.alpha, params.g_a, params.g_m, params.g_am
    two = 2.0 * mu - eps
    den = (al * al - ga * eps) * G - 4.0 * SQRT2 * mu * al
    if family == "II":
        return {
            "A15": (SQRT2 * mu * al, den),
            "A16": (mu, two - gm * G * G),
            "A17": (-8.0 * mu * al,
                    gam * al * G * G + SQRT2 * ga * eps * G + 8.0 * mu * al),
        }, {}
    return {
        "A23": (3.0 * SQRT2 * mu * al + (ga * eps - al * al) * C, den),
    }, {
        "A24": (gm * G * G - two,
                2.0 * gm * G * C - 5.0 * mu + 2.0 * eps,
                gm * C * C - (3.0 * mu - eps)),
        "A25": (gam * al * G * G + 8.0 * mu * al + SQRT2 * ga * eps * G,
                2.0 * gam * al * G * C + SQRT2 * ga * eps * (G + C) + 8.0 * mu * al,
                gam * al * C * C + SQRT2 * ga * eps * C),
    }


def _sum_and_scale(*terms):
    """Signed sum of the terms and the sum of their magnitudes."""
    s, m = terms[0], np.abs(terms[0])
    for t in terms[1:]:
        s, m = s + t, m + np.abs(t)
    return s, m


def _condition_parts(family: str, params: CouplingParams, mu, epsilon):
    """Raw family II/III conditions and their term-magnitude scales.

    Family II's two conditions need only Gamma; family III's are its A24/A25
    quadratics evaluated at the A23 form of B.
    """
    al, ga, gm, gam = params.alpha, params.g_a, params.g_m, params.g_am
    G, C = _gamma_and_C(family, params, mu, epsilon)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if family == "II":
            f1, s1 = _sum_and_scale(SQRT2 * gm * al * G * G,
                                    (al * al - ga * epsilon) * G,
                                    -SQRT2 * al * (6.0 * mu - epsilon))
            f2, s2 = _sum_and_scale(gam * al * G * G,
                                    SQRT2 * (4.0 * al * al - 3.0 * ga * epsilon) * G,
                                    -24.0 * mu * al)
            return f1, f2, s1, s2
        forms, quads = _b_forms(family, params, mu, epsilon, G, C)
        num, den = forms["A23"]
        B = num / den
        (f1, s1), (f2, s2) = (_sum_and_scale(B * B * a, B * b, c)
                              for a, b, c in quads.values())
    return f1, f2, s1, s2


def _conditions(family: str, params: CouplingParams, mu, eps):
    """The two family II/III conditions over 1 + term magnitudes.

    Both vanish exactly at a consistent (mu, epsilon); the normalization
    keeps values O(1) so one tolerance fits every parameter scale.
    Accepts scalars or arrays.  Never raises: a singular point gives nan.
    """
    f1, f2, s1, s2 = _condition_parts(family, params, mu, eps)
    with np.errstate(invalid="ignore", over="ignore"):
        return f1 / (1.0 + s1), f2 / (1.0 + s2)


def _newton2(parts, v0) -> np.ndarray:
    """Damped 2-D Newton with a central finite-difference Jacobian.

    parts(V) maps a stack V of shape (2, k), one (mu, epsilon) point per
    column, to four arrays of shape (k,): raw residuals 1 and 2 and their
    scales.  Column c must equal parts(V[:, c:c + 1]) bit for bit (true of
    any elementwise formula).  The seed is a one-column stack; each
    iteration makes two more calls: the four finite-difference points,
    and every damping level of the line search at once.

    Steps and the line search use the raw residuals under fixed row
    weights from the seed, so the merit keeps its polynomial growth away
    from roots instead of flattening out; convergence is judged on
    |raw|/(1 + scale) < _NEWTON_TOL, which is parameter-scale-free.  The
    step is damped by the first of 1, 1/2, 1/4, ... that stays in bounds
    and improves the merit.  When none does, the smallest in-bounds step
    is taken anyway, which lets the iteration creep across the narrow
    non-monotone ridges these systems have; a stagnation counter and a
    leash on |v| bound that behavior.  A few extra polishing steps after
    convergence push the root to machine precision.
    """
    def combine(V):
        r = parts(V)
        return np.array(r[:2], dtype=float), np.array(r[2:], dtype=float)

    v = np.array(v0, dtype=float)
    limit = _LEASH * max(1.0, float(np.max(np.abs(v))))
    raw, scale = (a[:, 0] for a in combine(v[:, None]))
    weights = np.where(np.isfinite(scale), 1.0 / (1.0 + scale), 1.0)
    # lam = 1, 1/2, 1/4, ...: the damping levels of the line search
    lams = np.ldexp(1.0, -np.arange(_MAX_HALVINGS))

    def merits(R):
        """merit of each column of R; inf where any entry is not finite."""
        x = np.abs(weights[:, None] * R)
        return np.where(np.isfinite(x).all(axis=0), x.max(axis=0), math.inf)

    def merit(r):
        return float(merits(r[:, None])[0])

    def converged(r, s):
        return bool(np.all(np.isfinite(r)) and np.all(np.isfinite(s))
                    and np.max(np.abs(r) / (1.0 + s)) < _NEWTON_TOL)

    polish_left = 3
    best = merit(raw)
    since_best = 0
    for _ in range(_NEWTON_MAX_ITER):
        at_root = converged(raw, scale)
        if at_root:
            if polish_left == 0:
                return v
            polish_left -= 1
        elif since_best > 12:
            raise ConvergenceError(
                f"Newton stagnated at residual {merit(raw):.3e}")
        h = 1e-7 * np.maximum(1.0, np.abs(v))
        # columns v + h_0 e_0, v - h_0 e_0, v + h_1 e_1, v - h_1 e_1
        F, _ = combine(v[:, None] + np.array([[h[0], -h[0], 0.0, 0.0],
                                              [0.0, 0.0, h[1], -h[1]]]))
        with np.errstate(over="ignore", invalid="ignore"):
            J = weights[:, None] * (F[:, 0::2] - F[:, 1::2]) / (2.0 * h)
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
        trials = v[:, None] - lams * step[:, None]
        t_raw, t_scale = combine(trials)
        usable = ((np.abs(trials).max(axis=0) <= limit)
                  & np.isfinite(t_raw).all(axis=0))
        better = usable & (merits(t_raw) < base)
        if better.any():
            k = int(np.argmax(better))
        elif at_root:
            return v
        elif usable.any():
            k = _MAX_HALVINGS - 1 - int(np.argmax(usable[::-1]))
        else:
            raise ConvergenceError(
                f"Newton left the search region at residual {base:.3e}")
        v, raw, scale = trials[:, k], t_raw[:, k], t_scale[:, k]
        m = merit(raw)
        if m < 0.9 * best:
            best = m
            since_best = 0
        else:
            since_best += 1
    if converged(raw, scale):
        return v
    raise ConvergenceError(
        f"no convergence in {_NEWTON_MAX_ITER} iterations; last residual "
        f"{merit(raw):.3e}")


def _safe_div(num: float, den: float) -> float:
    if den == 0.0:
        return math.inf if num != 0.0 else math.nan
    return num / den


def _equations(record: SolutionRecord) -> dict:
    """Every keyed relation of the record's family as (residual, scale).

    Residual is LHS - RHS of the printed relation; scale is the sum of term
    magnitudes, for normalization.  Relations that state two facts carry a
    'b' suffix on the second part.  Total: never raises, returns inf/nan
    residuals where an expression is singular.
    """
    params = record.params
    ga, gm, gam, al = params.g_a, params.g_m, params.g_am, params.alpha
    eps = record.epsilon
    mu, beta, A, B, D = record.mu, record.beta, record.A, record.B, record.D
    b2 = beta * beta
    A2, D2 = A * A, D * D

    def eq(*terms):
        try:
            return math.fsum(terms), math.fsum(abs(t) for t in terms)
        except (OverflowError, ValueError):  # fsum of inf - inf, or overflow
            return sum(terms), sum(map(abs, terms))

    if record.family == "I":
        den8 = 2.0 * al * al / (9.0 * b2) - ga - gam
        return {
            "A1": eq(mu, 2.0 * b2),
            "A2": eq(SQRT2 * al * D, 3.0 * (1.0 + 2.0 * B) * b2),
            "A3": eq(ga * A2, gam * D2, -4.0 * B * (B + 1.0) * b2),
            "A4": eq(eps, 3.0 * b2),
            "A4b": eq(D2, -A2),
            "A5": eq((gam + gm) * A2, -2.0 * B * (1.0 + B) * b2),
            "A6": eq((ga - gm) * A2, -2.0 * B * (B + 1.0) * b2),
            "A7": eq(eps, -1.5 * mu),
            "A8": eq(A2, -_safe_div(b2, den8)),
            "A9": eq(gm, -(ga - gam) / 2.0),
        }

    G, C = map(float, _gamma_and_C(record.family, params, mu, eps))
    forms, quads = _b_forms(record.family, params, mu, eps, G, C)
    two = 2.0 * mu - eps
    if record.family == "II":
        rel = {
            "A10": eq(two * D, D * b2, -al * A2 / SQRT2),
            "A11": eq(gam * A2, -two * B, 0.5 * (3.0 + 4.0 * B) * b2),
            "A12": eq(gm * D2, -two * B * B, -0.5 * B * b2),
            "A13": eq(mu, 0.5 * b2),
            "A13b": eq(ga * A2, SQRT2 * al * D, (1.0 + 4.0 * B) * b2),
            "A14": eq(gam * D2, -B * ga * A2, -4.0 * B * (B + 1.0) * b2),
        }
    else:
        rel = {
            "A18": eq(two * D, D * b2, -al * A2 / SQRT2),
            "A19": eq(gam * A2, -two * (B + 1.0), 0.5 * (1.0 + 4.0 * B) * b2),
            "A20": eq(gm * D2, -two * (B + 1.0) ** 2, 0.5 * (B + 1.0) * b2),
            "A21": eq(mu, 0.5 * b2),
            "A21b": eq(ga * A2, SQRT2 * al * D, (3.0 + 4.0 * B) * b2),
            "A22": eq(gam * D2, -(1.0 + B) * ga * A2, -4.0 * B * (B + 1.0) * b2),
        }
    rel.update((k, eq(B, -_safe_div(num, den))) for k, (num, den) in forms.items())
    rel.update((k, eq(B * B * a, B * b, c)) for k, (a, b, c) in quads.items())
    return rel


def check_consistency(record: SolutionRecord) -> dict:
    """Signed residual (LHS - RHS) of every relation of the record's family.

    Never raises; singular expressions show up as inf/nan residuals.
    """
    return {k: r for k, (r, _) in _equations(record).items()}


def normalized_residuals(record: SolutionRecord) -> dict:
    """|residual| / (1 + term magnitudes) per relation: scale-free residuals."""
    return {k: abs(r) / (1.0 + s) for k, (r, s) in _equations(record).items()}


def _verified(record: SolutionRecord, tol: float) -> SolutionRecord:
    """Gate a candidate record on its normalized residuals; stamp the raw max."""
    eqs = _equations(record)
    norm = {k: abs(r) / (1.0 + s) for k, (r, s) in eqs.items()}
    worst = max(norm, key=norm.get)
    if not norm[worst] < tol:
        raise InconsistentRootError(
            f"converged root fails relation {worst}: normalized residual "
            f"{norm[worst]:.3e} exceeds tolerance {tol:g}")
    return replace(record, residual_max=max(abs(r) for r, _ in eqs.values()))


def solve_family_I(g_a: float, g_am: float, alpha: float, beta: float,
                   *, tol: float = DEFAULT_TOL) -> SolutionRecord:
    """Closed-form family I solve; g_m and epsilon are outputs.

    mu = -2 beta^2, epsilon = -3 beta^2, A^2 = D^2 with D opposite in sign
    to alpha, and g_m = (g_a - g_am)/2.
    """
    require_finite(g_a=g_a, g_am=g_am, alpha=alpha, beta=beta, tol=tol)
    if alpha == 0.0:
        raise ConfigurationError("family I needs alpha != 0")
    if not beta > 0.0:
        raise ConfigurationError(f"beta must be positive, got {beta}")
    if g_a + g_am == 0.0:
        raise SingularParameterError(
            "g_a + g_am = 0 makes the critical chemical potential singular")
    b2 = beta * beta
    if b2 == 0.0:
        raise ConfigurationError(f"beta = {beta:g} is too small: beta^2 "
                                 "underflows to 0")
    if math.isinf(9.0 * b2):
        raise ConfigurationError(f"beta = {beta:g} is too large: 9 beta^2 "
                                 "overflows")
    c = 2.0 * alpha * alpha / (9.0 * b2)
    if math.isinf(c):
        raise ConfigurationError(f"alpha = {alpha:g} is too large: "
                                 "2 alpha^2/(9 beta^2) overflows")
    mu = -2.0 * b2
    eps = -3.0 * b2
    den = c - g_a - g_am
    if den <= 0.0:
        beta_max = abs(alpha) * math.sqrt(2.0 / (9.0 * (g_a + g_am)))
        raise NoDropletError(
            f"mu = {mu:g} lies at or below the critical value; "
            f"admissible beta range is approximately (0, {beta_max:.6g})")
    # x = (beta/beta_max)^2 and 1 - x = den/c; B = (1/sqrt(1 - x) - 1)/2
    # written so that it does not cancel when beta << beta_max
    x = (g_a + g_am) / c
    if x == 0.0:
        raise ConfigurationError(f"beta = {beta:g} is too small against "
                                 f"alpha = {alpha:g}: (beta/beta_max)^2 "
                                 "underflows to 0")
    A = beta / math.sqrt(den)
    D = -math.copysign(A, alpha)
    r = math.sqrt(den / c)
    B = 0.5 * x / (r * (1.0 + r))
    if B <= 0.0:
        raise OutOfScopeRegimeError(
            f"profile parameter B = {B:g} <= 0; family I needs g_a + g_am > 0")
    g_m = 0.5 * (g_a - g_am)
    params = CouplingParams(g_a=g_a, g_m=g_m, g_am=g_am, alpha=alpha, epsilon=eps)
    record = SolutionRecord("I", params, A=A, B=B, D=D, beta=beta, mu=mu)
    res = normalized_residuals(record)
    for key in ("A3", "A5"):
        if not res[key] < 1e-10:
            raise InconsistentRootError(
                f"closed form failed its own relation {key}: normalized "
                f"residual {res[key]:.3e}")
    return _verified(record, tol)


def _solve_cat(family: str, params: CouplingParams, seed,
               tol: float) -> SolutionRecord:
    """Newton-solve a family II/III system from a (mu, epsilon) seed.

    At the root every closed form of B must agree with the primary one
    before the signs of B and A^2 = -sqrt(2) epsilon D / alpha are checked.
    """
    mu_g, eps_g = float(seed[0]), float(seed[1])
    _require_admissible(params, family, seed_mu=mu_g, seed_epsilon=eps_g,
                        tol=tol)
    if not _in_sign_scope(family, mu_g, eps_g):
        raise ConfigurationError(f"family {family} seeds need "
                                 f"{_SIGN_SCOPE[family]}, got {(mu_g, eps_g)}")

    mu, eps = map(float, _newton2(
        lambda v: _condition_parts(family, params, v[0], v[1]), (mu_g, eps_g)))
    if not _in_sign_scope(family, mu, eps):
        raise OutOfScopeRootError(
            f"root (mu, epsilon) = {(mu, eps)} violates {_SIGN_SCOPE[family]}")
    terms = _gamma_den_terms(family, params, eps)
    scale = sum(abs(t) for t in terms)
    if scale == 0.0 or abs(math.fsum(terms)) < 1e-12 * scale:
        raise SingularParameterError(
            f"family {family} denominator {math.fsum(terms):.3e} is singular "
            f"at epsilon={eps!r}")
    G, C = map(float, _gamma_and_C(family, params, mu, eps))
    forms, quads = _b_forms(family, params, mu, eps, G, C)
    if any(den == 0.0 for _, den in forms.values()):
        raise SingularParameterError("singular B denominator at the root")
    (primary, (num, den)), *rest = forms.items()
    B = num / den
    alternates = {k: n / d for k, (n, d) in rest}
    alternates.update((k, _nearest_real_root(q, B, k)) for k, q in quads.items())
    for key, other in alternates.items():
        if not abs(B - other) <= B_AGREEMENT * max(1.0, abs(B)):
            raise InconsistentRootError(
                f"B = {B!r} from {primary} disagrees with the {key} form "
                f"({other!r}) beyond {B_AGREEMENT:g}")
    if not B > 0.0:
        raise OutOfScopeRootError(f"root gives B = {B:g} <= 0")
    D = G * B + C
    A2 = -SQRT2 * eps * D / params.alpha
    if not A2 > 0.0:
        raise OutOfScopeRootError(f"root gives A^2 = {A2:g} <= 0")
    record = SolutionRecord(family, params.with_epsilon(eps), A=math.sqrt(A2),
                            B=B, D=D, beta=math.sqrt(-2.0 * mu), mu=mu)
    return _verified(record, tol)


def solve_family_II(params: CouplingParams, seed, *,
                    tol: float = DEFAULT_TOL) -> SolutionRecord:
    """Newton-solve the family II conditions from a (mu, epsilon) seed.

    Any epsilon already on params is ignored; the solver determines it.
    """
    return _solve_cat("II", params, seed, tol)


def solve_family_III(params: CouplingParams, seed, *,
                     tol: float = DEFAULT_TOL) -> SolutionRecord:
    """Newton-solve the family III conditions from a (mu, epsilon) seed.

    epsilon may converge to either sign; D takes the sign of -epsilon*alpha.
    """
    return _solve_cat("III", params, seed, tol)


def _nearest_real_root(coefs, target: float, label: str) -> float:
    """Real root of a B^2 + b B + c nearest target; np.roots drops a zero a."""
    real = [r.real for r in np.roots(coefs)
            if abs(r.imag) <= 1e-8 * max(1.0, abs(r))]
    if not real:
        raise InconsistentRootError(f"{label} has no real root near B = {target!r}")
    return min(real, key=lambda r: abs(r - target))


def _refine_seed(family: str, params: CouplingParams, mu_c: float,
                 eps_c: float, d_mu: float, d_eps: float):
    """Zoom toward the joint zero of both conditions inside a scan cell.

    Each level re-grids a square window around the current best point and
    shrinks it 4x, because the Newton basins of the steepest roots are
    narrower than a coarse scan cell.
    """
    for _ in range(_REFINE_LEVELS):
        mus = np.linspace(mu_c - d_mu, mu_c + d_mu, _REFINE_POINTS)
        epss = np.linspace(eps_c - d_eps, eps_c + d_eps, _REFINE_POINTS)
        M, E = np.meshgrid(mus, epss, indexing="ij")
        f1, f2 = _conditions(family, params, M, E)
        score = np.abs(f1) + np.abs(f2)
        score = np.where(np.isfinite(score), score, np.inf)
        i, j = np.unravel_index(int(np.argmin(score)), score.shape)
        mu_c, eps_c = float(mus[i]), float(epss[j])
        d_mu /= 0.5 * (_REFINE_POINTS - 1)
        d_eps /= 0.5 * (_REFINE_POINTS - 1)
    return mu_c, eps_c


def _scan_seeds(params: CouplingParams, family: str, mu_range, eps_range,
                n: int):
    """Lattice-scan the two conditions for sign-change cells.

    Checks the family and the box and scans it at once, raising
    NoRootFoundError when no cell changes sign.  Returns the number of
    sign-change cells and a generator of their seeds, best cell first:
    each cell is zoom-refined only when the generator reaches it.
    """
    if family == "I":
        raise ConfigurationError("family I is closed form; it takes no scan")
    mu_lo, mu_hi = float(mu_range[0]), float(mu_range[1])
    eps_lo, eps_hi = float(eps_range[0]), float(eps_range[1])
    _require_admissible(params, family, mu_lo=mu_lo, mu_hi=mu_hi,
                        eps_lo=eps_lo, eps_hi=eps_hi)
    if not (mu_lo < mu_hi and eps_lo < eps_hi):
        raise ConfigurationError("scan ranges must be increasing (lo, hi) pairs")
    if not _in_sign_scope(family, mu_hi, eps_hi):
        raise ConfigurationError(
            f"family {family} scan ranges must keep {_SIGN_SCOPE[family]}")
    if n < 2:
        raise ConfigurationError("scan needs n >= 2")
    mus = np.linspace(mu_lo, mu_hi, n)
    epss = np.linspace(eps_lo, eps_hi, n)
    M, E = np.meshgrid(mus, epss, indexing="ij")
    f1, f2 = _conditions(family, params, M, E)
    finite = np.isfinite(f1) & np.isfinite(f2)

    def cell_corners(F):
        return np.stack([F[:-1, :-1], F[1:, :-1], F[:-1, 1:], F[1:, 1:]])

    c1, c2, ok = cell_corners(f1), cell_corners(f2), cell_corners(finite)
    usable = ok.all(axis=0)
    with np.errstate(invalid="ignore"):
        flips = ((c1.min(axis=0) < 0.0) & (c1.max(axis=0) > 0.0)
                 & (c2.min(axis=0) < 0.0) & (c2.max(axis=0) > 0.0))
    cells = usable & flips
    score = (np.abs(c1) + np.abs(c2)).min(axis=0)
    ii, jj = np.nonzero(cells)
    if ii.size == 0:
        raise NoRootFoundError(
            f"no sign-change cells for family {family} in "
            f"mu {(mu_lo, mu_hi)}, epsilon {(eps_lo, eps_hi)}")
    order = np.argsort(score[ii, jj], kind="stable")
    d_mu = 0.5 * (mus[1] - mus[0])
    d_eps = 0.5 * (epss[1] - epss[0])
    seeds = (_refine_seed(family, params, 0.5 * (mus[i] + mus[i + 1]),
                          0.5 * (epss[j] + epss[j + 1]), d_mu, d_eps)
             for i, j in zip(ii[order], jj[order]))
    return ii.size, seeds


def grid_scan_seed(params: CouplingParams, family: str, mu_range, eps_range,
                   n: int = SCAN_N) -> list:
    """Lattice-scan the two conditions for sign-change cells.

    Returns the (mu, epsilon) seeds of every sign-change cell, ordered by
    how small the conditions already are (best first), for feeding the
    Newton solvers.  Each seed is the zoom-refined interior minimum of its
    cell, not the bare cell center.  solve_from_scan tries the same seeds
    in the same order but refines each one only when it gets to it.
    """
    return list(_scan_seeds(params, family, mu_range, eps_range, n)[1])


def default_scan_ranges(family: str, alpha: float):
    """Scan boxes scaled by alpha^2, matching the parameter scaling law."""
    box = {"II": SCAN_BOX_II, "III": SCAN_BOX_III}.get(family)
    if box is None:
        raise ConfigurationError(f"no default scan ranges for family {family!r}")
    a2 = alpha * alpha
    (mu_lo, mu_hi), (eps_lo, eps_hi) = box
    return (mu_lo * a2, mu_hi * a2), (eps_lo * a2, eps_hi * a2)


def solve_from_scan(family: str, params: CouplingParams, mu_range=None,
                    eps_range=None, n: int = SCAN_N,
                    tol: float = DEFAULT_TOL) -> SolutionRecord:
    """Scan for seeds, then try Newton from each candidate until one passes.

    The candidates are grid_scan_seed's, in its order, but each is
    zoom-refined only when it is about to be tried, so a scan whose first
    seeds pass never refines the rest.  Seeds outside the family's sign
    scope are skipped.  When every candidate fails, the NoRootFoundError
    counts the candidates, the seeds tried and their failures by error
    type, and quotes the last failure.
    """
    if family not in ("II", "III"):
        raise ConfigurationError("scan-solve applies to families II and III")
    require_finite(tol=tol)
    d_mu, d_eps = default_scan_ranges(family, params.alpha)
    found, seeds = _scan_seeds(
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
