"""Nonlinear substep kernel of the split-step propagator (numpy).

The pointwise nonlinear+coupling flow used between kinetic half steps.
"""
from __future__ import annotations

import numpy as np

from .core import SQRT2


def _rhs(pa, pm, g_a, g_m, g_am, alpha, epsilon):
    na = pa.real ** 2 + pa.imag ** 2
    nm = pm.real ** 2 + pm.imag ** 2
    da = -1j * ((g_a * na + g_am * nm) * pa + SQRT2 * alpha * pm * np.conj(pa))
    dm = -1j * ((epsilon + g_m * nm + g_am * na) * pm + (alpha / SQRT2) * pa * pa)
    return da, dm


def nonlinear_step(psi_a, psi_m, dt, g_a, g_m, g_am, alpha, epsilon):
    """Advance the local nonlinear+coupling flow by dt with classical RK4.

    Integrates i dpsi_a/dt = (g_a|psi_a|^2 + g_am|psi_m|^2) psi_a
    + sqrt(2) alpha psi_m conj(psi_a) and i dpsi_m/dt = (epsilon
    + g_m|psi_m|^2 + g_am|psi_a|^2) psi_m + (alpha/sqrt(2)) psi_a^2
    pointwise.  The conjugate coupling makes the flow non-diagonal, so a
    real integrator is used instead of an exact phase rotation.

    Returns new arrays; the inputs are not modified.
    """
    args = (g_a, g_m, g_am, alpha, epsilon)
    k1a, k1m = _rhs(psi_a, psi_m, *args)
    k2a, k2m = _rhs(psi_a + 0.5 * dt * k1a, psi_m + 0.5 * dt * k1m, *args)
    k3a, k3m = _rhs(psi_a + 0.5 * dt * k2a, psi_m + 0.5 * dt * k2m, *args)
    k4a, k4m = _rhs(psi_a + dt * k3a, psi_m + dt * k3m, *args)
    sixth = dt / 6.0
    out_a = psi_a + sixth * (k1a + 2.0 * (k2a + k3a) + k4a)
    out_m = psi_m + sixth * (k1m + 2.0 * (k2m + k3m) + k4m)
    return out_a, out_m
