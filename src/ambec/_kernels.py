"""Nonlinear substep kernel of the split-step propagator (numpy).

The pointwise nonlinear+coupling flow used between kinetic steps, on the
stacked field pair psi = (psi_a, psi_m) of shape (2, n).
"""
from __future__ import annotations

import numpy as np

from .core import SQRT2


def _rhs(psi, g_a, g_m, g_am, alpha, epsilon):
    """H(psi) of the local flow i dpsi/dt = H(psi), stacked like psi."""
    pa, pm = psi
    na = pa.real ** 2 + pa.imag ** 2
    nm = pm.real ** 2 + pm.imag ** 2
    out = np.empty(psi.shape, dtype=complex)
    out[0] = (g_a * na + g_am * nm) * pa + SQRT2 * alpha * pm * np.conj(pa)
    out[1] = (epsilon + g_m * nm + g_am * na) * pm + (alpha / SQRT2) * pa * pa
    return out


def nonlinear_step(psi, dt, g_a, g_m, g_am, alpha, epsilon):
    """Advance the local nonlinear+coupling flow by dt with classical RK4.

    psi stacks (psi_a, psi_m) along axis 0.  Integrates i dpsi_a/dt =
    (g_a|psi_a|^2 + g_am|psi_m|^2) psi_a + sqrt(2) alpha psi_m conj(psi_a)
    and i dpsi_m/dt = (epsilon + g_m|psi_m|^2 + g_am|psi_a|^2) psi_m
    + (alpha/sqrt(2)) psi_a^2 pointwise.  The conjugate coupling makes the
    flow non-diagonal, so a real integrator is used instead of an exact
    phase rotation.  The -i of the flow is folded into the step h = -i dt,
    and the weighted stages are summed into one buffer.

    Returns a new array; the input is not modified.
    """
    args = (g_a, g_m, g_am, alpha, epsilon)
    h = -1j * dt
    acc = _rhs(psi, *args)
    k = _rhs(psi + (0.5 * h) * acc, *args)
    acc += 2.0 * k
    k = _rhs(psi + (0.5 * h) * k, *args)
    acc += 2.0 * k
    acc += _rhs(psi + h * k, *args)
    return psi + (h / 6.0) * acc
