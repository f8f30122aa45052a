"""Nonlinear substep kernel of the split-step propagator, and the text of
the Wigner lattice's rows; each runs in the C library when it loads.

The pointwise nonlinear+coupling flow used between kinetic steps, on the
stacked field pair psi = (psi_a, psi_m) of shape (2, n).  `numpy_step` is
the reference.  `nonlinear_step` runs the same RK4 as a C loop over grid
points (`_kernels.c`), with the same bits, and falls back to `numpy_step`
when that cannot be built or loaded.  `lattice_rows` renders the lattice
rows that `manifest.write_lattice_csv` writes: in the same library, else by
Python's `%`, the reference.  This module alone decides which
implementation runs.

The C file is compiled on the first call to `c_library` (through
`nonlinear_step`, `lattice_rows` or `kernel_backend`), never at import,
with the system `cc` and CFLAGS: no -march=native, no -ffast-math and no
FMA contraction, so its output does not depend on the CPU.  The
library goes into $XDG_CACHE_HOME/ambec (else ~/.cache/ambec) under a name
keyed by the sha256 of the source and the flags, so later processes only
load it.
"""
from __future__ import annotations

import ctypes
import functools
import os
import pathlib
import shutil
import tempfile
from itertools import accumulate

import numpy as np

from .core import SQRT2

SOURCE = pathlib.Path(__file__).with_name("_kernels.c")
CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

#: the longest "%.15g" text of a double, "-1.23456789012345e-308"
_MAX_FLOAT_TEXT = 22


def _rhs(p, k, f):
    """f = H(p) of the local flow i dpsi/dt = H(psi) on the four real planes
    p = (p0, p1, p2, p3) = (Re psi_a, Im psi_a, Re psi_m, Im psi_m), of
    shape (4, n).

    Each product and sum is one of `rhs` in `_kernels.c`, taken in its
    order.  k = (g, g_am, epsilon, c) with g the column (g_a, g_m) and c the
    column (sqrt(2) alpha, alpha/sqrt(2)).
    """
    g, g_am, epsilon, c = k
    pairs = p.reshape(2, 2, -1)                  # ((p0, p1), (p2, p3))
    sq = p * p
    dens = sq[0::2] + sq[1::2]                   # (n_a, n_m)
    s = g * dens
    s[1] += epsilon
    s += g_am * dens[::-1]                       # (s_a, s_m)
    np.multiply(s[:, None], pairs, out=f.reshape(2, 2, -1))
    u = c * pairs[::-1]                          # ur, ui, vr, vi
    a = (u * p[0]).reshape(4, -1)                # (ur, ui, vr, vi) p0
    b = (u[:, ::-1] * p[1]).reshape(4, -1)       # (ui, ur, vi, vr) p1
    np.add(a[0::3], b[0::3], out=a[0::3])
    np.subtract(a[1:3], b[1:3], out=a[1:3])
    f += a


def _shift(p, c, f, y, cf):
    """y = p + (-i c) f per complex component: p + c (Im f, -Re f), as
    `shift` in `_kernels.c`; cf is scratch."""
    np.multiply(c, f, out=cf)
    np.add(p[0::2], cf[1::2], out=y[0::2])
    np.subtract(p[1::2], cf[0::2], out=y[1::2])


def _field_pair(psi) -> np.ndarray:
    """psi as a C-contiguous complex array of shape (2, n), else ValueError."""
    psi = np.ascontiguousarray(psi, dtype=complex)
    if psi.ndim != 2 or len(psi) != 2:
        raise ValueError(f"psi must stack two fields along axis 0, "
                         f"got shape {psi.shape}")
    return psi


def numpy_step(psi, dt, g_a, g_m, g_am, alpha, epsilon):
    """Advance the local nonlinear+coupling flow by dt with classical RK4.

    psi stacks (psi_a, psi_m) along axis 0.  Integrates i dpsi_a/dt =
    (g_a|psi_a|^2 + g_am|psi_m|^2) psi_a + sqrt(2) alpha psi_m conj(psi_a)
    and i dpsi_m/dt = (epsilon + g_m|psi_m|^2 + g_am|psi_a|^2) psi_m
    + (alpha/sqrt(2)) psi_a^2 pointwise.  The conjugate coupling makes the
    flow non-diagonal, so a real integrator is used instead of an exact
    phase rotation.

    The arithmetic is real, on the planes Re psi_a, Im psi_a, Re psi_m and
    Im psi_m, with every product and sum of the C loop in `_kernels.c` in
    its order.  numpy's real `*` and `+` round each result once, so the two
    give the same bits.  Returns a new array; the input is not modified.
    """
    psi = _field_pair(psi)
    p = np.empty((4, psi.shape[1]))
    p[0::2], p[1::2] = psi.real, psi.imag
    k = (np.array([[g_a], [g_m]]), g_am, epsilon,
         np.array([SQRT2 * alpha, alpha / SQRT2]).reshape(2, 1, 1))
    acc, f, y, cf = (np.empty_like(p) for _ in range(4))
    half = 0.5 * dt
    _rhs(p, k, acc)
    _shift(p, half, acc, y, cf)
    _rhs(y, k, f)
    acc += np.multiply(2.0, f, out=cf)
    _shift(p, half, f, y, cf)
    _rhs(y, k, f)
    acc += np.multiply(2.0, f, out=cf)
    _shift(p, dt, f, y, cf)
    _rhs(y, k, f)
    acc += f
    _shift(p, dt / 6.0, acc, y, cf)
    out = np.empty(psi.shape, dtype=complex)
    out.real, out.imag = y[0::2], y[1::2]
    return out


def _cache_dir() -> pathlib.Path:
    """Where the compiled kernel is kept: $XDG_CACHE_HOME/ambec or
    ~/.cache/ambec."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: not usable
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return pathlib.Path(base) / "ambec"


@functools.cache
def c_library():
    """The C library (`_kernels.c`), built and loaded once per process, or
    None when there is no compiler or the build, cache write or load fails.

    Each build compiles into a temporary file in the cache directory and
    renames it into place, so a process never loads a half-written library.
    Compiler output is discarded: a failed build prints nothing.
    """
    # imported here: commands that never load the library do not pay for them
    import hashlib
    import subprocess

    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        key = hashlib.sha256(SOURCE.read_bytes()
                             + " ".join(CFLAGS).encode()).hexdigest()
        path = _cache_dir() / f"kernels-{key[:16]}.so"
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.",
                                       dir=path.parent)
            os.close(fd)
            try:
                subprocess.run([cc, *CFLAGS, "-o", tmp, str(SOURCE)],
                               check=True, capture_output=True,
                               stdin=subprocess.DEVNULL, timeout=120)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        lib = ctypes.CDLL(str(path))
        step, row = lib.nonlinear_step, lib.lattice_row
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    step.argtypes = ([ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long]
                     + [ctypes.c_double] * 7)
    step.restype = None
    row.argtypes = [ctypes.c_char_p, ctypes.c_long, ctypes.c_char_p,
                    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long,
                    ctypes.c_void_p, ctypes.c_long]
    row.restype = ctypes.c_long
    return lib


def kernel_backend() -> str:
    """Which implementation runs the nonlinear step and renders the Wigner
    lattice: "c" (the C library) or "python" (numpy and Python's "%").

    Builds or loads the C library on first use, like nonlinear_step.
    """
    return "python" if c_library() is None else "c"


def nonlinear_step(psi, dt, g_a, g_m, g_am, alpha, epsilon):
    """numpy_step, run by the C kernel when it is available.

    The two give the same bits: both take every real product and sum in
    one order, each rounded once.  Returns a new array; the input is not
    modified.
    """
    psi = _field_pair(psi)
    lib = c_library()
    if lib is None:
        return numpy_step(psi, dt, g_a, g_m, g_am, alpha, epsilon)
    out = np.empty_like(psi)
    lib.nonlinear_step(psi.ctypes.data, out.ctypes.data, psi[0].size, dt,
                       g_a, g_m, g_am, SQRT2 * alpha, alpha / SQRT2, epsilon)
    return out


def lattice_rows(x_texts, p_texts, W):
    """The text of each x row of a lattice, one str per row: the lines
    "<x_i>,<p_j>,<W_ij>\n" for every j, with W_ij as "%.15g" % W_ij.

    x_texts and p_texts are the coordinates as text; W is a float array of
    shape (len(x_texts), len(p_texts)), else ValueError.  The C library
    renders the W values when it loads: zeros are written directly, a long
    double fast path writes the digits it is sure of, and snprintf under the
    C locale writes the rest (near-ties at the 15th digit, inf and NaN).
    Otherwise one `%`
    call per row from a preformatted p template does, the reference.  Both
    give the same bytes.
    """
    W = np.ascontiguousarray(W, dtype=float)
    n_p = len(p_texts)
    if W.shape != (len(x_texts), n_p):
        raise ValueError(f"W has shape {W.shape}, the lattice is "
                         f"({len(x_texts)}, {n_p})")
    lib = c_library()
    if lib is None:
        # "<x>".join(pieces) is the row "<x>,<p_0>,%.15g\n<x>,<p_1>,..."
        pieces = ["", *(f",{t},%.15g\n" for t in p_texts)]
        for xt, row in zip(x_texts, W):
            yield xt.join(pieces) % tuple(row.tolist())
        return
    pieces = [f",{t}," for t in p_texts]
    ptext = "".join(pieces).encode("ascii")
    poff = (ctypes.c_long * (n_p + 1))(*accumulate(map(len, pieces),
                                                   initial=0))
    # every p piece and, per line, an x text, a W text and a newline; one
    # byte more for snprintf's terminating NUL
    cap = len(ptext) + n_p * (2 * _MAX_FLOAT_TEXT + 1) + 1
    buf = ctypes.create_string_buffer(cap)
    for xt, row in zip(x_texts, W):
        n = lib.lattice_row(xt.encode("ascii"), len(xt), ptext, poff,
                            row.ctypes.data, n_p, buf, cap)
        if n < 0:
            raise RuntimeError("a lattice row does not fit its buffer")
        yield ctypes.string_at(buf, n).decode("ascii")
