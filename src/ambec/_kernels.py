"""Nonlinear substep kernel of the split-step propagator, and the C library
that also renders the Wigner lattice's text.

The pointwise nonlinear+coupling flow used between kinetic steps, on the
stacked field pair psi = (psi_a, psi_m) of shape (2, n).  `numpy_step` is
the reference.  `nonlinear_step` runs the same RK4 as a C loop over grid
points (`_kernels.c`) and falls back to `numpy_step` when that cannot be
built or loaded.  `lattice_blocks` renders lattice rows in the same
library, for `manifest.write_lattice_csv`, whose Python rows are the
reference and the fallback.

The C file is compiled on the first call to `c_library` (through
`nonlinear_step`, `kernel_backend` or `write_lattice_csv`), never at
import, with the system `cc` and CFLAGS: no -march=native, no -ffast-math
and no FMA contraction, so its output does not depend on the CPU.  The
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

#: text lattice_blocks renders per call into one buffer, in bytes
_BLOCK_BYTES = 1 << 20
#: the longest "%.15g" text of a double, "-1.23456789012345e-308"
_MAX_FLOAT_TEXT = 22


def _rhs(psi, g_a, g_m, g_am, alpha, epsilon):
    """H(psi) of the local flow i dpsi/dt = H(psi), stacked like psi."""
    pa, pm = psi
    na = pa.real ** 2 + pa.imag ** 2
    nm = pm.real ** 2 + pm.imag ** 2
    out = np.empty(psi.shape, dtype=complex)
    out[0] = (g_a * na + g_am * nm) * pa + SQRT2 * alpha * pm * np.conj(pa)
    out[1] = (epsilon + g_m * nm + g_am * na) * pm + (alpha / SQRT2) * pa * pa
    return out


def numpy_step(psi, dt, g_a, g_m, g_am, alpha, epsilon):
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
        step, rows = lib.nonlinear_step, lib.lattice_rows
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    step.argtypes = ([ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long]
                     + [ctypes.c_double] * 7)
    step.restype = None
    rows.argtypes = [ctypes.c_char_p, ctypes.c_void_p, ctypes.c_char_p,
                     ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long,
                     ctypes.c_long, ctypes.c_void_p, ctypes.c_long]
    rows.restype = ctypes.c_long
    return lib


def kernel_backend() -> str:
    """Which implementation runs the nonlinear step and renders the Wigner
    lattice: "c" (the C library) or "python" (numpy and Python's "%").

    Builds or loads the C library on first use, like nonlinear_step.
    """
    return "python" if c_library() is None else "c"


def nonlinear_step(psi, dt, g_a, g_m, g_am, alpha, epsilon):
    """numpy_step, run by the C kernel when it is available.

    The two agree to rounding: the C loop takes every sum and product in
    numpy's order, but numpy may fuse its complex products on CPUs with
    FMA.  Returns a new array; the input is not modified.
    """
    lib = c_library()
    if lib is None:
        return numpy_step(psi, dt, g_a, g_m, g_am, alpha, epsilon)
    psi = np.ascontiguousarray(psi, dtype=complex)
    if psi.shape[:1] != (2,):
        raise ValueError(f"psi must stack two fields along axis 0, "
                         f"got shape {psi.shape}")
    out = np.empty_like(psi)
    lib.nonlinear_step(psi.ctypes.data, out.ctypes.data, psi[0].size, dt,
                       g_a, g_m, g_am, SQRT2 * alpha, alpha / SQRT2, epsilon)
    return out


def _offsets(texts):
    """texts joined as ASCII bytes, and the C long offsets of their starts
    followed by the end."""
    ends = (ctypes.c_long * (len(texts) + 1))(*accumulate(map(len, texts),
                                                          initial=0))
    return "".join(texts).encode("ascii"), ends


def lattice_blocks(x_texts, p_pieces, W):
    """The lines x_texts[i] + p_pieces[j] + ("%.15g" % W[i, j]), x-major,
    rendered by the C library as str blocks of whole x rows, each at most
    about _BLOCK_BYTES long (one x row when a row is longer).

    x_texts are the x values as text and p_pieces the texts ",<p_j>,"; W is
    a float array of shape (len(x_texts), len(p_pieces)).  Needs the
    library: c_library() must not be None.
    """
    render = c_library().lattice_rows
    n_p = len(p_pieces)
    if np.shape(W) != (len(x_texts), n_p):
        raise ValueError(f"W has shape {np.shape(W)}, the lattice is "
                         f"({len(x_texts)}, {n_p})")
    ptext, poff = _offsets(p_pieces)
    # a row holds every p piece and, per line, an x text, a W text and a
    # newline; one byte more for snprintf's terminating NUL
    row_cap = len(ptext) + n_p * (2 * _MAX_FLOAT_TEXT + 1) + 1
    per_block = max(1, _BLOCK_BYTES // row_cap)
    cap = per_block * row_cap
    buf = ctypes.create_string_buffer(cap)
    for start in range(0, len(x_texts), per_block):
        xtext, xoff = _offsets(x_texts[start:start + per_block])
        block = np.ascontiguousarray(W[start:start + per_block], dtype=float)
        n = render(xtext, xoff, ptext, poff, block.ctypes.data,
                   len(xoff) - 1, n_p, buf, cap)
        if n < 0:
            raise RuntimeError("lattice rows do not fit their buffer")
        yield ctypes.string_at(buf, n).decode("ascii")
