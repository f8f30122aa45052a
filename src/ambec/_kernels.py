"""Nonlinear substep kernel of the split-step propagator, the family II/III
consistency conditions and the text of the Wigner lattice's rows; each runs
in the C library when it loads.

The pointwise nonlinear+coupling flow used between kinetic steps, on the
stacked field pair psi = (psi_a, psi_m) of shape (2, n).  `nonlinear_step`
runs it as the C loop of `_kernels.c` and falls back to `numpy_step`, the
same loop in numpy, when that cannot be built or loaded.
`condition_parts` evaluates the conditions that `consistency`'s scan and
Newton zero, in the same library, and returns None without it; the
choice is then `consistency._condition_parts`'s, which runs
`_numpy_condition_parts`, the reference.  `lattice_rows` renders the
rows that `manifest.write_lattice_csv` writes in the same library; each
row it refuses, and every row without it, is rendered by Python's `%`,
the reference.  The library's renderer scales by the exact powers of ten
of `pow10_table`, built from Python's integers on the first render.

The C file is compiled on the first call to `c_library` (through
`nonlinear_step`, `condition_parts`, `lattice_rows` or `kernel_backend`),
never at import, with the system `cc` and CFLAGS: no -march=native, no
-ffast-math and no FMA contraction, so its output does not depend on the
CPU.  The library goes into $XDG_CACHE_HOME/ambec (else ~/.cache/ambec)
under a name keyed by the sha256 of the source and the flags, so later
processes only load it.
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

#: the least and greatest k of the powers of ten 10^k that the C renderer
#: scales by; it needs 14 - e for e from floor(log10(5e-324)) - 1 = -325,
#: its exponent estimate's lowest, to floor(log10(DBL_MAX)) = 308
POW10_K = (-300, 340)


def _rhs(p, k):
    """H(p) of the local flow i dpsi/dt = H(psi) on the four real planes
    p = (Re psi_a, Im psi_a, Re psi_m, Im psi_m): `rhs` in `_kernels.c`,
    with k = (g_a, g_m, g_am, c1, c2, epsilon) its couplings struct."""
    g_a, g_m, g_am, c1, c2, epsilon = k
    p0, p1, p2, p3 = p
    na = p0 * p0 + p1 * p1
    nm = p2 * p2 + p3 * p3
    sa = g_a * na + g_am * nm
    sm = (epsilon + g_m * nm) + g_am * na
    ur, ui = c1 * p2, c1 * p3                    # c1 psi_m
    vr, vi = c2 * p0, c2 * p1                    # c2 psi_a
    return (sa * p0 + (ur * p0 + ui * p1),
            sa * p1 + (ui * p0 - ur * p1),
            sm * p2 + (vr * p0 - vi * p1),
            sm * p3 + (vr * p1 + vi * p0))


def _shift(p, c, f):
    """p + (-i c) f per complex component: `shift` in `_kernels.c`."""
    return (p[0] + c * f[1], p[1] - c * f[0],
            p[2] + c * f[3], p[3] - c * f[2])


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

    This is the C loop of `_kernels.c` written line for line in numpy:
    each statement of its `rhs`, `shift` and `nonlinear_step` has one
    counterpart in `_rhs`, `_shift` and the lines below, in the same
    order, on the real planes (Re psi_a, Im psi_a, Re psi_m, Im psi_m).
    numpy's real `*` and `+` round each result once, as the C does, so the
    two give the same bits.  Change one only with the other.  Returns a
    new array; the input is not modified.
    """
    psi = _field_pair(psi)
    re, im = psi.real.copy(), psi.imag.copy()    # contiguous planes
    p = (re[0], im[0], re[1], im[1])
    k = (g_a, g_m, g_am, SQRT2 * alpha, alpha / SQRT2, epsilon)
    half, sixth = 0.5 * dt, dt / 6.0
    acc = _rhs(p, k)
    f = _rhs(_shift(p, half, acc), k)
    acc = [a + 2.0 * b for a, b in zip(acc, f)]
    f = _rhs(_shift(p, half, f), k)
    acc = [a + 2.0 * b for a, b in zip(acc, f)]
    f = _rhs(_shift(p, dt, f), k)
    acc = [a + b for a, b in zip(acc, f)]
    y = _shift(p, sixth, acc)
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
        cond = lib.condition_parts
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    step.argtypes = ([ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long]
                     + [ctypes.c_double] * 7)
    step.restype = None
    cond.argtypes = ([ctypes.c_int, ctypes.c_void_p, ctypes.c_long]
                     + [ctypes.c_double] * 4)
    cond.restype = None
    row.argtypes = [ctypes.c_char_p, ctypes.c_long, ctypes.c_char_p,
                    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long,
                    ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p,
                    ctypes.c_long, ctypes.c_long]
    row.restype = ctypes.c_long
    return lib


def kernel_backend() -> str:
    """Which implementation runs the nonlinear step, evaluates the family
    II/III conditions and renders the Wigner lattice: "c" (the C library)
    or "python" (numpy and Python's "%").

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


def condition_parts(family, params, mu, epsilon):
    """The family II (else III) conditions at the points (mu, epsilon) in
    the C library: raw f1 and f2 and their scales s1 and s2, stacked along
    a first axis of four, each of the points' broadcast shape.  None when
    the library does not load.

    Gives the bits of `consistency._numpy_condition_parts`, which the C
    mirrors operation for operation.  Never raises and leaves numpy's
    floating-point state as it found it: a singular point gives inf/nan.
    """
    lib = c_library()
    if lib is None:
        return None
    # the points, then f1, f2, s1 and s2, as planes of one buffer
    buf = np.empty((6, *np.broadcast(mu, epsilon).shape))
    buf[0], buf[1] = mu, epsilon
    lib.condition_parts(family == "III", buf.ctypes.data, buf.size // 6,
                        params.g_a, params.g_m, params.g_am, params.alpha)
    return buf[2:]


@functools.cache
def pow10_table() -> np.ndarray:
    """10^k for each k of POW10_K, as T 2^e2 with T = hi 2^64 + lo the
    floor of 10^k 2^-e2 in [2^127, 2^128), from Python's exact integers:
    the table the C renderer scales by.  Built once, read-only; the cache
    keeps it alive while the library reads it in place."""
    rows = []
    for k in range(POW10_K[0], POW10_K[1] + 1):
        if k >= 0:
            e2 = (10 ** k).bit_length() - 128
            t = 10 ** k >> e2 if e2 >= 0 else 10 ** k << -e2
        else:  # 10^-k is not a power of two, so t < 2^128
            b = (10 ** -k).bit_length()
            e2 = -127 - b
            t = (1 << (127 + b)) // 10 ** -k
        rows.append((t >> 64, t & (2 ** 64 - 1), e2))
    # one row is a `pow10_entry` of `_kernels.c`
    table = np.array(rows, dtype=[("hi", np.uint64), ("lo", np.uint64),
                                  ("e2", np.int64)])
    table.flags.writeable = False
    return table


def _percent_rows(x_texts, p_texts, W):
    """`lattice_rows` by Python's `%`, the reference: one call per row."""
    # "<x>".join(pieces) is the row "<x>,<p_0>,%.15g\n<x>,<p_1>,..."
    pieces = ["", *(f",{t},%.15g\n" for t in p_texts)]
    for xt, row in zip(x_texts, W):
        yield (xt.join(pieces) % tuple(row.tolist())).encode("ascii")


def lattice_rows(x_texts, p_texts, W):
    """The text of each x row of a lattice as ASCII bytes, one bytes object
    per row: the lines "<x_i>,<p_j>,<W_ij>\n" for every j, with W_ij as
    "%.15g" % W_ij.

    x_texts and p_texts are the coordinates as text; W is a float array of
    shape (len(x_texts), len(p_texts)), which `write_lattice_csv` checks
    before the C library reads its rows.  The library writes zeros
    directly and every other value by an exact integer path when it is
    sure of the digits (all the values of the README lattices).
    `_percent_rows`, the reference, renders every row without the library
    and each row it refuses (a tie or near-tie at the 15th digit, an inf or
    a NaN), so no byte depends on LC_NUMERIC.  The C rows are copied out of
    one reused buffer, so nothing is decoded.
    """
    W = np.ascontiguousarray(W, dtype=float)
    n_p = len(p_texts)
    lib = c_library()
    if lib is None:
        yield from _percent_rows(x_texts, p_texts, W)
        return
    pieces = [f",{t}," for t in p_texts]
    ptext = "".join(pieces).encode("ascii")
    poff = (ctypes.c_long * (n_p + 1))(0, *accumulate(map(len, pieces)))
    # every p piece and, per line, an x text, a W text and a newline
    cap = len(ptext) + n_p * (2 * _MAX_FLOAT_TEXT + 1)
    buf = ctypes.create_string_buffer(cap)
    table = pow10_table().ctypes.data
    for xt, row in zip(x_texts, W):
        n = lib.lattice_row(xt.encode("ascii"), len(xt), ptext, poff,
                            row.ctypes.data, n_p, buf, cap, table, *POW10_K)
        if n == -2:
            raise RuntimeError("a lattice row does not fit its buffer")
        # -1: a value the library does not render, so `%` renders the row
        yield (ctypes.string_at(buf, n) if n >= 0
               else next(_percent_rows([xt], p_texts, [row])))
