"""Run manifests and deterministic CSV/JSON input/output.

Every data file the CLI writes is paired with a manifest JSON recording
the command, its full parameter set, tool version, file paths, wall time
and, for `evolve`, `wigner` and family II/III `solve`, the kernel backend;
`cli.main` assembles the one RunManifest of each run.  Data files
themselves are byte-identical across reruns; only the manifest's duration
field may differ.  Each format has one writer: `write_csv` (row by row, so
a TypeError can leave a partly written file), `write_lattice_csv` (row
bytes from `_kernels.lattice_rows`, the C or the Python renderer, written
to the file's binary layer) and `write_json`.  All of them open their file
with `open_output`, which rewrites an existing regular file in place and
cuts it at the end of what was written, so a rerun leaves the bytes that
"w" would.
"""
from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import chain

import numpy as np

from . import _kernels
from .errors import ConfigurationError

TOOL_VERSION = "0.1.0"


def format_float(v: float) -> str:
    """15-significant-digit rendering, the same under any LC_NUMERIC."""
    return "%.15g" % v


@contextmanager
def open_output(path: str):
    """Open an output file for writing UTF-8 text with LF line ends.

    An existing file is rewritten in place, not truncated first, and is
    cut at the end of what was written when the writer finishes or fails,
    so a failed writer leaves only the bytes it wrote, as "w" would.  The
    reason is speed: ext4 frees the blocks of a file truncated to zero and
    starts its writeback at the close, so writing the 13.9 MB wigner
    lattice over its last run took about 19 ms after truncating and 3 ms
    in place.  The file keeps its inode: hard links see the new bytes and
    a symlink is written through.  Only a regular file is cut; os.devnull,
    a FIFO or a tty is written as "w" writes it.  A process killed while
    writing leaves the new bytes followed by the rest of the old file.

    An OSError from opening or writing it (missing directory, no
    permission, full disk) becomes a ConfigurationError, exit code 3.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8", newline="\n") as f:
            try:
                yield f
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    f.truncate()  # flushes, then cuts at the position
    except OSError as e:
        raise ConfigurationError(f"cannot write {path}: {e}") from e


def write_json(path: str, payload: dict) -> None:
    """payload as JSON with sorted keys, a 2-space indent and a final
    newline; its top-level floats are rounded to "%.15g", as in the CSVs."""
    with open_output(path) as f:
        json.dump({k: float(format_float(v)) if isinstance(v, float) else v
                   for k, v in payload.items()}, f, indent=2, sort_keys=True)
        f.write("\n")


@dataclass
class RunManifest:
    """What produced a set of output files.

    environment holds what the outputs depend on beyond the parameters:
    `evolve`, `wigner` and family II/III `solve` record the kernel_backend
    that ran the nonlinear substep, rendered the lattice or evaluated the
    consistency conditions.
    """

    command: str
    parameters: dict
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    version: str = TOOL_VERSION
    duration_s: float = 0.0
    environment: dict = field(default_factory=dict)

    def write(self, path: str) -> None:
        write_json(path, asdict(self))

    @classmethod
    def read(cls, path: str) -> "RunManifest":
        with open(path, encoding="utf-8") as f:
            return cls(**json.load(f))


@contextmanager
def _csv_output(path: str, header, manifest_path: str | None, comments):
    """Open a CSV for writing: comment lines and the header first, then the
    body the caller writes, then the manifest pointer comment on success."""
    with open_output(path) as f:
        for c in comments:
            f.write(f"# {c}\n")
        f.write(",".join(header) + "\n")
        yield f
        if manifest_path is not None:
            f.write(f"# manifest: {manifest_path}\n")


def write_csv(path: str, header, rows, manifest_path: str | None = None,
              comments=()) -> None:
    """One header line, %.15g floats, trailing manifest pointer comment.

    Each row is a sequence of cells.  The first row fixes the kind of
    every column: a column whose first cell is a str is a text column and
    is written as is; every other column is a number column and each of
    its cells is written with "%.15g" (ints below 1e15 in magnitude come
    out as str(v) would print them).  A row of another length, a cell that
    is not a str in a text column, or one that is not a real number in a
    number column raises TypeError.  Rows are written one at a time, so a
    TypeError can leave a partly written file.
    """
    rows = iter(rows)
    with _csv_output(path, header, manifest_path, comments) as f:
        first = next(rows, None)
        if first is None:
            return
        width = len(first)
        text_cols = [j for j, v in enumerate(first) if isinstance(v, str)]
        row_fmt = ",".join("%s" if j in text_cols else "%.15g"
                           for j in range(width)) + "\n"
        for row in chain((first,), rows):
            if len(row) != width:
                raise TypeError(f"{path}: every row needs {width} cells")
            for j in text_cols:
                if not isinstance(row[j], str):
                    raise TypeError(f"{path}: column {j} holds text, so "
                                    "every cell of it must be a str")
            f.write(row_fmt % tuple(row))


def write_lattice_csv(path: str, header, x, p, W,
                      manifest_path: str | None = None, comments=()) -> None:
    """A lattice W[i, j] on x[i] x p[j] as x-major rows x[i], p[j], W[i, j].

    Writes the bytes write_csv writes for those rows, with every value in
    "%.15g".  Each p is formatted once and each x once per row, so only
    the W values are rendered cell by cell, by `_kernels.lattice_rows`,
    whose row bytes go to the file's binary layer as they are.  W must have
    the shape (len(x), len(p)), else TypeError, raised before the file is
    opened.
    """
    W = np.asarray(W, dtype=float)
    if W.shape != (len(x), len(p)):
        raise TypeError(f"{path}: W has shape {W.shape}, the lattice is "
                        f"({len(x)}, {len(p)})")
    x_texts = [format_float(v) for v in np.asarray(x, dtype=float).tolist()]
    p_texts = [format_float(v) for v in np.asarray(p, dtype=float).tolist()]
    with _csv_output(path, header, manifest_path, comments) as f:
        f.flush()  # the comments and header, before the rows' bytes
        f.buffer.writelines(_kernels.lattice_rows(x_texts, p_texts, W))


@dataclass
class CsvData:
    """Parsed CSV: leading comments, header, typed rows, manifest pointer."""

    comments: list
    header: list
    rows: list
    manifest: str | None


def _column_kind(cell: str):
    """float for a cell float() accepts, else str."""
    try:
        float(cell)
    except ValueError:
        return str
    return float


def read_csv(path: str) -> CsvData:
    """Read a CSV written by write_csv; number columns come back as floats.

    The first data row fixes each column's kind, once per column: a column
    whose first cell float() accepts is a number column, every other
    column is text and keeps its cells as written, even a later "nan" or
    "1".  (A text column whose first cell reads as a number therefore
    comes back as numbers.)  A number cell that float() rejects, or a row
    with another number of cells than the first, raises ValueError.
    """
    comments, header, rows, manifest, kinds = [], None, [], None, None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                text = line[1:].strip()
                if text.startswith("manifest:"):
                    manifest = text[len("manifest:"):].strip()
                else:
                    comments.append(text)
            elif header is None:
                header = line.split(",")
            else:
                cells = line.split(",")
                if kinds is None:
                    kinds = list(map(_column_kind, cells))
                if len(cells) != len(kinds):
                    raise ValueError(f"{path}: a row has {len(cells)} cells, "
                                     f"the first has {len(kinds)}")
                rows.append([kind(c) for kind, c in zip(kinds, cells)])
    if header is None:
        raise ValueError(f"{path} has no header line")
    return CsvData(comments=comments, header=header, rows=rows,
                   manifest=manifest)
