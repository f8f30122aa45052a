"""Run manifests and deterministic CSV input/output.

Every data file the CLI writes is paired with a manifest JSON recording
the command, its full parameter set, tool version, file paths and wall
time.  Data files themselves are byte-identical across reruns; only the
manifest's duration field may differ.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from operator import itemgetter

from .errors import ConfigurationError

TOOL_VERSION = "0.1.0"

#: rows formatted and written per call by write_csv
_BLOCK_ROWS = 4096


def format_float(v: float) -> str:
    """15-significant-digit, locale-independent rendering."""
    return "%.15g" % v


@contextmanager
def open_output(path: str):
    """Open an output file for writing UTF-8 text with LF line ends.

    An OSError from opening or writing it (missing directory, no
    permission, full disk) becomes a ConfigurationError, exit code 3.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            yield f
    except OSError as e:
        raise ConfigurationError(f"cannot write {path}: {e}") from e


@dataclass
class RunManifest:
    """What produced a set of output files."""

    command: str
    parameters: dict
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    version: str = TOOL_VERSION
    duration_s: float = 0.0

    def write(self, path: str) -> None:
        body = {
            "command": self.command,
            "parameters": self.parameters,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "version": self.version,
            "duration_s": self.duration_s,
        }
        with open_output(path) as f:
            json.dump(body, f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def read(cls, path: str) -> "RunManifest":
        with open(path, encoding="utf-8") as f:
            body = json.load(f)
        return cls(command=body["command"], parameters=body["parameters"],
                   inputs=body["inputs"], outputs=body["outputs"],
                   version=body["version"], duration_s=body["duration_s"])


def write_csv(path: str, header, rows, manifest_path: str | None = None,
              comments=()) -> None:
    """One header line, %.15g floats, trailing manifest pointer comment.

    Each row is a sequence of cells.  The first row fixes the kind of
    every column: a column whose first cell is a str is a text column and
    is written as is; every other column is a number column and each of
    its cells is written with "%.15g" (ints below 1e15 in magnitude come
    out as str(v) would print them).  A row of another length, a cell that
    is not a str in a text column, or one that is not a real number in a
    number column raises TypeError.  Rows are formatted a block at a time,
    so a TypeError can leave a partly written file.
    """
    rows = iter(rows)
    with open_output(path) as f:
        for c in comments:
            f.write(f"# {c}\n")
        f.write(",".join(header) + "\n")
        block = list(islice(rows, _BLOCK_ROWS))
        if block:
            width = len(block[0])
            text_cols = [j for j, v in enumerate(block[0])
                         if isinstance(v, str)]
            row_fmt = ",".join("%s" if j in text_cols else "%.15g"
                               for j in range(width)) + "\n"
        while block:
            if set(map(len, block)) != {width}:
                raise TypeError(f"{path}: every row needs {width} cells")
            for j in text_cols:
                if not all(map(isinstance, map(itemgetter(j), block),
                               repeat(str))):
                    raise TypeError(f"{path}: column {j} holds text, so "
                                    "every cell of it must be a str")
            f.write((row_fmt * len(block)) % tuple(chain.from_iterable(block)))
            block = list(islice(rows, _BLOCK_ROWS))
        if manifest_path is not None:
            f.write(f"# manifest: {manifest_path}\n")


@dataclass
class CsvData:
    """Parsed CSV: leading comments, header, typed rows, manifest pointer."""

    comments: list
    header: list
    rows: list
    manifest: str | None


def _parse_cell(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def read_csv(path: str) -> CsvData:
    """Read a CSV written by write_csv; floats are converted back."""
    comments, header, rows, manifest = [], None, [], None
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
                rows.append([_parse_cell(c) for c in line.split(",")])
    if header is None:
        raise ValueError(f"{path} has no header line")
    return CsvData(comments=comments, header=header, rows=rows,
                   manifest=manifest)
