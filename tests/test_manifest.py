"""CSV writer: same bytes as the per-cell rule, kind contract, Wigner layout."""
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambec import ansatz, dynamics, wigner
from ambec.cli import main
from ambec.manifest import _BLOCK_ROWS, read_csv, write_csv

SETTINGS = settings(derandomize=True, deadline=None)


def _reference_cell(v) -> str:
    """The per-cell rule of the original writer."""
    if isinstance(v, str):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return str(v)
    return "%.15g" % float(v)


def reference_csv(header, rows, manifest_path=None, comments=()) -> bytes:
    """What write_csv wrote when it formatted one cell at a time."""
    lines = [f"# {c}\n" for c in comments]
    lines.append(",".join(header) + "\n")
    lines.extend(",".join(map(_reference_cell, row)) + "\n" for row in rows)
    if manifest_path is not None:
        lines.append(f"# manifest: {manifest_path}\n")
    return "".join(lines).encode("utf-8")


def _parses_as_float(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308 / 3, 1e308, -1e308,
                  1.7976931348623157e308, 0.1, 1e15, 1e16, -123456789.123456789]

CELLS = {
    "float": st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS),
                       st.floats().map(np.float64)),
    "int": st.integers(-(10**15) + 1, 10**15 - 1),
    # text that read_csv gives back as text after the first row: no
    # separators and no leading comment mark, but it may read as a number
    "text": st.one_of(
        st.text(st.characters(exclude_characters=",\r\n",
                              exclude_categories=("Cs",)),
                min_size=1, max_size=8).filter(
            lambda s: not s.startswith("#")),
        st.sampled_from(["nan", "inf", "-inf", "1", "-0", "1e5", "0x1",
                         " 2 ", "Infinity", "1_0"])),
}

#: the first row fixes a column's kind on reading, so a text cell there
#: must not be one that float() accepts
FIRST_ROW_CELLS = {**CELLS, "text": CELLS["text"].filter(
    lambda s: not _parses_as_float(s))}

#: row counts around the writer's block boundaries
ROW_COUNTS = [0, 1, 2, 7, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
              2 * _BLOCK_ROWS + 5]


@st.composite
def tables(draw, min_rows=0, max_rows=ROW_COUNTS[-1]):
    """(kinds, header, rows): a few distinct rows repeated to a row count."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1,
                          max_size=5))
    distinct = draw(st.lists(st.tuples(*(CELLS[k] for k in kinds)),
                             min_size=0, max_size=5))
    distinct.insert(0, draw(st.tuples(*(FIRST_ROW_CELLS[k] for k in kinds))))
    n = draw(st.sampled_from([c for c in ROW_COUNTS
                              if min_rows <= c <= max_rows]))
    rows = [distinct[i % len(distinct)] for i in range(n)]
    header = [f"c{j}" for j in range(len(kinds))]
    return kinds, header, rows


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "t.csv"


class TestWriteCsv:
    @SETTINGS
    @given(table=tables(), comments=st.lists(st.sampled_from(
        ["note: frozen", "record: {}", ""]), max_size=2),
        manifest=st.sampled_from([None, "t.manifest.json"]))
    def test_bytes_match_per_cell_rule(self, csv_path, table, comments,
                                       manifest):
        _, header, rows = table
        write_csv(str(csv_path), header, iter(rows), manifest,
                  comments=comments)
        assert csv_path.read_bytes() == reference_csv(header, rows, manifest,
                                                      comments)

    @SETTINGS
    @given(table=tables(min_rows=1, max_rows=7))
    def test_read_csv_round_trip(self, csv_path, table):
        kinds, header, rows = table
        write_csv(str(csv_path), header, rows, "m.json")
        data = read_csv(str(csv_path))
        assert data.header == header and data.manifest == "m.json"
        assert len(data.rows) == len(rows)
        for got, row in zip(data.rows, rows):
            for kind, g, v in zip(kinds, got, row):
                if kind == "text":
                    assert g == v
                elif math.isnan(v):
                    assert math.isnan(g)
                else:
                    assert g == float("%.15g" % v)

    @SETTINGS
    @given(table=tables(min_rows=2), data=st.data())
    def test_wrong_kind_cell_raises(self, csv_path, table, data):
        kinds, header, rows = table
        i = data.draw(st.integers(1, len(rows) - 1), label="row")
        j = data.draw(st.integers(0, len(kinds) - 1), label="column")
        wrong = (data.draw(CELLS["float"] | CELLS["int"], label="cell")
                 if kinds[j] == "text" else "x")
        rows = list(rows)
        rows[i] = rows[i][:j] + (wrong,) + rows[i][j + 1:]
        with pytest.raises(TypeError):
            write_csv(str(csv_path), header, rows)

    @pytest.mark.parametrize("tail", [
        [(1.0,)], [(1.0, 2.0, 3.0)],
        # one cell short, then one over: the cell count of the block is right
        [(1.0,), (1.0, 2.0, 3.0)]], ids=["short", "long", "short-long"])
    def test_row_of_another_length_raises(self, csv_path, tail):
        rows = [(0.5, 0.25)] * (_BLOCK_ROWS + 2) + tail
        with pytest.raises(TypeError):
            write_csv(str(csv_path), ["a", "b"], rows)


def _wigner_reference(w, out) -> bytes:
    """The x-major layout of the original command: x repeated, p tiled."""
    rows = zip(np.repeat(w.x, len(w.p)), np.tile(w.p, len(w.x)), w.W.ravel())
    manifest = str(pathlib.Path(out).with_suffix("")) + ".manifest.json"
    return reference_csv(["x", "p", "W"], rows, manifest,
                         comments=[f"convention: {w.convention}"])


class TestWignerBytes:
    def test_solution_molecular(self, fam1_record, tmp_path):
        rec = tmp_path / "rec.json"
        rec.write_text(fam1_record.to_json())
        out = tmp_path / "w.csv"
        assert main(["wigner", "--solution", str(rec), "--component",
                     "molecular", "--grid-n", "64", "--out", str(out)]) == 0
        r = fam1_record
        grid = dynamics.make_grid(dynamics.default_half_width(r.beta), 64)
        w = wigner.wigner_transform(
            lambda x: ansatz.rational_profile("I", r.D, r.B, r.beta, x), grid)
        assert out.read_bytes() == _wigner_reference(w, out)

    def test_inline_bright_even(self, tmp_path):
        out = tmp_path / "cat_w.csv"
        beta, delta = 1.0, 3.0
        assert main(["wigner", "--beta", str(beta), "--delta", str(delta),
                     "--kind", "bright_even", "--grid-n", "64",
                     "--out", str(out)]) == 0
        grid = dynamics.make_grid(delta / beta + 32.0 / beta, 64)
        w = wigner.wigner_transform(
            lambda x: ansatz.superposed_profile("bright_even", beta, delta, x),
            grid)
        assert out.read_bytes() == _wigner_reference(w, out)
