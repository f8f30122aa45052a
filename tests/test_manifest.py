"""CSV and JSON writers: same bytes as the per-cell rule, kind contract,
Wigner layout, JSON layout."""
import contextlib
import ctypes
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ambec import _kernels, ansatz, dynamics, wigner
from ambec.cli import main
from ambec.manifest import (RunManifest, read_csv, write_csv, write_json,
                            write_lattice_csv)

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

#: row counts up to and past 8,192, twice the 4,096-row blocks that an
#: earlier writer formatted at a time
ROW_COUNTS = [0, 1, 2, 7, 4095, 4096, 4097, 8197]


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
        # one cell short, then one over: their cell count together is right
        [(1.0,), (1.0, 2.0, 3.0)]], ids=["short", "long", "short-long"])
    def test_row_of_another_length_raises(self, csv_path, tail):
        rows = [(0.5, 0.25)] * 4098 + tail
        with pytest.raises(TypeError):
            write_csv(str(csv_path), ["a", "b"], rows)

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n3\n", "a row has 1 cells, the first has 2"),
        ("# comment only\n", "has no header line"),
    ], ids=["ragged-row", "no-header"])
    def test_read_csv_malformed_raises(self, csv_path, text, message):
        csv_path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_csv(str(csv_path))


class TestWriteJson:
    def test_layout(self, tmp_path):
        path = tmp_path / "m.json"
        payload = {"z": 0.1 + 0.2, "a": 7, "m": None, "s": "text",
                   "n": {"y": 0.1 + 0.2, "b": [1, 2.5]}}
        write_json(str(path), payload)
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps({**payload, "z": 0.3}, indent=2,
                                  sort_keys=True) + "\n"
        back = json.loads(text)
        assert back["z"] == 0.3
        # only top-level floats are rounded
        assert back["n"] == {"y": 0.1 + 0.2, "b": [1, 2.5]}
        assert list(back) == ["a", "m", "n", "s", "z"]
        assert text.startswith('{\n  "a": 7,\n') and text.endswith("}\n")

    def test_manifest_duration_to_15_digits(self, tmp_path):
        path = tmp_path / "m.manifest.json"
        RunManifest("solve", {"beta": 2.0}, duration_s=0.1 + 0.2).write(
            str(path))
        assert RunManifest.read(str(path)).duration_s == 0.3


class TestRewriteInPlace:
    """open_output rewrites an existing file in place and cuts it at the end
    of what was written, whether the writer finishes or fails."""

    HEADER, ROWS = ["v", "s"], [(0.5, "a"), (1.5, "b")]

    @pytest.fixture
    def old(self, tmp_path):
        """An existing output, longer than anything a test writes."""
        path = tmp_path / "t.csv"
        path.write_bytes(b"old tail\n" * 10000)
        return path

    def test_longer_file_holds_only_the_new_bytes(self, old):
        write_csv(str(old), self.HEADER, self.ROWS, "t.manifest.json")
        assert old.read_bytes() == reference_csv(self.HEADER, self.ROWS,
                                                 "t.manifest.json")

    def test_lattice_over_a_longer_file(self, old):
        x, p, W = np.array([0.5]), np.array([-1.0, 1.0]), np.ones((1, 2))
        write_lattice_csv(str(old), ["x", "p", "W"], x, p, W)
        assert old.read_bytes() == _lattice_reference(x, p, W)

    def test_failed_writer_leaves_only_what_it_wrote(self, old):
        # row 3 holds a float in the text column
        with pytest.raises(TypeError):
            write_csv(str(old), self.HEADER, [*self.ROWS, (2.5, 3.0)])
        assert old.read_bytes() == reference_csv(self.HEADER, self.ROWS)

    def test_symlink_is_written_through(self, old):
        link = old.with_name("link.csv")
        link.symlink_to(old)
        write_csv(str(link), self.HEADER, self.ROWS)
        assert link.is_symlink()
        assert old.read_bytes() == reference_csv(self.HEADER, self.ROWS)

    def test_hard_links_see_the_new_bytes(self, old):
        other = old.with_name("other.csv")
        os.link(old, other)
        write_csv(str(old), self.HEADER, self.ROWS)
        assert other.read_bytes() == old.read_bytes() == reference_csv(
            self.HEADER, self.ROWS)

    def test_devnull_is_written(self):
        write_csv(os.devnull, self.HEADER, self.ROWS)

    def test_fifo_is_written(self, tmp_path):
        fifo = tmp_path / "t.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(
            fifo.read_bytes()))
        reader.start()
        write_csv(str(fifo), self.HEADER, self.ROWS)
        reader.join(timeout=60)
        assert got == [reference_csv(self.HEADER, self.ROWS)]

    def test_unwritable_out_exits_3(self, tmp_path, capsys):
        # a directory, not a mode: root may write where the mode says not
        rc = main(["solve", "--family", "I", "--g-a", "3", "--g-am", "-2.8",
                   "--alpha", "2", "--beta", "1", "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error: ")


def _lattice_reference(x, p, W, manifest=None, comments=()) -> bytes:
    """The x-major layout of the original command: x repeated, p tiled."""
    rows = zip(np.repeat(x, len(p)), np.tile(p, len(x)), W.ravel())
    return reference_csv(["x", "p", "W"], rows, manifest, comments)


def _wigner_reference(w, out) -> bytes:
    manifest = str(pathlib.Path(out).with_suffix("")) + ".manifest.json"
    return _lattice_reference(w.x, w.p, w.W, manifest,
                              comments=[f"convention: {w.convention}"])


LATTICE_FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)


@st.composite
def lattices(draw):
    """(x, p, W) with W of shape (len(x), len(p)), 1x1 up to 9x9."""
    nx, n_p = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    x, p, W = (draw(st.lists(LATTICE_FLOATS, min_size=n, max_size=n))
               for n in (nx, n_p, nx * n_p))
    return np.array(x), np.array(p), np.array(W).reshape(nx, n_p)


class _CRenderer:
    """The writer wigner runs: rows rendered by the C library, which must
    load; skipped only without a compiler."""

    @pytest.fixture(autouse=True, scope="class")
    def renderer(self):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        assert _kernels.c_library() is not None


class _PythonRenderer:
    """The writer without the library: its Python rows, the fallback."""

    @pytest.fixture(autouse=True, scope="class")
    def renderer(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "c_library", lambda: None)
            yield


def _refusal(v) -> int:
    """2 when the C renderer must refuse v (an inf, a NaN, an exact tie at
    the 15th digit, or digits that round up to 1e15), 1 when it may (the
    fraction of v's scaled digits lies within 4 units of 2^-64 of one
    half), 0 when it renders v.

    With e = floor(log10|v|), the digits are s = |v| 10^(14-e) rounded, and
    s is the exact fraction n / d.  The renderer's first estimate of e is
    one low for the exact powers of ten 1e16 to 1e22, and a truncated
    10^(15-e) scales them to just below 1e15: digits that round up to it.
    """
    if not math.isfinite(v):
        return 2
    if v == 0.0:
        return 0
    num, den = abs(v).as_integer_ratio()
    e = math.floor(math.log10(abs(v)))
    while True:  # the float estimate of e may be one off
        k = 14 - e
        n, d = (num * 10 ** k, den) if k >= 0 else (num, den * 10 ** -k)
        if n < 10 ** 14 * d:
            e -= 1
        elif n >= 10 ** 15 * d:
            e += 1
        else:
            break
    off = abs(2 * (n % d) - d)  # 2d times the distance from one half
    if (off == 0 or 2 * n >= (2 * 10 ** 15 - 1) * d
            or n == 10 ** 14 * d and e > 15):
        return 2
    return 1 if off << 63 <= 4 * d else 0


@contextlib.contextmanager
def _refused_rows():
    """The bits of each W row that `lattice_rows` hands to Python's "%"
    inside the block."""
    percent_rows, rows = _kernels._percent_rows, set()

    def recorded(x_texts, p_texts, W):
        rows.update(np.asarray(row).tobytes() for row in W)
        return percent_rows(x_texts, p_texts, W)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_percent_rows", recorded)
        yield rows


def _check_refused(refused, W):
    """Python's "%" rendered each row of W that holds a value the C library
    must refuse, and no row of values it renders; without the library, it
    rendered every row."""
    for row in W:
        level = max(map(_refusal, row.tolist()))
        if _kernels.c_library() is None or level == 2:
            assert row.tobytes() in refused, row
        elif level == 0:
            assert row.tobytes() not in refused, row


def _adversarial_doubles() -> np.ndarray:
    """102,400 doubles where "%.15g" texts are easy to get wrong, the
    12,440 that the C renderer may refuse last, so that it renders every
    row before them."""
    rng = np.random.default_rng(2026)
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan,
             math.copysign(math.nan, -1.0), 1000000000000005.0,
             float(2 ** 53 - 1), float(2 ** 53), float(2 ** 53 + 1),
             float(2 ** 53 + 2), 5e-324, -5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308, 0.1, 0.5]
    # the notation edges: each power of ten, the largest double that
    # rounds below it at 15 digits, and a few neighbours of both
    for e in range(-8, 18):
        for v in (10.0 ** e, float(f"9.999999999999995e{e - 1}")):
            for w in (v, -v):
                lo = hi = w
                for _ in range(3):
                    lo, hi = np.nextafter(lo, -math.inf), np.nextafter(
                        hi, math.inf)
                    edges += [float(lo), float(hi)]
                edges.append(w)
    # NaNs with random payloads and either sign bit
    nan_bits = (rng.integers(1, 1 << 51, 2000, dtype=np.uint64)
                | np.uint64(0x7FF8000000000000)
                | (rng.integers(0, 2, 2000, dtype=np.uint64) << np.uint64(63)))
    # subnormals of either sign
    sub_bits = (rng.integers(1, 1 << 52, 5000, dtype=np.uint64)
                | (rng.integers(0, 2, 5000, dtype=np.uint64) << np.uint64(63)))
    # 16-digit ties at 15 digits, exact below 2^53
    ties = (rng.integers(10 ** 14, 9 * 10 ** 14, 5000) * 10 + 5).astype(float)
    decimal = (rng.uniform(-10.0, 10.0, 25000)
               * 10.0 ** rng.integers(-25, 25, 25000))
    parts = [np.array(edges), nan_bits.view(float), sub_bits.view(float),
             ties, -ties, decimal]
    n_random = 102400 - sum(map(len, parts))
    random_bits = np.frombuffer(rng.bytes(8 * n_random), dtype=float)
    values = np.concatenate([*parts, random_bits])
    refusable = np.array([_refusal(v) > 0 for v in values.tolist()])
    assert refusable.sum() == 12440
    return np.concatenate([values[~refusable], values[refusable]])


class _LatticeChecks:
    """What write_lattice_csv writes, whichever renderer runs."""

    # run by one class per renderer; derandomize fixes the examples of both
    @settings(SETTINGS,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(lattice=lattices(), comments=st.lists(st.sampled_from(
        ["convention: wigner-1d-hbar1-v1", ""]), max_size=2),
        manifest=st.sampled_from([None, "w.manifest.json"]))
    def test_bytes_match_x_major_rows(self, csv_path, lattice, comments,
                                      manifest):
        x, p, W = lattice
        write_lattice_csv(str(csv_path), ["x", "p", "W"], x, p, W, manifest,
                          comments=comments)
        assert csv_path.read_bytes() == _lattice_reference(x, p, W, manifest,
                                                           comments)

    @pytest.mark.parametrize("shape", [(4, 3), (3, 5), (4,), (12,),
                                       (3, 4, 1)])
    def test_shape_mismatch_raises(self, tmp_path, shape):
        out = tmp_path / "w.csv"
        with pytest.raises(TypeError):
            write_lattice_csv(str(out), ["x", "p", "W"], np.zeros(3),
                              np.zeros(4), np.zeros(shape))
        assert not out.exists()

    # 200 short rows, and 4 rows of about 1 MB of text each: the C library
    # renders the first 175 and the first 3
    @pytest.mark.parametrize("n_p", [512, 25600])
    def test_adversarial_doubles(self, csv_path, n_p):
        W = _adversarial_doubles().reshape(-1, n_p)
        x = np.arange(len(W)) * 0.5
        p = np.arange(n_p) * -0.25
        with _refused_rows() as refused:
            write_lattice_csv(str(csv_path), ["x", "p", "W"], x, p, W)
        assert csv_path.read_bytes() == _lattice_reference(x, p, W)
        _check_refused(refused, W)


class TestWriteLatticeCsv(_CRenderer, _LatticeChecks):
    def test_block_that_does_not_fit_is_refused(self):
        # the x row "-0.5" and two p pieces, ",1e+300," and ",-2,"
        poff = (ctypes.c_long * 3)(0, 8, 12)
        buf = ctypes.create_string_buffer(80)

        def render(values, cap):
            ctypes.memset(buf, ord("#"), 80)
            W = np.array(values)
            return _kernels.c_library().lattice_row(
                b"-0.5", 4, b",1e+300,,-2,", poff, W.ctypes.data, 2, buf,
                cap, _kernels.pow10_table().ctypes.data, *_kernels.POW10_K)

        W = [-1.23456789012345e-308, -0.0]
        text = b"-0.5,1e+300,-1.23456789012345e-308\n-0.5,-2,-0\n"
        # each line must have room for its x and p texts and a 23-byte W
        # text: 35 bytes for the first, 31 more for the second
        for cap in (80, 66):
            assert render(W, cap) == len(text)
            assert buf.raw[:len(text)] == text
        for cap in (0, 1, 4, 12, 34, 35, len(text), 65):
            assert render(W, cap) == -2
            assert buf.raw[cap:] == b"#" * (80 - cap)
        # a value the library does not render refuses the row
        for v in (math.nan, -math.inf, 1000000000000005.0):
            assert render([0.5, v], 80) == -1


class TestWriteLatticeCsvFallback(_PythonRenderer, _LatticeChecks):
    pass


def _around(v, ulps=2):
    """v and the `ulps` doubles on either side of it."""
    out = [v]
    for direction in (-math.inf, math.inf):
        w = v
        for _ in range(ulps):
            w = math.nextafter(w, direction)
            out.append(w)
    return out


def _ties_at_15_digits() -> list:
    """Doubles exactly halfway between two 15-digit decimals, the least and
    the greatest at each decimal exponent e that has one (-7 to 16).

    The tie (D + 1/2) 10^(e-14), D a 15-digit integer, is n 5^(e-14)
    2^(e-15) with n = 2D + 1 odd: a double when e >= 14 and n 5^(e-14) <
    2^53, or when e < 14 and 5^(14-e) divides n.
    """
    ties = []
    for e in range(-8, 17):
        c = 5 ** abs(14 - e)
        if e < 14:
            lo, hi = -(-(2 * 10 ** 14 + 1) // c), (2 * 10 ** 15 - 1) // c
            ms = [m for m in (lo | 1, hi - 1 + hi % 2) if lo <= m <= hi]
        else:
            ms = [n * c for n in (2 * 10 ** 14 + 1, 2 * 10 ** 15 - 1)
                  if n * c < 2 ** 53]
        for m in ms:
            v = math.ldexp(m, e - 15)
            assert Fraction(v) * Fraction(10) ** (14 - e) % 1 == Fraction(1, 2)
            ties.append(v)
    return ties


#: doubles at or next to the C renderer's fallback band, in one sign
BAND_EDGES = [
    # 16-digit ties at the 15th digit, exactly: integers below 2^53, and
    # q 2^-j = (q 5^j) 10^-j; Python and printf both round half to even
    1000000000000005.0, 1234567890123455.0, 8999999999999995.0,
    999999999999999.5, 1.049041748046875e-05, 1.430511474609375e-06,
    2.384185791015625e-07,
    # doubles within about 1e-4 of a tie at the 15th digit, where the
    # scaled value's rounding error can cross the tie
    6.679656209440295e+277, 9.169724823866945e-303, 2.919079247841375e-147,
    9.703138354330495e+84, 8.226193947297625e-106, 9.389573817126905e+89,
    # powers of ten, and the largest doubles that round up to them
    *(w for e in (-5, -4, 0, 14, 15, 16, 22, 23, 308)
      for v in (10.0 ** e, float(f"9.999999999999995e{e - 1}"))
      for w in _around(v)),
    # e = -5, -4, 14 and 15, where %g switches notation, away from the band
    1.23456789012346e-05, 0.000123456789012346, 123456789012345.0,
    1234567890123456.0, 1.5e-05, 0.00015, 150000000000000.0, 1.5e15,
    # subnormals, DBL_MIN, DBL_MAX, zero, inf and NaN
    5e-324, 1e-323, 1.23456789012345e-310, 2.225073858507201e-308,
    2.2250738585072014e-308, 1.7976931348623157e308, 0.0, math.inf,
    math.nan,
    # 1 to 3 ulps either side of each exact tie at the 15th digit
    *(w for v in _ties_at_15_digits() for w in _around(v, 3)),
    # every power of two and its neighbours: the renderer's estimate of the
    # decimal exponent comes from the binary one
    *(w for q in range(-1074, 1024) for w in _around(math.ldexp(1.0, q))),
    # the least and greatest decimal exponents, -324 to -322 and 308, at
    # the ends of the renderer's table of powers of ten
    *(k * 5e-324 for k in range(1, 41)), *_around(1e308, 3),
    *_around(1.7976931348623157e308, 3),
]


class TestPow10Table:
    """The powers of ten the C renderer scales by, checked against exact
    rationals."""

    def test_each_entry_is_the_truncated_power(self):
        lo, hi = _kernels.POW10_K
        table = _kernels.pow10_table().tolist()
        assert len(table) == hi - lo + 1
        for k, (t_hi, t_lo, e2) in zip(range(lo, hi + 1), table):
            t = t_hi << 64 | t_lo
            assert 2 ** 127 <= t < 2 ** 128
            assert t == math.floor(Fraction(10) ** k / Fraction(2) ** e2)

    def test_covers_every_double(self):
        # 10^(14-e) for e from one below floor(log10(5e-324)) = -324, where
        # the renderer's first estimate can start, to floor(log10(DBL_MAX))
        lo, hi = _kernels.POW10_K
        assert lo <= 14 - 308 and hi >= 14 + 325


class TestFastPathEdges(_CRenderer):
    """The C renderer writes "%.15g" where it is sure of the digits, and
    Python's "%" renders each row it refuses: both give Python's text."""

    @settings(SETTINGS, max_examples=200)
    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1,
                         max_size=64))
    def test_random_bit_patterns(self, csv_path, bits):
        W = np.array(bits, dtype=np.uint64).view(float).reshape(1, -1)
        x, p = np.array([0.5]), np.arange(W.shape[1]) * -0.25
        with _refused_rows() as refused:
            write_lattice_csv(str(csv_path), ["x", "p", "W"], x, p, W)
        assert csv_path.read_bytes() == _lattice_reference(x, p, W)
        _check_refused(refused, W)

    def test_band_edges(self, csv_path):
        # one value a row, so that a value the library refuses sends only
        # itself to Python's "%": the infs, NaNs, exact ties, 1e16 and 1e22
        W = np.array(BAND_EDGES + [-v for v in BAND_EDGES]).reshape(-1, 1)
        x, p = np.arange(len(W)) * 0.5, np.array([0.5])
        with _refused_rows() as refused:
            write_lattice_csv(str(csv_path), ["x", "p", "W"], x, p, W)
        assert csv_path.read_bytes() == _lattice_reference(x, p, W)
        _check_refused(refused, W)

    @pytest.mark.parametrize("v, text", [
        (1e-05, "1e-05"), (-1.5e-05, "-1.5e-05"), (0.0001, "0.0001"),
        (123456789012345.0, "123456789012345"),
        (1e15, "1e+15"), (1.5e99, "1.5e+99"), (2.5e100, "2.5e+100"),
        (-1.23456789012345e-308, "-1.23456789012345e-308"),
        (5e-324, "4.94065645841247e-324"), (1000000000000005.0, "1e+15"),
        (1.049041748046875e-05, "1.04904174804688e-05"),
        (2.384185791015625e-07, "2.38418579101562e-07"),
        (0.0, "0"), (-0.0, "-0"), (-math.inf, "-inf"),
        (math.copysign(math.nan, -1.0), "nan")])
    def test_text(self, csv_path, v, text):
        write_lattice_csv(str(csv_path), ["x", "p", "W"], [0.0], [0.0],
                          np.array([[v]]))
        assert csv_path.read_text().splitlines()[-1] == f"0,0,{text}"


class _WignerBytesChecks:
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


class TestWignerBytes(_CRenderer, _WignerBytesChecks):
    pass


class TestWignerBytesFallback(_PythonRenderer, _WignerBytesChecks):
    pass


#: a wigner run in the directory argv[2] that prints the decimal point of
#: its LC_NUMERIC locale, set from argv[1] before the command runs
_WIGNER_IN_LOCALE = (
    "import locale, os, sys; from ambec.cli import main; "
    "os.chdir(sys.argv[2]); "
    "locale.setlocale(locale.LC_NUMERIC, sys.argv[1]); "
    "print(locale.localeconv()['decimal_point']); "
    "sys.exit(main(['wigner', '--beta', '1', '--delta', '3', '--kind', "
    "'bright_even', '--grid-n', '64', '--out', 'w.csv']))")


class TestNumericLocale:
    """Python's "%", the reference, ignores LC_NUMERIC, and the C renderer
    writes its digits without the C library's locale: the bytes must not
    depend on it."""

    def test_german_decimal_comma_keeps_bytes(self, tmp_path):
        if shutil.which("localedef") is None:
            pytest.skip("no localedef")
        locales = tmp_path / "locales"
        locales.mkdir()
        build = subprocess.run(
            ["localedef", "-i", "de_DE", "-f", "UTF-8",
             str(locales / "de_DE.UTF-8")],
            capture_output=True, text=True, timeout=120)
        if "cannot open locale definition file" in build.stderr:
            pytest.skip("no de_DE locale source")
        assert build.returncode == 0, build.stderr
        out = {}
        for name, point in (("C", "."), ("de_DE.UTF-8", ",")):
            run_dir = tmp_path / name
            run_dir.mkdir()
            proc = subprocess.run(
                [sys.executable, "-c", _WIGNER_IN_LOCALE, name, run_dir],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "LOCPATH": str(locales)})
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[0] == point
            out[name] = [(run_dir / f).read_bytes()
                         for f in ("w.csv", "w.metrics.json")]
        assert out["de_DE.UTF-8"] == out["C"]
