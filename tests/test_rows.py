"""The chunked CSV rows against the per-row loops they replace.

Every float CSV used to be written one row at a time with csv.writer
and repr(float(v)); those loops are kept here as the reference, and
the chunked writers must give the same bytes. Trains used to be read
only as text, in chunks of 1024 lines; that reader is kept here too,
and the byte reader must return the same bins or raise the same
message on any file. The train reader must round-trip any bins array
and keep its memory flat. The float writer must give every table of
a batch the same bytes, however many tables share a column and
wherever blocks split the batch, keep one output handle open at a
time, and leave no temporary file or partial batch behind; a column
that several tables hold is formatted once. Its rows must be the cell
reprs joined by commas, and keyed rows must give the bytes of an
f-string per row across every power of ten of the window. The float
cells computed by array arithmetic must be, cell for cell, the repr
of the value, on Hypothesis floats, on the doubles where the
arithmetic turns and on a seeded million.
"""

import contextlib
import csv
import functools
import gc
import hashlib
import io
import json
import os
import pathlib
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import asdict, replace
from itertools import islice

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikecodec import (
    ErrorReport,
    LinearDecoderParams,
    Spectrum,
    SpikeTrain,
    decode_ideal,
    decode_linear,
    read_spike_train,
    write_error_report,
    write_spike_train,
)
from spikecodec import _rows
from spikecodec._atomic import write_files
from spikecodec._rows import BLOCK_BYTES, BLOCK_CELLS, keyed_rows, read_keyed_rows, table_files
from spikecodec.simulate import _read_sidecar
from spikecodec.cli import main
from spikecodec.sft import _spectrum_tables, write_spectrum
from conftest import CFG3K

# Rows of a block of three-column tables, and row counts on both sides
# of the block boundaries: those of 3,072-cell blocks (1,024 rows), and
# those of the block size in use.
BLOCK_ROWS = BLOCK_CELLS // 3
ROW_COUNTS = [1, 1024, 1025, 2 * 1024 + 3, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]
SPECIAL = [float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 1e-20, 5e-324, 1.7976931348623157e308]


def reference_csv(header, rows) -> bytes:
    """The per-row csv.writer loop with repr(float(v)) cells."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([repr(float(v)) for v in row])
    return buf.getvalue().encode()


def float_columns(n, k, seed):
    """k columns of n floats with the special values mixed in."""
    rng = np.random.default_rng(seed)
    cols = rng.uniform(-5, 5, (k, n)) * 10.0 ** rng.integers(-12, 12, (k, n))
    cols.flat[rng.choice(k * n, min(len(SPECIAL), k * n), replace=False)] = SPECIAL[: k * n]
    return cols


def random_train(n, seed):
    """n windows of random bins, a quarter of them silent."""
    rng = np.random.default_rng(seed)
    bins = rng.integers(1, CFG3K.resolution + 1, n)
    bins[rng.random(n) < 0.25] = 0
    return SpikeTrain(bins=bins, config=CFG3K, seed=None)


class TestByteIdentity:
    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_error_report(self, tmp_path, n):
        u, eps_u, eps_ts = float_columns(n, 3, seed=n)
        report = ErrorReport(u_in=u, eps_u=eps_u, eps_ts=eps_ts, rmse=0.5)
        path = tmp_path / "errors.csv"
        write_error_report(report, str(path))
        assert path.read_bytes() == reference_csv(["u_in", "eps_u", "eps_ts"], zip(u, eps_u, eps_ts))

    @pytest.mark.parametrize("n", [2, 128] + ROW_COUNTS[1:])
    def test_spectrum(self, tmp_path, n):
        half = np.empty(n // 2 + 1, dtype=complex)
        half.real, half.imag = float_columns(n, 2, seed=n)[:, : half.size]
        spec = Spectrum(half, n, CFG3K.sample_period)
        path = tmp_path / "spectrum.csv"
        write_spectrum(spec, str(path))
        freqs, mags = np.arange(n) / (n * CFG3K.sample_period), np.abs(spec.coefficients)
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(["bin", "freq_hz", "re", "im", "mag"])
        for k, c in enumerate(spec.coefficients):
            w.writerow([k, repr(float(freqs[k])), repr(float(c.real)),
                        repr(float(c.imag)), repr(float(mags[k]))])
        assert path.read_bytes() == buf.getvalue().encode()

    @pytest.mark.parametrize("mode", ["ideal", "linear"])
    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_decode(self, tmp_path, mode, n):
        train = random_train(n, seed=n)
        train_csv = str(tmp_path / "train.csv")
        write_spike_train(train, train_csv)
        decoder = LinearDecoderParams(t_lin_min=1e-4, t_lin_max=3e-4, y_min=1.0, y_max=5.0)
        tuning = tmp_path / "tuning.json"
        tuning.write_text(json.dumps(asdict(decoder)))
        out = tmp_path / "decoded.csv"
        argv = ["decode", "--train", train_csv, "--mode", mode, "--out", str(out)]
        assert main(argv + (["--tuning", str(tuning)] if mode == "linear" else [])) == 0
        # The parent's decode: the fired windows' values, one row each.
        fired = train.fired
        t = train.bins[fired] * CFG3K.reader_period
        cells = np.full(len(train), "", dtype=object)
        cells[fired] = decode_ideal(t, CFG3K) if mode == "ideal" else decode_linear(t, decoder)
        want = "window,u_hat\n" + "".join(map("{},{}\n".format, range(n), cells))
        assert out.read_bytes() == want.encode()


@functools.lru_cache(maxsize=None)
def rows_case(n):
    """Three float columns of n rows and their reference bytes."""
    cols = float_columns(n, 3, seed=n)
    return cols, reference_csv(["a", "b", "c"], zip(*cols))


def open_fds():
    """This process's open file descriptors, where /proc lists them."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


@contextlib.contextmanager
def nothing_left():
    """Check that the body leaves no open file descriptor or unclosed
    file (which warns when collected) behind."""
    fds = open_fds()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert open_fds() == fds


def block_rows(monkeypatch, rows, width):
    """Make table_files cut a batch of tables of width columns into
    blocks of rows rows."""
    monkeypatch.setattr(_rows, "BLOCK_CELLS", rows * width)


class TestShares:
    """table_files gives every table of a batch the bytes of the
    per-row loop however many tables share a column and wherever its
    blocks split the batch, and leaves no file or handle behind."""

    # k tables share the three columns, which are formatted once before
    # the rows and then cut into blocks as S columns
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [1, 4095, 4096, 8193, 16383, 16384, 32769, 100_000])
    def test_bytes_do_not_depend_on_the_share_count(self, tmp_path, k, n):
        cols, want = rows_case(n)
        paths = [tmp_path / f"rows_{t}.csv" for t in range(k)]
        with nothing_left():
            write_files(table_files([(str(p), "a,b,c\r\n", cols) for p in paths]))
        assert [p.read_bytes() for p in paths] == [want] * k

    # Row counts of a batch of six tables, and where blocks of 10 // k
    # rows split its ten rows: k = 2 inside table 3; k = 3 on the edge
    # of table 0 and the empty table 1, inside table 3 and inside table
    # 5; k = 5 inside table 0, after the one-row table 2, inside table 3
    # and on the edge of table 3 and the empty table 4.
    SIZES = [3, 0, 1, 4, 0, 2]

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_a_batch_does_not_depend_on_where_shares_split_it(self, tmp_path, monkeypatch, k):
        block_rows(monkeypatch, sum(self.SIZES) // k, 2)
        self.check_batch(tmp_path, self.SIZES, seed=k)

    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.integers(0, 5) | st.sampled_from([BLOCK_ROWS, BLOCK_ROWS + 1]),
                          min_size=1, max_size=6),
           k=st.sampled_from([1, 2, 3, 5]), seed=st.integers(0, 2**32 - 1))
    def test_any_batch_and_share_count(self, sizes, k, seed):
        # blocks of a k-th of the batch's rows, or of the size in use
        with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
            if k > 1:
                block_rows(mp, max(1, sum(sizes) // k), 2)
            self.check_batch(pathlib.Path(d), sizes, seed)

    @staticmethod
    def check_batch(directory, sizes, seed):
        cols = [float_columns(n, 2, seed=seed + t) for t, n in enumerate(sizes)]
        paths = [directory / f"table_{t}.csv" for t in range(len(sizes))]
        with nothing_left():
            write_files(table_files([(str(p), "a,b\r\n", c) for p, c in zip(paths, cols)]))
        for p, c in zip(paths, cols):
            assert p.read_bytes() == reference_csv(["a", "b"], zip(*c))
        assert sorted(directory.iterdir()) == sorted(paths)

    def test_a_shared_column_gives_the_bytes_of_separate_copies(self, tmp_path):
        cols = float_columns(BLOCK_ROWS + 1, 3, seed=7)
        shared = [tmp_path / f"shared_{t}.csv" for t in range(2)]
        own = [tmp_path / f"own_{t}.csv" for t in range(2)]
        write_files(table_files([(str(p), "a,b\r\n", (cols[0], c)) for p, c in zip(shared, cols[1:])]))
        write_files(table_files([(str(p), "a,b\r\n", (cols[0].copy(), c)) for p, c in zip(own, cols[1:])]))
        for p, q, c in zip(shared, own, cols[1:]):
            assert p.read_bytes() == q.read_bytes() == reference_csv(["a", "b"], zip(cols[0], c))

    # k tables hold the counted column: one, or several that share it
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_shared_column_is_formatted_once_in_this_process(self, tmp_path, monkeypatch, k):
        n = BLOCK_ROWS + 1
        monkeypatch.setattr(Counted, "calls", 0)
        counted = np.empty(n, object)
        counted[:] = [Counted(i) for i in range(n)]
        cols = float_columns(n, k, seed=k)
        paths = [tmp_path / f"table_{t}.csv" for t in range(k)]
        with nothing_left():
            write_files(table_files([(str(p), "a,b\n", (counted, c)) for p, c in zip(paths, cols)]))
        assert Counted.calls == n
        for p, c in zip(paths, cols):
            want = "a,b\n" + "".join(f"c{i},{v!r}\n" for i, v in enumerate(c.tolist()))
            assert p.read_bytes() == want.encode()

    @pytest.mark.skipif(resource is None or not os.path.isdir("/proc/self/fd"),
                        reason="needs resource and /proc/self/fd")
    def test_one_output_handle_at_a_time(self, tmp_path):
        # sft-sweep writes a table per frequency in one batch: 300 of
        # them must not need 300 descriptors
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        resource.setrlimit(resource.RLIMIT_NOFILE, (len(open_fds()) + 16, hard))
        try:
            paths = [tmp_path / f"table_{t}.csv" for t in range(300)]
            write_files(table_files([(str(p), "u\n", [np.array([t / 7])]) for t, p in enumerate(paths)]))
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        assert [p.read_bytes() for p in paths] == [f"u\n{t / 7!r}\n".encode() for t in range(300)]


def joined_reprs(header, columns) -> bytes:
    """header, then each row's item reprs joined by commas and ended by
    the header's own line end."""
    eol = "\r\n" if header.endswith("\r\n") else "\n"
    rows = zip(*(c.tolist() for c in columns))
    return (header + "".join(",".join(map(repr, row)) + eol for row in rows)).encode()


class TestBlockSize:
    """The bytes do not depend on BLOCK_CELLS: blocks of one cell, of a
    few, of 3,072 and of the size in use give the same files. Nor do
    keyed rows and the keys read back from them depend on BLOCK_BYTES."""

    SIZES = [1, 7, 3 * 1024, BLOCK_CELLS]

    @pytest.mark.parametrize("k", [1, 2])
    def test_write_tables(self, tmp_path, monkeypatch, k):
        # one to four columns, both line ends, integers beside floats,
        # and a column that k tables hold: with k = 2 tables 0 and 2
        # share one object, formatted before the rows; with k = 1 table
        # 2 holds a copy of it
        shared = float_columns(300, 1, seed=1)[0]
        cols = float_columns(300, 4, seed=2)
        ints = np.arange(-150, 150)
        tables = [("x,y,z\r\n", (shared, cols[0], ints)),
                  ("x\n", (cols[1],)),
                  ("x,y\n", (cols[2], shared if k == 2 else shared.copy())),
                  ("w,x,y,z\r\n", (cols[3][:40], shared[:40], ints[:40], cols[0][:40]))]
        want = [joined_reprs(header, columns) for header, columns in tables]
        for size in self.SIZES:
            monkeypatch.setattr(_rows, "BLOCK_CELLS", size)
            paths = [tmp_path / f"{size}_{t}.csv" for t in range(len(tables))]
            with nothing_left():
                write_files(table_files([(str(p), header, columns)
                                         for p, (header, columns) in zip(paths, tables)]))
            assert [p.read_bytes() for p in paths] == want, size

    # 1,000 rows hold a cell for every one of the 500 keys; 100 rows
    # only for the keys they hold
    @pytest.mark.parametrize("rows", [1000, 100])
    @pytest.mark.parametrize("floats", [True, False])
    def test_write_keyed_rows(self, tmp_path, monkeypatch, rows, floats):
        top = 500
        values = float_columns(top, 1, seed=3)[0] if floats else np.arange(1, top + 1)
        keys = np.random.default_rng(4).integers(0, top + 1, rows)
        want = b"window,u\n" + reference_rows(0, ["", *map(repr, values.tolist())], keys)
        for size in self.SIZES:
            monkeypatch.setattr(_rows, "BLOCK_CELLS", size)
            path = tmp_path / f"{size}.csv"
            write_files([(str(path), keyed_rows(b"window,u\n", keys, top, lambda k: values[k - 1]))])
            assert path.read_bytes() == want, size

    # Keyed rows in byte blocks smaller than a row, of 4 KiB, of 64 KiB
    # and of the size in use, over windows 9,999 -> 10,000 and
    # 99,999 -> 100,000, where a row gains a digit. 16-byte blocks take
    # seconds for 100,000 rows, so they cover the first crossing only.
    BYTE_SIZES = [(16, 10_050), (4096, 100_050), (1 << 16, 100_050), (BLOCK_BYTES, 100_050)]

    @pytest.mark.parametrize("floats", [True, False])
    def test_keyed_rows_over_byte_blocks(self, tmp_path, monkeypatch, floats):
        top = CFG3K.resolution
        values = float_columns(top, 1, seed=5)[0] if floats else None
        cells = ["", *map(repr, (BIN_VALUES if values is None else values).tolist())]
        keys = np.random.default_rng(6).integers(0, top + 1, max(rows for _, rows in self.BYTE_SIZES))
        want = {rows: b"window,u\n" + reference_rows(0, cells, keys[:rows]) for _, rows in self.BYTE_SIZES}
        for size, rows in self.BYTE_SIZES:
            monkeypatch.setattr(_rows, "BLOCK_BYTES", size)
            path = tmp_path / f"{size}.csv"
            write_files([(str(path), keyed_rows(b"window,u\n", keys[:rows], top,
                                                None if values is None else lambda k: values[k - 1]))])
            assert path.read_bytes() == want[rows], size
            if values is None:  # a train: its keys read back
                with open(path, "rb") as fh:
                    assert np.array_equal(read_keyed_rows(fh, b"window,u\n", top, rows), keys[:rows]), size


class Counted:
    """A cell that counts the calls of its repr."""

    calls = 0

    def __init__(self, i):
        self.i = i

    def __repr__(self):
        Counted.calls += 1
        return f"c{self.i}"


class Boom:
    """A cell whose repr fails."""

    def __repr__(self):
        raise ZeroDivisionError("boom")


def boom_column(n, row):
    col = np.arange(n, dtype=float).astype(object)
    col[row] = Boom()
    return col


class TestFailures:
    """A batch that fails raises, and leaves no output or temporary
    file behind."""

    def test_a_failing_cell_writes_nothing(self, tmp_path):
        path = tmp_path / "rows.csv"
        with nothing_left(), pytest.raises(ZeroDivisionError):
            write_files(table_files([(str(path), "u\r\n", [boom_column(1000, 0)])]))
        assert list(tmp_path.iterdir()) == []

    def test_a_failure_in_a_later_table_replaces_nothing(self, tmp_path):
        # table 3's line end puts it in a block of its own, so tables 0
        # and 1 are written in full when it fails
        sizes = [300, 200, 400, 100]
        cols = [[np.arange(n, dtype=float)] for n in sizes]
        cols[3] = [boom_column(sizes[3], sizes[3] - 1)]
        paths = [tmp_path / f"table_{t}.csv" for t in range(len(sizes))]
        headers = ["u\r\n"] * 3 + ["u\n"]
        paths[0].write_text("old\n")
        with nothing_left(), pytest.raises(ZeroDivisionError, match="boom"):
            write_files(table_files([(str(p), h, c) for p, h, c in zip(paths, headers, cols)]))
        assert list(tmp_path.iterdir()) == [paths[0]]
        assert paths[0].read_text() == "old\n"

    def test_cli_names_the_failure(self, tmp_path, monkeypatch, capsys):
        # a formatting failure reaches the command line as one error line
        def no_room(*args):
            raise MemoryError("no room")
            yield

        monkeypatch.setattr(_rows, "_rendered", no_room)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"signal": {"type": "constant", "level": 3.0}}))
        with nothing_left():
            assert main(["sweep-constant", "--config", str(cfg), "--thresholds", "0.5",
                         "--points", "8", "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: no room\n"
        assert os.listdir(tmp_path / "out") == []


class TestTableBatchCommit:
    """A batch of tables is refused before anything is written when a
    path is a directory or is named twice."""

    def test_a_directory_at_table_0_leaves_table_1(self, tmp_path):
        # the batch replaced its paths last first, so b.csv was replaced
        (tmp_path / "a.csv").mkdir()
        (tmp_path / "b.csv").write_text("old\n")
        tables = [(str(tmp_path / name), "u\n", [np.arange(3.0)]) for name in ("a.csv", "b.csv")]
        with nothing_left(), pytest.raises(IsADirectoryError, match="Is a directory: .*a.csv'$"):
            write_files(table_files(tables))
        assert (tmp_path / "b.csv").read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]

    def test_a_path_named_twice_is_refused(self, tmp_path):
        # both tables went to one temporary file, and a.csv took the
        # second before a misleading "No such file" error
        (tmp_path / "a.csv").write_text("old\n")
        tables = [(str(tmp_path / "a.csv"), "u\n", [np.arange(n, dtype=float)]) for n in (3, 4)]
        with nothing_left(), pytest.raises(ValueError, match="a.csv is written twice in one batch$"):
            write_files(table_files(tables))
        assert (tmp_path / "a.csv").read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "a.csv"]


@st.composite
def row_cases(draw):
    """(columns, formatted, eol, lo, hi): one to four columns of n rows,
    each an array of floats with the SPECIAL values mixed in or of
    integers, and the same columns as table_files renders them (a
    column it formats once, as its cells, or the array), a line end,
    and rows lo..hi-1 of them, across block edges."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, 2 * BLOCK_ROWS + 3))
    columns, formatted = [], []
    for col in float_columns(n, m, seed=draw(st.integers(0, 2**32 - 1))):
        if draw(st.booleans()):
            start = draw(st.integers(-10**6, 10**6))
            col = np.arange(start, start + n)
        columns.append(col)
        formatted.append(_rows._cells(col) if draw(st.booleans()) else col)
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    lo = draw(st.integers(0, n))
    hi = draw(st.integers(lo, n))
    return columns, formatted, eol, lo, hi


class TestRowFormat:
    """_rendered gives each row's cell reprs joined by commas and ended
    by the line end, in order, whether a block holds one table or
    several, in one part for each table a block holds."""

    @settings(max_examples=200, deadline=None)
    @given(row_cases())
    def test_same_bytes_as_joined_reprs(self, case):
        columns, formatted, eol, lo, hi = case
        rows = zip(*(c[lo:hi].tolist() for c in columns))
        want = "".join(",".join(map(repr, row)) + eol for row in rows).encode()
        table = (None, None, [c[lo:hi] for c in formatted], eol)
        parts = list(_rows._rendered([table, table]))
        assert [t for t, _ in parts] == sorted(t for t, _ in parts)
        for t in (0, 1):
            assert b"".join(data for u, data in parts if u == t) == want
        # the two tables run on through blocks of cap rows: a part for
        # every block that a table's rows meet
        n, cap = hi - lo, max(1, BLOCK_CELLS // len(columns))
        pieces = [((t + 1) * n - 1) // cap - t * n // cap + 1 if n else 0 for t in (0, 1)]
        assert [t for t, _ in parts] == [0] * pieces[0] + [1] * pieces[1]

    def test_a_block_of_the_widest_cells_is_one_part_of_at_most_block_bytes(self):
        # -2.2250738585072014e-308 has the longest repr of any float64,
        # 24 bytes, so one column ended by \r\n, 26 bytes a cell, gives
        # the largest part: 8,192 cells take 212,992 bytes
        widest = np.full(BLOCK_CELLS, -2.2250738585072014e-308)
        assert len(repr(float(widest[0]))) == 24
        parts = list(_rows._rendered([(None, None, [widest], "\r\n")]))
        assert len(parts) == 1
        assert len(parts[0][1]) <= BLOCK_BYTES


def cell_lines(cells) -> bytes:
    """S items, their NULs dropped, one per line."""
    return b"".join(cell + b"\n" for cell in cells.tolist()).translate(None, b"\0")


def float_cell_lines(values) -> bytes:
    """_float_cells' items, their NULs dropped, one per line."""
    return cell_lines(_rows._float_cells(np.asarray(values, dtype=float)))


def text_lines(values) -> bytes:
    """The text of each value (_texts), one per line."""
    return cell_lines(_rows._texts(np.asarray(values, dtype=float)))


# Doubles where the fixed-notation arithmetic turns, each taken with
# both signs: the neighbours of the range's edges 1e-4 and 1e16 and of
# 0.1, 0.01 and 0.001 (below each, x * 10**p falls under 1e16); every
# power of two in range, whose lower gap is half its upper one;
# decimals that end half-way, exact (15.0, 0.125) or a tie between two
# shortest decimals (1e15 + 0.25 is written ...0.2, 1e15 + 0.75 ...0.8);
# integers with trailing zeros; and zero, the smallest subnormal and
# the largest float.
EDGES = [
    *(np.nextafter(edge, direction) for edge in (1e-4, 1e16, 0.1, 0.01, 0.001) for direction in (0, np.inf)),
    1e-4, 0.1, 0.01, 0.001, 9999999999999998.0,
    *np.ldexp(1.0, np.arange(-13, 54)),
    15.0, 0.125, 2.5, 1e15 + 0.25, 1e15 + 0.75, 2095277819909404.25, 1518982792074838.75,
    1200.0, 1e15, 123456789012345.6, 1 / 3, 0.0, 5e-324, 1.7976931348623157e308,
]


class TestFloatCells:
    """_float_cells gives, cell for cell, the text _texts gives."""

    @given(st.lists(st.floats(), min_size=1, max_size=50))
    def test_any_doubles(self, values):
        # NaN, infinities, -0.0 and subnormals included
        assert float_cell_lines(values).split(b"\n") == text_lines(values).split(b"\n")

    def test_edges(self):
        values = np.array(EDGES)
        values = np.concatenate([values, -values])
        assert float_cell_lines(values).split(b"\n") == text_lines(values).split(b"\n")

    def test_integers(self):
        # integer-valued doubles alone, whose shortest decimals have no
        # fraction digit: every cell takes the layout of one, x.0
        rng = np.random.default_rng(20261021)
        values = np.array([*(k * 10.0**j for k in range(1, 10) for j in range(16)),
                           *rng.integers(1, 2**53, 200).astype(float), 1e15, 9007199254740992.0])
        values = np.concatenate([values, -values])
        assert (_rows._shortest(np.abs(values))[1] == 1).all()
        got = float_cell_lines(values)
        assert got.split(b"\n") == text_lines(values).split(b"\n")
        assert all(cell.endswith(b".0") for cell in got.split(b"\n")[:-1])

    def test_a_million_doubles(self):
        # random bit patterns with the exponent field drawn over the
        # range written in fixed notation and six binades past each
        # edge, and doubles log-uniform over that range
        rng = np.random.default_rng(20261019)
        n = 2**19
        bits = rng.integers(0, 2**64, n, dtype=np.uint64)
        bits &= ~np.uint64(0x7FF << 52)
        bits |= rng.integers(1023 - 20, 1023 + 60, n).astype(np.uint64) << np.uint64(52)
        fixed = np.exp(rng.uniform(np.log(1e-4), np.log(1e16), n)) * rng.choice([-1.0, 1.0], n)
        for values in (bits.view(np.float64), fixed):
            for lo in range(0, n, 2**16):
                block = values[lo:lo + 2**16]
                got, want = float_cell_lines(block), text_lines(block)
                assert got == want or got.split(b"\n") == want.split(b"\n")


def reference_rows(lo, cells, keys) -> bytes:
    """Keyed rows written one f-string at a time."""
    return "".join(f"{lo + i},{cells[k]}\n" for i, k in enumerate(keys.tolist())).encode()


def key_cells(values) -> np.ndarray:
    """_table's cells of every key 0..len(values), key k's value values[k - 1]."""
    return _rows._table(np.arange(len(values) + 1), len(values), lambda k: values[k - 1])[0]


BIN_CELLS = ["", *map(str, range(1, CFG3K.resolution + 1))]
BIN_VALUES = np.arange(1, CFG3K.resolution + 1)


class TestWindowDigits:
    """Window digits around each power of ten, where a row gains a
    digit in the middle of a block."""

    @pytest.mark.parametrize("k", range(1, 10))
    @pytest.mark.parametrize("below, n", [(1, 1), (1, 2), (3, 5), (17, 40), (0, 7), (5, 1)])
    def test_render_rows_across_a_power_of_ten(self, k, below, n):
        lo = max(0, 10**k - below)
        keys = np.random.default_rng(k * 100 + n).integers(0, len(BIN_CELLS), n)
        assert _rows.render_rows(lo, key_cells(BIN_VALUES), keys) == reference_rows(lo, BIN_CELLS, keys)

    @pytest.mark.parametrize("lo", [0, 1, 9, 95, 990, 9_999 - 37, 123_456])
    def test_render_rows_over_many_places(self, lo):
        keys = np.random.default_rng(lo).integers(0, len(BIN_CELLS), 1234)
        assert _rows.render_rows(lo, key_cells(BIN_VALUES), keys) == reference_rows(lo, BIN_CELLS, keys)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.sampled_from([-2.5, 1e-07, 1e+22, 3.0, 0.1]) | st.floats(
               allow_nan=False, allow_infinity=False), min_size=1, max_size=30),
           power=st.integers(0, 7), offset=st.integers(-40, 40), data=st.data())
    def test_float_cells(self, values, power, offset, data):
        # cells of differing widths, key 0's empty one among them; the
        # writer's rows, fewer or more than the keys, give the same bytes
        values = np.array(values)
        keys = np.array(data.draw(st.lists(st.integers(0, len(values)), min_size=1, max_size=60)))
        keys[data.draw(st.integers(0, len(keys) - 1))] = 0
        lo = max(0, 10**power + offset)
        texts = ["", *map(repr, values.tolist())]
        assert _rows.render_rows(lo, key_cells(values), keys) == reference_rows(lo, texts, keys)
        with tempfile.TemporaryDirectory() as tmp:  # no tmp_path fixture under @given
            path = os.path.join(tmp, "u.csv")
            write_files([(path, keyed_rows(b"window,u\n", keys, len(values), lambda k: values[k - 1]))])
            assert pathlib.Path(path).read_bytes() == b"window,u\n" + reference_rows(0, texts, keys)

    def test_read_block_edge_on_window_100000(self, tmp_path):
        # one-digit bins, except as many two-digit ones (a byte more) or
        # silent ones (a byte less) as put the end of window 99,999's
        # row on the byte block edge nearest it
        rows = 100_000
        base = sum(len(str(w)) + 3 for w in range(rows))
        blocks = round(base / BLOCK_BYTES)
        extra = blocks * BLOCK_BYTES - base
        assert abs(extra) <= rows
        bins = np.full(rows + 500, 5)
        bins[np.random.default_rng(0).choice(rows, abs(extra), replace=False)] = 50 if extra > 0 else 0
        bins[rows + 1::3] = 0
        train = SpikeTrain(bins=bins, config=CFG3K, seed=None)
        path = tmp_path / "train.csv"
        write_spike_train(train, str(path))
        data = path.read_bytes()
        edge = len(b"window,bin\n") + blocks * BLOCK_BYTES
        assert data[edge - 1:edge] == b"\n" and data[edge:].startswith(b"100000,")
        with open(path, "rb") as fh:
            assert np.array_equal(read_keyed_rows(fh, b"window,bin\n", CFG3K.resolution, len(bins)), bins)
        assert np.array_equal(read_spike_train(str(path)).bins, bins)


# SHA-256 of write_error_report and spectrum-writer output for the
# 40,000-row columns below, recorded when every row was formatted in
# one process. Float repr is the same on every machine.
PIN_ROWS = 40_000
PINNED = {
    "errors": "b626f320a430c307a29de3f6998d74af0293d2054810e5d3ac136e4758032843",
    "spectrum": "07494c9eb544f488200dd1d63a6145e0e20afcf0982e0e14ac0c0cdb26d50c57",
}


# The commands whose files a 1-ulp change in a fit, a transform or an
# encode would move unseen: each writes into out/, and the digests
# were recorded before sft_stream's result type became Spectrum, sft's
# again when the S-FT and its reference became one-sided real FFTs.
# tune-edge's fit stops on the box edge k1 = -1, where the clip acts,
# and tune-narrow's range starts at 2 V; both were recorded while the
# fit's box and quadrature were still tuner settings.
COMMAND_RUNS = {
    "tune": ({}, ["tune", "--out", "out/tuning.json"]),
    "tune-wide": ({"encoder": {"u_th": 0.5, "sample_period": 7.4e-3, "resolution": 5000}},
                  ["tune", "--out", "out/tuning.json"]),
    "tune-edge": ({"encoder": {"u_th": 0.9, "sample_period": 7.4e-3, "resolution": 5000}},
                  ["tune", "--out", "out/tuning.json"]),
    "tune-narrow": ({"encoder": {"u_min": 2.0}}, ["tune", "--out", "out/tuning.json"]),
    "sft": ({}, ["sft", "--out-prefix", "out/sft"]),
    "encode": ({"signal": {"windows": 128}}, ["encode", "--out", "out/train.csv"]),
}
PINNED_COMMANDS = {
    "tune": {"tuning.json": "45173d2ec832afd1a545a2d3f65dacd20f79ba4cfa6441fc414be33f6ea1353c"},
    "tune-wide": {"tuning.json": "fc7d4ff8429fd576dc8974ee1777f234b65853ea6cba0e5459082542b57c6834"},
    "tune-edge": {"tuning.json": "de88b7971aec024ff54c8ecdd4be3f46e0d8641720bef89c9e9f30d8bdd5cd5d"},
    "tune-narrow": {"tuning.json": "300d3b80f826f25ae27c572a56180de21e02b7f2a5be05204e23692807ee6f17"},
    "sft": {
        "sft.json": "5340d90209e3627f80a513bb477d19e283461ed5289d95ba5d4dc0695a5489ec",
        "sft_ideal.csv": "050c0e0d2b27884f6c93b517c744e858d22ff3927df4b5e55f1e33520299763e",
        "sft_spectrum.csv": "e079b56a0aad7041a70f87160858ca28b527053c24d682921ba578837c820b0d",
    },
    "encode": {
        "train.csv": "918cd3adf0bd0c540650e4583cf0f474c715aec08772a4baeb42f84c166e9fa2",
        "train.json": "8627395294ab61b5f2860c69b47279203867a96aead72f1edd1e0f4151bbff2d",
    },
}


# SHA-256 of a per-window-noise train of 120,000 windows, so that
# window 100,000 (the first six-digit window) falls inside a block of
# keyed rows, with its sidecar and its decodes in both modes. The sine
# dips below the threshold, so 34,000 of the windows are silent and
# their cells empty. Recorded when each window digit was
# computed by integer division; train.json recorded again when the
# encoder lost its u_rest field.
KEYED_WINDOWS = 120_000
PINNED_KEYED = {
    "train.csv":
        "411442b5fd3a5746b19443829f81bdddcfc14f0b7367b73cbcbbbc8728454152",
    "train.json":
        "0cddafc7b824bb1040e28c4b6b9f1f2148be79bc8e4e28e5ac176b3551c032ac",
    "ideal.csv":
        "02961e517877ac6effc7484c8d1181f8c105aa973e5f95bfe03e213f06844bce",
    "linear.csv":
        "93a1a9ed5bc035561e9331c08d13cf3c92de953f2f1c4d5c305eb64b507a48d3",
}


def digests(directory) -> dict:
    """SHA-256 of each file in directory, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def write_error_report_pin(directory) -> None:
    u, eps_u, eps_ts = float_columns(PIN_ROWS, 3, seed=PIN_ROWS)
    # the pin is the CSV; its sidecar goes beside out/
    write_error_report(ErrorReport(u_in=u, eps_u=eps_u, eps_ts=eps_ts, rmse=0.5),
                       str(directory / "out" / "errors.csv"), str(directory / "errors.json"))


def write_spectrum_pin(directory) -> None:
    # 40,000 unrelated bins, more than a Spectrum of real frames holds,
    # straight into the tables write_spectrum writes
    coeff = np.empty(PIN_ROWS, dtype=complex)
    coeff.real, coeff.imag = float_columns(PIN_ROWS, 2, seed=PIN_ROWS + 1)
    write_files(table_files(_spectrum_tables([str(directory / "out" / "spectrum.csv")], coeff[None],
                                             CFG3K.sample_period)))


def write_keyed_rows_pin(directory) -> None:
    """An encode and both decodes of its train, through the command
    line, their inputs in directory."""
    config = directory / "config.json"
    config.write_text(json.dumps({
        "noise": {"delta_u": 0.01, "mode": "per-window"},
        "signal": {"type": "sine", "amplitude": 2.5, "frequency": 50.0, "offset": 2.5,
                   "windows": KEYED_WINDOWS},
    }))
    tuning = directory / "tuning.json"
    tuning.write_text(json.dumps(asdict(
        LinearDecoderParams(t_lin_min=1e-4, t_lin_max=3e-4, y_min=1.0, y_max=5.0))))
    out = directory / "out"
    train = str(out / "train.csv")
    assert main(["encode", "--config", str(config), "--seed", "7", "--out", train]) == 0
    assert main(["decode", "--train", train, "--mode", "ideal", "--out", str(out / "ideal.csv")]) == 0
    assert main(["decode", "--train", train, "--mode", "linear", "--tuning", str(tuning),
                 "--out", str(out / "linear.csv")]) == 0


def run_command_pin(run, directory) -> None:
    """COMMAND_RUNS[run] from directory, which holds its config."""
    doc, argv = COMMAND_RUNS[run]
    (directory / "config.json").write_text(json.dumps(doc))
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        assert main([*argv, "--config", "config.json"]) == 0
    finally:
        os.chdir(cwd)


# Every pin of this module: name -> (writer, recorded digests). The
# writer puts the outputs in out/ of the empty directory it is given,
# and anything it reads beside it; tests/pins.py reprints them all.
PINS = {
    "errors": (write_error_report_pin, {"errors.csv": PINNED["errors"]}),
    "spectrum": (write_spectrum_pin, {"spectrum.csv": PINNED["spectrum"]}),
    "keyed-rows": (write_keyed_rows_pin, PINNED_KEYED),
    **{f"command[{run}]": (functools.partial(run_command_pin, run), PINNED_COMMANDS[run])
       for run in COMMAND_RUNS},
}


def pin_digests(name, directory) -> dict:
    writer, _ = PINS[name]
    (directory / "out").mkdir()
    writer(directory)
    return digests(directory / "out")


class TestPinnedBytes:
    def test_error_report(self, tmp_path):
        assert pin_digests("errors", tmp_path) == PINS["errors"][1]

    def test_spectrum(self, tmp_path):
        assert pin_digests("spectrum", tmp_path) == PINS["spectrum"][1]

    def test_keyed_rows(self, tmp_path, capsys):
        assert pin_digests("keyed-rows", tmp_path) == PINNED_KEYED
        capsys.readouterr()

    @pytest.mark.parametrize("run", sorted(COMMAND_RUNS))
    def test_command(self, tmp_path, capsys, run):
        assert pin_digests(f"command[{run}]", tmp_path) == PINNED_COMMANDS[run]
        capsys.readouterr()

    def test_ulp_distance_of_the_pin_script(self):
        from pins import ulp_distance
        assert ulp_distance(b"re,im\n1.0,-0.0\n", b"re,im\n1.0000000000000002,0.0\n") == \
            "1 ulp over 2 of 4 tokens"
        assert ulp_distance(b"x\n5e-324\n", b"x\n-5e-324\n") == "2 ulp over 1 of 2 tokens"
        assert ulp_distance(b"x\n1.0\n", b"y\n1.0\n") == "a token other than a number differs"
        assert ulp_distance(b"1.0\n", b"1.0,2.0\n") == "1 tokens against 2"
        assert ulp_distance(b"nan\n", b"1.0\n") == "a NaN moved"


class TestTrainRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(st.integers(0, 40),
                       st.sampled_from(ROW_COUNTS + [BLOCK_ROWS - 1, 3 * BLOCK_ROWS])),
           seed=st.integers(0, 2**32 - 1))
    def test_write_then_read_returns_the_bins(self, n, seed):
        train = random_train(n, seed)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "train.csv")
            write_spike_train(train, path)
            back = read_spike_train(path)
        assert np.array_equal(back.bins, train.bins)
        assert back.config == train.config


class TestTrainReadAllocation:
    """The byte reader fills one array sized by the sidecar's window
    count, bounded by what the file can hold."""

    def test_read_peak_per_window(self, tmp_path):
        # the bins alone take 8 B per window; block arrays joined at the
        # end, a second whole-train array, take 16
        n = 10**6
        path = str(tmp_path / "train.csv")
        write_spike_train(random_train(n, seed=1), path)
        tracemalloc.start()
        try:
            read_spike_train(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * n

    @pytest.mark.parametrize("rows, want", [(2, None), (3, [31, 0, 19]), (4, [31, 0, 19])])
    def test_rows_bound_the_keys(self, rows, want):
        got = read_keyed_rows(io.BytesIO(b"window,bin\n0,31\n1,\n2,19\n"), b"window,bin\n",
                              CFG3K.resolution, rows)
        assert (got if got is None else got.tolist()) == want

    def test_sidecar_claiming_2_60_windows(self, tmp_path, capsys):
        # one named error, not an allocation of 8 EiB
        path = tmp_path / "train.csv"
        write_spike_train(random_train(3, seed=2), str(path))
        sidecar = tmp_path / "train.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "windows": 2**60}))
        assert main(["decode", "--train", str(path), "--out", str(tmp_path / "u.csv")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path} has 3 windows, its sidecar records {2**60}\n"


def check_utf8(csv_path, where, line):
    """Raise the error that names the first byte of line, read with
    errors="surrogateescape", that is not UTF-8 text."""
    if bad := re.search("[\udc80-\udcff]", line):
        byte = ord(bad.group()) - 0xDC00
        raise ValueError(f"{csv_path}: {where} has byte 0x{byte:02x}, not UTF-8 text")


def text_read_bins(csv_path, json_path=None):
    """The train reader as it was before trains were read as bytes: the
    file read as text 1024 lines at a time, each chunk split on commas,
    and rows parsed one by one only where the chunk's fast check fails.
    A byte that is not UTF-8 text is an error that names its row."""
    if json_path is None:
        json_path = os.path.splitext(csv_path)[0] + ".json"
    cfg, meta = _read_sidecar(json_path)
    n = cfg.resolution
    chunks = []
    with open(csv_path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline()
        check_utf8(csv_path, "header", header)
        got = tuple(c.strip() for c in header.split(","))
        if got != ("window", "bin"):
            raise ValueError(f"{csv_path}: header is {','.join(got)!r}, expected 'window,bin'")
        lo = 0
        while lines := list(islice(fh, 1024)):
            for i, line in enumerate(lines):
                check_utf8(csv_path, f"row {lo + i + 1}", line)
            cells = ",".join(lines).split(",")
            windows, bin_cells = cells[0::2], cells[1::2]
            breaks = "".join(windows)
            if len(cells) != 2 * len(lines) or "\n" in breaks or "\r" in breaks:
                for i, line in enumerate(lines):
                    if line.count(",") != 1:
                        raise ValueError(f"{csv_path}: row {lo + i + 1} should hold 2 cells, "
                                         f"holds {line.count(',') + 1}")
            bins = None
            if windows == list(map(str, range(lo, lo + len(windows)))):
                try:
                    bins = [int(c) if c.strip() else 0 for c in bin_cells]
                except ValueError:
                    pass
                else:
                    if min(bins) < 0 or max(bins) > n:
                        bins = None
            if bins is None:
                bins = []
                for m, (w, c) in enumerate(zip(windows, bin_cells), start=lo):
                    if w.strip() != str(m):
                        raise ValueError(f"{csv_path}: row {m + 1} has window {w!r}, expected {m}")
                    c = c.strip()
                    try:
                        b = int(c) if c else 0
                    except ValueError:
                        raise ValueError(f"{csv_path}: row {m + 1} has bin {c!r}, "
                                         "not an integer") from None
                    if not 0 <= b <= n:
                        raise ValueError(f"{csv_path}: row {m + 1} has bin {b}, outside 0..{n}")
                    bins.append(b)
            chunks.append(np.array(bins, dtype=np.int64))
            lo += len(lines)
    bins = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    if len(bins) != meta.get("windows"):
        raise ValueError(f"{csv_path} has {len(bins)} windows, its sidecar records {meta.get('windows')}")
    return bins


def train_text(bins) -> str:
    """A train file as the per-row writer wrote it: bin cells empty for
    silence."""
    cells = [b or "" for b in bins.tolist()]
    return "window,bin\n" + "".join(map("{},{}\n".format, range(len(cells)), cells))


def block_edge(text: str, block: int) -> int:
    """How many rows of a train file fill the byte block of block bytes
    read after its header."""
    header = text.index("\n") + 1
    return text.count("\n", header, header + block)


@functools.lru_cache(maxsize=None)
def edge_train(seed, block=BLOCK_BYTES):
    """A train with more rows than fill one byte block of block bytes
    (past window 999 a row is at least six bytes long), its file and its
    block edge."""
    train = random_train(block // 6 + 1000, seed)
    text = train_text(train.bins)
    return train, text, block_edge(text, block)


# Bytes per read block of the mutation test: its edge trains hold
# 3,730 rows, against 44,690 at BLOCK_BYTES, and each example crosses
# the same edges.
MUTATION_BLOCK = 1 << 14


# Bytes a mutation writes over one byte: digits, space, comma, letters
# and non-ASCII bytes.
BYTES = b"0123456789 ,xe\r\x80\xc3\xff"
MUTATIONS = ["none", "delete", "duplicate", "swap", "byte", "crlf", "unterminated", "bin"]


@st.composite
def train_files(draw, block):
    """(train, its file, the file mutated): a train with as many rows
    as fill a byte block of block bytes, one more, one fewer or only a
    few, the bytes the per-row writer gave it, and those bytes after
    one mutation."""
    base, text, edge = edge_train(draw(st.integers(0, 15)), block)
    n = draw(st.sampled_from([0, 1, 2, 3, 40, edge - 1, edge, edge + 1]))
    train = SpikeTrain(bins=base.bins[:n], config=CFG3K, seed=None)
    lines = text.encode().splitlines(keepends=True)[:n + 1]
    data = b"".join(lines)
    # a line anywhere, or near the block edge (line i is row i - 1)
    i = draw(st.one_of(st.integers(0, len(lines) - 1),
                       st.integers(edge - 1, edge + 2).map(lambda i: min(i, len(lines) - 1))))
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap" and i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif kind == "byte":
        edge_byte = len(lines[0]) + block
        pos = draw(st.one_of(st.integers(0, len(data) - 1),
                             st.integers(edge_byte - 12, edge_byte + 12)))
        pos = min(pos, len(data) - 1)
        return train, data, data[:pos] + bytes([draw(st.sampled_from(BYTES))]) + data[pos + 1:]
    elif kind == "crlf":
        lines = [line.replace(b"\n", b"\r\n") for line in lines]
    elif kind == "unterminated":
        lines[-1] = lines[-1].rstrip(b"\n")
    elif kind == "bin" and i > 0:
        cell = draw(st.sampled_from([str(CFG3K.resolution + 1), "007", "+5", " 5", "0"]))
        lines[i] = f"{i - 1},{cell}\n".encode()
    return train, data, b"".join(lines)


def outcome(read, path):
    """The bins a reader returns, or the type and message it raises."""
    try:
        return read(path).tolist()
    except ValueError as exc:
        return type(exc), str(exc)


class TestTrainReaderAgainstTextReader:
    # 300 examples, or a tenth of the profile's count where that is
    # more: CI's deep profile runs 2,000. Files are written and read
    # MUTATION_BLOCK bytes at a time, so an example takes about 5 ms on
    # 2 cores, against 20 ms at BLOCK_BYTES.
    @settings(max_examples=max(300, settings.default.max_examples // 10), deadline=None)
    @given(train_files(MUTATION_BLOCK))
    def test_same_bins_or_same_message(self, case):
        train, written, data = case
        with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
            mp.setattr(_rows, "BLOCK_BYTES", MUTATION_BLOCK)
            path = os.path.join(d, "train.csv")
            write_spike_train(train, path)
            with open(path, "rb+") as fh:
                assert fh.read() == written
                fh.seek(0)
                fh.truncate()
                fh.write(data)
            got = outcome(lambda p: read_spike_train(p).bins, path)
            assert got == outcome(text_read_bins, path)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_written_trains_take_the_byte_path(self, tmp_path, extra):
        base, _, edge = edge_train(seed=5)
        train = SpikeTrain(bins=base.bins[:edge + extra], config=CFG3K)
        path = tmp_path / "train.csv"
        write_spike_train(train, str(path))
        with open(path, "rb") as fh:
            assert np.array_equal(read_keyed_rows(fh, b"window,bin\n", CFG3K.resolution, len(train)),
                                  train.bins)

    @pytest.mark.parametrize("data", [
        b"window,bin\r\n0,31\r\n1,\r\n2,19\r\n",
        b"window,bin\n0,31\n1,\n2,19",
        b"window,bin\n0,31\n1, \n2,19\n",
        b"window,bin\n0,031\n1,\n2,19\n",
        b"window,bin\n0,31\n1,0\n2,19\n",
        b"window,bin\n0,31\n2,\n1,19\n",
        b"window,bin\n0,101\n1,\n2,19\n",
        b"window,bin\n0,31,\n1\n2,19\n",
        b"window, bin\n0,31\n1,\n2,19\n",
    ])
    def test_other_layouts_leave_the_byte_path(self, data):
        assert read_keyed_rows(io.BytesIO(data), b"window,bin\n", CFG3K.resolution, 3) is None


class TestMemory:
    """Chunking keeps memory flat; reading or formatting whole files at
    once turns these red."""

    def test_train_read_peak(self, tmp_path):
        path = str(tmp_path / "train.csv")
        write_spike_train(random_train(100_000, seed=1), path)
        tracemalloc.start()
        try:
            read_spike_train(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    def test_error_report_write_peak(self, tmp_path):
        u, eps_u, eps_ts = float_columns(100_000, 3, seed=2)
        report = ErrorReport(u_in=u, eps_u=eps_u, eps_ts=eps_ts, rmse=0.5)
        tracemalloc.start()
        try:
            write_error_report(report, str(tmp_path / "errors.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_keyed_row_write_peak(self, tmp_path):
        # 17-digit cells, rows in blocks
        values = np.random.default_rng(3).uniform(1, 5, 100)
        keys = np.random.default_rng(4).integers(0, 101, 100_000)
        assert max(len(repr(v)) for v in values.tolist()) == 18  # 17 digits and a point
        tracemalloc.start()
        try:
            write_files([(str(tmp_path / "u.csv"),
                          keyed_rows(b"window,u_hat\n", keys, 100, lambda k: values[k - 1]))])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_keyed_table_of_every_key_peak(self, tmp_path):
        # more rows than keys, so a float cell is built for every key
        # and the table, not the rows, sets the peak
        top = 2**18
        values = np.random.default_rng(5).uniform(-1, 3, top)
        keys = np.random.default_rng(6).integers(0, top + 1, top + 1)
        path = tmp_path / "u.csv"
        tracemalloc.start()
        try:
            write_files([(str(path), keyed_rows(b"window,u_hat\n", keys, top, lambda k: values[k - 1]))])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * top
        texts = ["", *map(repr, values.tolist())]
        assert path.read_bytes() == b"window,u_hat\n" + reference_rows(0, texts, keys)

    @pytest.mark.parametrize("kind", ["fixed", "exponent", "mixed"])
    def test_float_column_cells_peak_per_block_cell(self, kind):
        # a float64 column of 32 blocks is formatted a block at a time
        # into one array, so past that array the peak is one block's
        # temporaries. The worst case measured (Python 3.11, numpy 2.4)
        # was 143 B a block cell, on a column all in exponent notation,
        # whose cells are reprs; a fixed-notation column, all arithmetic,
        # took 120 B and the mixed one 106 B. The bound leaves about
        # 10 % for other interpreters.
        n = 32 * BLOCK_CELLS
        rng = np.random.default_rng(8)
        column = {
            "fixed": rng.uniform(-1, 3, n),
            "exponent": rng.uniform(1, 9, n) * 10.0 ** rng.integers(-300, -5, n),
            "mixed": float_columns(n, 1, seed=8)[0],
        }[kind]
        tracemalloc.start()
        try:
            cells = _rows._cells(column)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cells) == n
        assert peak - cells.nbytes <= 160 * BLOCK_CELLS

    @pytest.mark.parametrize("step", ["write", "read", "decode"])
    def test_keyed_rows_follow_the_rows_not_the_bins(self, tmp_path, capsys, step):
        # three windows at 1e6 bins each: cells for every bin take
        # about 100 MiB, cells for the bins the rows hold a few bytes
        cfg = replace(CFG3K, reader_period=CFG3K.sample_period / 10**6)
        assert cfg.resolution == 10**6
        path = str(tmp_path / "train.csv")
        train = SpikeTrain(bins=np.array([123_456, 0, 10**6]), config=cfg, seed=None)
        run = {
            "write": lambda: write_spike_train(train, path),
            "read": lambda: read_spike_train(path),
            "decode": lambda: main(["decode", "--train", path, "--out", str(tmp_path / "u.csv")]),
        }
        if step != "write":
            run["write"]()
        tracemalloc.start()
        try:
            run[step]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= 2 * 2**20
