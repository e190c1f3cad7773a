"""The chunked CSV rows against the per-row loops they replace.

Every float CSV used to be written one row at a time with csv.writer
and repr(float(v)); those loops are kept here as the reference, and
the chunked writers must give the same bytes. Trains used to be read
only as text, in chunks of 1024 lines; that reader is kept here too,
and the byte reader must return the same bins or raise the same
message on any file. The train reader must round-trip any bins array
and keep its memory flat. The float writer must give the same bytes
whether its rows are formatted in one process or split across forked
children, and leave no child or temporary file behind.
"""

import contextlib
import csv
import functools
import gc
import hashlib
import io
import json
import os
import re
import signal
import tempfile
import tracemalloc
import warnings
from dataclasses import asdict
from itertools import islice

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
from spikecodec._atomic import atomic_write
from spikecodec._rows import BLOCK_BYTES, CHUNK_ROWS, FORK_ROWS, CellTable, read_keyed_rows, write_rows
from spikecodec.simulate import _read_sidecar
from spikecodec.cli import main
from spikecodec.sft import write_spectrum
from conftest import CFG3K

# Row counts on both sides of the chunk boundaries.
ROW_COUNTS = [1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3]
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
        coeff = np.empty(n, dtype=complex)
        coeff.real, coeff.imag = float_columns(n, 2, seed=n)
        spec = Spectrum(coefficients=coeff, sample_period=CFG3K.sample_period)
        path = tmp_path / "spectrum.csv"
        write_spectrum(spec, str(path))
        freqs, mags = spec.bin_frequencies, spec.magnitude()
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


def force_shares(monkeypatch, k):
    """Make write_rows split every file into k shares, however short."""
    monkeypatch.setattr(_rows, "share_count", lambda n: k)


@functools.lru_cache(maxsize=None)
def share_case(n):
    """Three float columns of n rows and their reference bytes."""
    cols = float_columns(n, 3, seed=n)
    return cols, reference_csv(["a", "b", "c"], zip(*cols))


def open_fds():
    """This process's open file descriptors, where /proc lists them."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


@contextlib.contextmanager
def nothing_left():
    """Check that the body leaves no child process, open file
    descriptor or unclosed file (which warns when collected) behind."""
    fds = open_fds()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert open_fds() == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestShares:
    """write_rows gives the same bytes however its rows are split
    across processes, and leaves no process or file behind."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [1, FORK_ROWS - 1, FORK_ROWS, 2 * FORK_ROWS + 1, 100_000])
    def test_bytes_do_not_depend_on_the_share_count(self, tmp_path, monkeypatch, k, n):
        force_shares(monkeypatch, k)
        cols, want = share_case(n)
        path = tmp_path / "rows.csv"
        with nothing_left(), open(path, "w", newline="") as fh:
            # unflushed text: a child that flushed the handle it inherited
            # would write these bytes a second time
            fh.write("pending\r\n")
            write_rows(fh, "a,b,c\r\n", "{!r},{!r},{!r}\r\n", *cols)
        assert path.read_bytes() == b"pending\r\n" + want

    def test_share_count(self, monkeypatch):
        monkeypatch.setattr(_rows, "usable_cpus", lambda: 3)
        assert [_rows.share_count(n) for n in (0, 2 * FORK_ROWS - 1, 2 * FORK_ROWS,
                                               3 * FORK_ROWS, 100 * FORK_ROWS)] == [1, 1, 2, 3, 3]
        monkeypatch.delattr(os, "fork")
        assert _rows.share_count(100 * FORK_ROWS) == 1


class Boom:
    """A cell whose repr fails: it raises in the process that made it
    and kills any other process (a forked child) outright when kill is
    set."""

    def __init__(self, kill=False):
        self.pid, self.kill = os.getpid(), kill

    def __repr__(self):
        if self.kill and os.getpid() != self.pid:
            os.kill(os.getpid(), signal.SIGKILL)
        raise ZeroDivisionError("boom")


def boom_column(n, row, kill=False):
    col = np.arange(n, dtype=float).astype(object)
    col[row] = Boom(kill)
    return col


def failing_in_children(format_rows):
    """format_rows, but raising MemoryError in any process other than
    the one that made it."""
    pid = os.getpid()

    def wrapped(*args):
        if os.getpid() != pid:
            raise MemoryError("no room")
        format_rows(*args)
    return wrapped


class TestShareFailures:
    """A failing share raises, and leaves no output, temporary file or
    child process behind."""

    N = 1000

    @pytest.mark.parametrize("kill, message", [
        (False, "exit status 1): ZeroDivisionError: boom"),
        (True, "signal 9): no message"),
    ])
    def test_failed_child_is_an_oserror(self, tmp_path, monkeypatch, kill, message):
        force_shares(monkeypatch, 3)
        path = tmp_path / "rows.csv"
        with nothing_left(), pytest.raises(OSError) as info:
            with atomic_write(str(path)) as fh:
                write_rows(fh, "u\r\n", "{!r}\r\n", boom_column(self.N, self.N - 1, kill))
        assert re.fullmatch(rf"formatting rows {2 * self.N // 3}\.\.{self.N - 1} in child "
                            rf"process \d+ failed \({re.escape(message)}", str(info.value))
        assert list(tmp_path.iterdir()) == []

    def test_failed_parent_share_stops_every_child(self, tmp_path, monkeypatch):
        force_shares(monkeypatch, 3)
        path = tmp_path / "rows.csv"
        with nothing_left(), pytest.raises(ZeroDivisionError):
            with atomic_write(str(path)) as fh:
                write_rows(fh, "u\r\n", "{!r}\r\n", boom_column(self.N, 0))
        assert list(tmp_path.iterdir()) == []

    def test_cli_names_the_failure(self, tmp_path, monkeypatch, capsys):
        # a share that fails in its child reaches the command line as one
        # error line
        force_shares(monkeypatch, 2)
        monkeypatch.setattr(_rows, "_format_rows", failing_in_children(_rows._format_rows))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"signal": {"type": "constant", "level": 3.0}}))
        with nothing_left():
            assert main(["sweep-constant", "--config", str(cfg), "--thresholds", "0.5",
                         "--points", "8", "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: formatting rows 4..7 in child process") and err.count("\n") == 1
        assert os.listdir(tmp_path / "out") == []


# SHA-256 of write_error_report and write_spectrum output for the
# 40,000-row columns below, recorded when every row was formatted in
# one process. Float repr is the same on every machine.
PINNED = {
    "errors": "b626f320a430c307a29de3f6998d74af0293d2054810e5d3ac136e4758032843",
    "spectrum": "07494c9eb544f488200dd1d63a6145e0e20afcf0982e0e14ac0c0cdb26d50c57",
}


class TestPinnedBytes:
    N = 40_000

    def test_error_report(self, tmp_path):
        u, eps_u, eps_ts = float_columns(self.N, 3, seed=self.N)
        path = tmp_path / "errors.csv"
        write_error_report(ErrorReport(u_in=u, eps_u=eps_u, eps_ts=eps_ts, rmse=0.5), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED["errors"]

    def test_spectrum(self, tmp_path):
        coeff = np.empty(self.N, dtype=complex)
        coeff.real, coeff.imag = float_columns(self.N, 2, seed=self.N + 1)
        path = tmp_path / "spectrum.csv"
        write_spectrum(Spectrum(coefficients=coeff, sample_period=CFG3K.sample_period), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED["spectrum"]


class TestTrainRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(st.integers(0, 40),
                       st.sampled_from(ROW_COUNTS + [CHUNK_ROWS - 1, 3 * CHUNK_ROWS])),
           seed=st.integers(0, 2**32 - 1))
    def test_write_then_read_returns_the_bins(self, n, seed):
        train = random_train(n, seed)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "train.csv")
            write_spike_train(train, path)
            back = read_spike_train(path)
        assert np.array_equal(back.bins, train.bins)
        assert back.config == train.config


def text_read_bins(csv_path, json_path=None):
    """The train reader as it was before trains were read as bytes: the
    file read as text 1024 lines at a time, each chunk split on commas,
    and rows parsed one by one only where the chunk's fast check fails."""
    if json_path is None:
        json_path = os.path.splitext(csv_path)[0] + ".json"
    cfg, meta = _read_sidecar(json_path)
    n = cfg.resolution
    chunks = []
    with open(csv_path, newline="") as fh:
        got = tuple(c.strip() for c in fh.readline().split(","))
        if got != ("window", "bin"):
            raise ValueError(f"{csv_path}: header is {','.join(got)!r}, expected 'window,bin'")
        lo = 0
        while lines := list(islice(fh, 1024)):
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


def block_edge(text: str) -> int:
    """How many rows of a train file fill the byte block read after its
    header."""
    header = text.index("\n") + 1
    return text.count("\n", header, header + BLOCK_BYTES)


# More rows than fill one byte block: past window 999 a row is at
# least six bytes long.
EDGE_ROWS = BLOCK_BYTES // 6 + 1000

@functools.lru_cache(maxsize=None)
def edge_train(seed):
    """A train of EDGE_ROWS windows, its file and its block edge."""
    train = random_train(EDGE_ROWS, seed)
    text = train_text(train.bins)
    return train, text, block_edge(text)


# Bytes a mutation writes over one byte: digits, space, comma, letters
# and non-ASCII bytes.
BYTES = b"0123456789 ,xe\r\x80\xc3\xff"
MUTATIONS = ["none", "delete", "duplicate", "swap", "byte", "crlf", "unterminated", "bin"]


@st.composite
def train_files(draw):
    """(train, its file, the file mutated): a train with as many rows
    as fill a byte block, one more, one fewer or only a few, the bytes
    the per-row writer gave it, and those bytes after one mutation."""
    base, text, edge = edge_train(draw(st.integers(0, 15)))
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
        edge_byte = len(lines[0]) + BLOCK_BYTES
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
    @settings(max_examples=300, deadline=None)
    @given(train_files())
    def test_same_bins_or_same_message(self, case):
        train, written, data = case
        with tempfile.TemporaryDirectory() as d:
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
        cells = CellTable(["", *map(str, range(1, CFG3K.resolution + 1))])
        with open(path, "rb") as fh:
            assert np.array_equal(read_keyed_rows(fh, b"window,bin\n", cells), train.bins)

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
        cells = CellTable(["", *map(str, range(1, CFG3K.resolution + 1))])
        assert read_keyed_rows(io.BytesIO(data), b"window,bin\n", cells) is None


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

    def test_error_report_write_peak(self, tmp_path, monkeypatch):
        # in one process, and with a forked child's file appended
        u, eps_u, eps_ts = float_columns(100_000, 3, seed=2)
        report = ErrorReport(u_in=u, eps_u=eps_u, eps_ts=eps_ts, rmse=0.5)
        for k in (1, 2):
            force_shares(monkeypatch, k)
            tracemalloc.start()
            try:
                write_error_report(report, str(tmp_path / "errors.csv"))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 2**20
