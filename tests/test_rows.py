"""The chunked CSV rows against the per-row csv loops they replace.

Every float CSV used to be written one row at a time with csv.writer
and repr(float(v)); those loops are kept here as the reference, and
the chunked writers must give the same bytes. The train reader must
round-trip any bins array and keep its memory flat.
"""

import csv
import io
import json
import os
import tempfile
import tracemalloc
from dataclasses import asdict

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
from spikecodec._rows import CHUNK_ROWS
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
