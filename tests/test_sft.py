import csv
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spikecodec
from spikecodec import (
    LinearDecoderParams,
    SftConfig,
    SpikeTrain,
    Spectra,
    Spectrum,
    sft_frame,
    sft_stream,
    write_spectrum,
)
from spikecodec.sft import _CHUNK_FRAMES
from conftest import CFG3K, affine_times, naive_dft


DEC = LinearDecoderParams(t_lin_min=5e-5, t_lin_max=3e-4, y_min=1.0, y_max=5.0)


def make_cfg(frame_size, tick=1e-6):
    return SftConfig(frame_size=frame_size, decoder=DEC, tick=tick, sample_period=1.0 / 3000.0)


class TestSftFrame:
    def test_constant_input_is_pure_dc(self):
        cfg = make_cfg(16)
        times = affine_times(np.full(16, 3.0), DEC)
        spec = sft_frame(times, cfg)
        assert spec.coefficients[0] == pytest.approx(16 * 3.0, rel=1e-9)
        assert np.abs(spec.coefficients[1:]).max() < 1e-9

    def test_single_cosine_hits_its_bins(self):
        cfg = make_cfg(16)
        n = np.arange(16)
        y = 3.0 + np.cos(2 * np.pi * 3 * n / 16)
        spec = sft_frame(affine_times(y, DEC), cfg)
        assert spec.coefficients[3] == pytest.approx(8.0, rel=1e-9)
        assert spec.coefficients[13] == pytest.approx(8.0, rel=1e-9)
        assert spec.coefficients[0] == pytest.approx(48.0, rel=1e-9)

    def test_matches_reference_dft_on_random_frames(self):
        cfg = make_cfg(64)
        rng = np.random.default_rng(12)
        for _ in range(20):
            y = rng.uniform(1.0, 5.0, 64)
            spec = sft_frame(affine_times(y, DEC), cfg)
            ref = naive_dft(y)
            assert np.abs(spec.coefficients - ref).max() < 1e-9 * np.abs(ref).max()

    def test_conjugate_symmetry(self):
        cfg = make_cfg(32)
        rng = np.random.default_rng(13)
        y = rng.uniform(1.0, 5.0, 32)
        c = sft_frame(affine_times(y, DEC), cfg).coefficients
        scale = np.abs(c).max()
        assert np.abs(c[1:] - np.conj(c[1:][::-1])).max() < 1e-12 * scale

    def test_linear_in_the_samples(self):
        cfg = make_cfg(16)
        rng = np.random.default_rng(14)
        y1 = rng.uniform(1.0, 5.0, 16)
        y2 = rng.uniform(1.0, 5.0, 16)
        mix = 0.25 * y1 + 0.75 * y2
        c_mix = sft_frame(affine_times(mix, DEC), cfg).coefficients
        c_sep = (0.25 * sft_frame(affine_times(y1, DEC), cfg).coefficients
                 + 0.75 * sft_frame(affine_times(y2, DEC), cfg).coefficients)
        assert np.abs(c_mix - c_sep).max() < 1e-9 * np.abs(c_sep).max()

    def test_quantized_times_stay_within_half_tick_bound(self):
        cfg = make_cfg(32, tick=3e-6)
        rng = np.random.default_rng(15)
        y = rng.uniform(1.0, 5.0, 32)
        times = affine_times(y, DEC)
        exact = sft_frame(times, cfg).coefficients
        rounded = sft_frame(np.round(times / cfg.tick) * cfg.tick, cfg).coefficients
        bound = cfg.frame_size * cfg.tick / (2 * DEC.slope)
        assert np.abs(rounded - exact).max() <= bound * (1 + 1e-9)

    def test_validation(self):
        cfg = make_cfg(8)
        with pytest.raises(ValueError, match="8"):
            sft_frame(np.zeros(7), cfg)
        with pytest.raises(ValueError, match="finite"):
            sft_frame(np.full(8, np.nan), cfg)
        with pytest.raises(ValueError, match="finite"):
            sft_frame(np.full(8, -1e-6), cfg)


class TestSftStream:
    def test_frame_count_with_hop(self, cfg3k):
        train = SpikeTrain(bins=np.tile([31, 47, 19, 95], 8), config=cfg3k)
        cfg = SftConfig.for_encoder(cfg3k, DEC, frame_size=8)
        assert len(sft_stream(train, cfg)) == 4
        assert len(sft_stream(train, cfg, hop=4)) == 7
        assert len(sft_stream(train, cfg, hop=1)) == 25

    def test_result_rows_are_spectrum_views(self, cfg3k):
        train = SpikeTrain(bins=np.arange(1, 33), config=cfg3k)
        cfg = SftConfig.for_encoder(cfg3k, DEC, frame_size=8)
        spectra = sft_stream(train, cfg, hop=2)
        assert type(spectra) is Spectra and spectra.coefficients.shape == (13, 8)
        rows = [spectra[0], spectra[-1], *spectra[5:7], *list(spectra)[12:]]
        assert all(type(s) is Spectrum and s.sample_period == cfg.sample_period for s in rows)
        assert all(np.shares_memory(s.coefficients, spectra.coefficients) for s in rows)
        assert [s.coefficients.tobytes() for s in rows] == [
            spectra.coefficients[f].tobytes() for f in (0, 12, 5, 6, 12)]
        assert type(spectra[5:7]) is Spectra and len(spectra[5:7]) == 2
        with pytest.raises(IndexError):
            spectra[13]

    def test_periodic_train_gives_identical_frames(self, cfg3k):
        train = SpikeTrain(bins=np.tile([31, 47, 19, 95], 8), config=cfg3k)
        cfg = SftConfig.for_encoder(cfg3k, DEC, frame_size=8)
        frames = sft_stream(train, cfg)
        for f in frames[1:]:
            assert np.array_equal(f.coefficients, frames[0].coefficients)

    def test_silent_windows_enter_as_latest_code_time(self, cfg3k):
        cfg = SftConfig.for_encoder(cfg3k, DEC, frame_size=4)
        silent = SpikeTrain(bins=np.array([31, 0, 19, 47]), config=cfg3k)
        sub = silent.bins * cfg3k.reader_period
        sub = np.where(silent.bins > 0, sub, DEC.t_lin_max)
        direct = sft_frame(sub, cfg)
        streamed = sft_stream(silent, cfg)[0]
        assert np.array_equal(streamed.coefficients, direct.coefficients)

    def test_rejects_a_train_with_another_window(self, cfg3k):
        # a 2/3000 s window labelled as 1/3000 s put bin 1 at 23.44 Hz
        # instead of 11.72 Hz, with coefficients that looked right
        slow = replace(cfg3k, sample_period=2.0 / 3000.0)
        train = SpikeTrain(bins=np.full(256, 31), config=slow)
        cfg = SftConfig.for_encoder(cfg3k, DEC, frame_size=128)
        with pytest.raises(ValueError, match=r"0\.000666667 s.*0\.000333333 s"):
            sft_stream(train, cfg)
        assert sft_stream(train, SftConfig.for_encoder(slow, DEC))[0].bin_frequencies[1] == (
            pytest.approx(3000.0 / 256.0, rel=1e-12))
        # the reader period may differ: spike times come from the train's ticks
        fine = replace(cfg3k, reader_period=cfg3k.reader_period / 2)
        assert len(sft_stream(SpikeTrain(bins=np.full(128, 62), config=fine), cfg)) == 1

    def test_rejects_short_trains_and_bad_hop(self, cfg3k):
        train = SpikeTrain(bins=np.array([31, 47]), config=cfg3k)
        cfg = SftConfig.for_encoder(cfg3k, DEC, frame_size=4)
        with pytest.raises(ValueError, match="need at least"):
            sft_stream(train, cfg)
        long_train = SpikeTrain(bins=np.tile([31], 8), config=cfg3k)
        with pytest.raises(ValueError, match="hop"):
            sft_stream(long_train, cfg, hop=0)


@st.composite
def streams(draw):
    """A train, frame size and hop giving more frames than one chunk,
    with a frame count that is not a multiple of the chunk size."""
    k = draw(st.integers(2, 24))
    hop = draw(st.integers(1, 2 * k))
    n_frames = draw(st.integers(_CHUNK_FRAMES + 1, 3 * _CHUNK_FRAMES)
                    .filter(lambda f: f % _CHUNK_FRAMES))
    # windows past the last full frame, too few to start another
    tail = draw(st.integers(0, hop - 1))
    n = k + (n_frames - 1) * hop + tail
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bins = rng.integers(1, CFG3K.resolution + 1, n)
    bins[rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))] = 0
    return SpikeTrain(bins=bins, config=CFG3K), k, hop


class TestSftStreamChunks:
    @settings(max_examples=40, deadline=None)
    @given(stream=streams())
    def test_every_frame_equals_sft_frame(self, stream):
        train, k, hop = stream
        cfg = SftConfig.for_encoder(CFG3K, DEC, frame_size=k)
        spectra = sft_stream(train, cfg, hop=hop)
        assert len(spectra) == (len(train) - k) // hop + 1
        times = np.where(train.fired, train.bins * CFG3K.reader_period, DEC.t_lin_max)
        for f, spec in enumerate(spectra):
            ref = sft_frame(times[f * hop : f * hop + k], cfg).coefficients
            assert spec.coefficients.tobytes() == ref.tobytes()


def stream_times(train, cfg, hop):
    """The (F, K) spike times of a stream's frames, silent windows
    entered as the decoder's latest code time clipped to the charge
    phase."""
    silent_time = min(cfg.decoder.t_lin_max, cfg.charge_duration)
    times = np.where(train.fired, train.bins * train.config.reader_period, silent_time)
    return np.lib.stride_tricks.sliding_window_view(times, cfg.frame_size)[::hop]


def random_train(k, hop, frames, silent, seed):
    rng = np.random.default_rng(seed)
    n = k + (frames - 1) * hop
    bins = rng.integers(1, CFG3K.resolution + 1, n)
    bins[rng.random(n) < silent] = 0
    return SpikeTrain(bins=bins, config=CFG3K)


def offset(decoder):
    """The constant a of the affine code t = a - slope * y."""
    return decoder.t_lin_min + decoder.slope * decoder.y_max


# The reference channel's charge phase lasts one window, 333.3 us. A
# decoder whose latest code time lies past it gives silent windows a
# zero duration, so an all-silent frame is all zeros.
DEC_LATE = LinearDecoderParams(t_lin_min=5e-5, t_lin_max=4e-4, y_min=1.0, y_max=5.0)


class TestSftParity:
    """sft_stream gives the bits of sft_frame on every frame, over
    frames that span several chunks, and sft_frame gives the bits of
    the calibration written out on one FFT."""

    @pytest.mark.parametrize("decoder", [DEC, DEC_LATE], ids=["early", "late"])
    @pytest.mark.parametrize("silent", [0.0, 0.1, 1.0])
    # frame counts at the chunk edges; 200-frame cases keep the hop as id
    @pytest.mark.parametrize("hop, frames", [
        pytest.param(hop, frames, id=str(hop) if frames == 200 else f"{hop}-{frames}frames")
        for hop in (1, 7, "K", "2K+1") for frames in (1, 64, 65, 200)])
    @pytest.mark.parametrize("k", [2, 3, 16, 127, 128, 256])
    def test_stream_bytes(self, k, hop, frames, silent, decoder):
        hop = {"K": k, "2K+1": 2 * k + 1}.get(hop, hop)
        train = random_train(k, hop, frames, silent, 1000 * k + 10 * hop + int(10 * silent))
        before = train.bins.copy()
        cfg = SftConfig.for_encoder(CFG3K, decoder, frame_size=k)
        got = sft_stream(train, cfg, hop=hop)
        assert np.array_equal(train.bins, before)
        want = [sft_frame(times, cfg) for times in stream_times(train, cfg, hop)]
        assert len(got) == len(want) == frames
        assert all(type(s) is Spectrum and s.sample_period == cfg.sample_period for s in got)
        assert got.coefficients.tobytes() == np.stack([s.coefficients for s in want]).tobytes()

    @pytest.mark.parametrize("decoder", [DEC, DEC_LATE], ids=["early", "late"])
    @pytest.mark.parametrize("k", [2, 127])
    def test_frame_bytes(self, k, decoder):
        cfg = SftConfig.for_encoder(CFG3K, decoder, frame_size=k)
        rng = np.random.default_rng(k)
        times = rng.integers(1, CFG3K.resolution + 1, k) * CFG3K.reader_period
        times[::3] = cfg.charge_duration
        got = sft_frame(times, cfg).coefficients
        # bin 0's real part less (T_charge - a) * K, both parts times
        # 1 / slope, never a complex product or quotient
        v = np.fft.fft(np.clip(cfg.charge_duration - times, 0.0, None))
        re, im = v.real.copy(), v.imag.copy()
        re[0] -= (cfg.charge_duration - offset(decoder)) * k
        want = np.empty(k, dtype=complex)
        want.real, want.imag = re * (1.0 / decoder.slope), im * (1.0 / decoder.slope)
        assert got.tobytes() == want.tobytes()


def matmul_coefficients(frames, cfg):
    """The transform as the two weight-matrix products it replaced:
    one complex sum of the products, minus the row-sum term, divided
    by the slope."""
    p = cfg.decoder
    t_charge = cfg.charge_duration
    n = np.arange(cfg.frame_size)
    ang = 2.0 * np.pi * np.outer(n, n) / cfg.frame_size
    cos_w, sin_w = np.cos(ang), -np.sin(ang)
    dur = np.clip(t_charge - frames, 0.0, None)
    v = dur @ cos_w.T + 1j * (dur @ sin_w.T)
    rowsum = cos_w.sum(axis=1) + 1j * sin_w.sum(axis=1)
    return (v - (t_charge - offset(p)) * rowsum) / p.slope


def long_double_coefficients(frames, cfg):
    """The calibrated transform of (F, K) spike times as a DFT summed in
    np.longdouble, from the same float64 times and decoder."""
    ld = np.longdouble
    k = cfg.frame_size
    p = cfg.decoder
    t_charge = ld(cfg.charge_duration)
    dur = np.clip(t_charge - frames.astype(ld), ld(0), None)
    # the angle 2 pi k n / K, reduced mod K before it is rounded
    ang = 8 * np.arctan(ld(1)) * np.arange(k).astype(ld) / k
    phase = np.outer(np.arange(k), np.arange(k)) % k
    re = np.einsum("fn,kn->fk", dur, np.cos(ang)[phase])
    im = -np.einsum("fn,kn->fk", dur, np.sin(ang)[phase])
    re[:, 0] -= (t_charge - (ld(p.t_lin_min) + ld(p.slope) * ld(p.y_max))) * k
    return re / ld(p.slope), im / ld(p.slope)


class TestSftAccuracy:
    """The FFT core lies within rounding of the exact DFT, and within
    the BLAS products' error of the products it replaced."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than float64 on this platform")
    @pytest.mark.parametrize("k", [2, 3, 16, 24, 127, 128, 256, 1000])
    def test_within_1e15_of_a_long_double_dft(self, k):
        train = random_train(k, 1, 200, 0.1, k)
        cfg = SftConfig.for_encoder(CFG3K, DEC, frame_size=k)
        got = sft_stream(train, cfg, hop=1).coefficients
        re, im = long_double_coefficients(stream_times(train, cfg, 1), cfg)
        largest = np.sqrt(re * re + im * im).max()
        err = np.maximum(np.abs(got.real - re), np.abs(got.imag - im)).max()
        assert err <= 1e-15 * largest

    @pytest.mark.parametrize("decoder", [DEC, DEC_LATE], ids=["early", "late"])
    @pytest.mark.parametrize("k", [2, 3, 16, 127, 128, 256, 1000])
    def test_within_1e13_of_the_matmul_products(self, k, decoder):
        train = random_train(k, 1, 200, 0.1, k + 1)
        cfg = SftConfig.for_encoder(CFG3K, decoder, frame_size=k)
        got = sft_stream(train, cfg, hop=1).coefficients
        want = matmul_coefficients(stream_times(train, cfg, 1), cfg)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


THREADS_SCRIPT = """
import hashlib
import numpy as np
from spikecodec import LinearDecoderParams, SftConfig, SpikeTrain, sft_stream
from conftest import CFG3K
rng = np.random.default_rng(127)
bins = rng.integers(1, CFG3K.resolution + 1, 5000)
bins[rng.random(5000) < 0.1] = 0
train = SpikeTrain(bins=bins, config=CFG3K)
dec = LinearDecoderParams(t_lin_min=5e-5, t_lin_max=3e-4, y_min=1.0, y_max=5.0)
cfg = SftConfig.for_encoder(CFG3K, dec, frame_size=127)
for hop in (127, 1):
    coeff = sft_stream(train, cfg, hop=hop).coefficients
    print(hop, len(coeff), hashlib.sha256(coeff.tobytes()).hexdigest())
"""


def test_stream_bits_do_not_depend_on_blas_threads():
    # with BLAS products, 309 of 9,906 float parts at hop K differed
    # between one and two OpenBLAS threads at K = 127
    paths = [os.path.dirname(os.path.dirname(spikecodec.__file__)), os.path.dirname(__file__)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    runs = [subprocess.run([sys.executable, "-c", THREADS_SCRIPT], capture_output=True, text=True,
                           check=True, env={**env, "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert runs[0].split()[1::3] == ["39", "4874"]
    assert runs[0] == runs[1]


class TestStreamMemory:
    def test_peak_over_the_result(self, cfg3k):
        # one (F, K) result, the spike times clipped to durations in
        # place and the FFT's per-chunk buffers; a second whole-stream
        # array of durations, or an object per frame at hop 1 (3.4 MiB
        # past the result for 19,873 frames), turns this red
        rng = np.random.default_rng(3)
        cfg = SftConfig.for_encoder(cfg3k, DEC)
        for windows, hop in [(100_000, None), (20_000, 1)]:
            train = SpikeTrain(bins=rng.integers(1, cfg3k.resolution + 1, windows), config=cfg3k)
            tracemalloc.start()
            try:
                spectra = sft_stream(train, cfg, hop)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= len(spectra) * cfg.frame_size * 16 + 1.5 * 2**20, (hop, peak)


class TestSpectrum:
    def test_bin_frequencies(self):
        spec = Spectrum(coefficients=np.zeros(8, dtype=complex), sample_period=1.0 / 3000.0)
        assert spec.bin_frequencies[1] == pytest.approx(375.0, rel=1e-12)
        assert spec.bin_frequencies[4] == pytest.approx(1500.0, rel=1e-12)

    def test_magnitude(self):
        spec = Spectrum(coefficients=np.array([3 + 4j, 1 + 0j]), sample_period=1e-3)
        assert spec.magnitude() == pytest.approx([5.0, 1.0])

    @pytest.mark.parametrize("coefficients", [np.zeros(1), np.zeros((2, 2)), np.zeros(())])
    def test_rejects_a_short_or_not_1d_array(self, coefficients):
        with pytest.raises(ValueError, match="1-d array"):
            Spectrum(coefficients=coefficients, sample_period=1e-3)

    def test_csv_dump(self, tmp_path):
        spec = Spectrum(coefficients=np.array([1 + 0j, 0 + 2j, -1 + 0j]), sample_period=1e-3)
        path = tmp_path / "spec.csv"
        write_spectrum(spec, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert float(rows[1]["im"]) == 2.0
        assert float(rows[1]["mag"]) == 2.0
        assert float(rows[2]["freq_hz"]) == pytest.approx(2000.0 / 3.0, rel=1e-12)


class TestSftConfig:
    def test_for_encoder_defaults(self, cfg3k):
        cfg = SftConfig.for_encoder(cfg3k, DEC, frame_size=16)
        assert cfg.tick == cfg3k.reader_period
        # the N whole ticks of one window, with the bits of N * T_N
        assert cfg.charge_duration == cfg3k.resolution * cfg3k.reader_period
        assert cfg.charge_duration == pytest.approx(cfg3k.sample_period, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="frame_size"):
            SftConfig(frame_size=1, decoder=DEC, tick=1e-6, sample_period=1e-3)
        # a tick longer than the window would leave a charge phase of no ticks
        for tick in (0.0, 2.5e-3):
            with pytest.raises(ValueError, match="need 0 < tick <= sample_period"):
                SftConfig(frame_size=8, decoder=DEC, tick=tick, sample_period=1e-3)
