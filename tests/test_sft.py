import csv
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spikecodec
from spikecodec import (
    LinearDecoderParams,
    SftConfig,
    SineSpec,
    SpikeTrain,
    Spectrum,
    ThermalNoiseModel,
    decode_linear,
    fit_linear_decoder,
    ideal_adc_fft,
    sft_frame,
    sft_stream,
    simulate_window,
    sine,
    write_spectrum,
)
from spikecodec.cli import _sft_points
from spikecodec.sft import _bin_frequencies, _charge_duration, _spectrum_rmse, _spectrum_tables, _two_sided
from conftest import CFG3K, affine_times, naive_dft
from test_simulate import encoders


DEC = LinearDecoderParams(t_lin_min=5e-5, t_lin_max=3e-4, y_min=1.0, y_max=5.0)


def make_cfg(frame_size, ticks=333):
    """The S-FT of an encoder with ticks reader ticks per 1/3000 s window."""
    enc = replace(CFG3K, reader_period=CFG3K.sample_period / ticks)
    return SftConfig.for_encoder(enc, DEC, frame_size=frame_size)


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
        cfg = make_cfg(32, ticks=111)
        tick = cfg.encoder.reader_period
        rng = np.random.default_rng(15)
        y = rng.uniform(1.0, 5.0, 32)
        times = affine_times(y, DEC)
        exact = sft_frame(times, cfg).coefficients
        rounded = sft_frame(np.round(times / tick) * tick, cfg).coefficients
        bound = cfg.frame_size * tick / (2 * DEC.slope)
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
        assert type(spectra) is Spectrum and spectra.coefficients.shape == (13, 8)
        rows = [spectra[0], spectra[-1], *spectra[5:7], *list(spectra)[12:]]
        assert all(type(s) is Spectrum and s.sample_period == cfg.encoder.sample_period for s in rows)
        assert all(s.coefficients.shape == (8,) and s.half.shape == (5,) for s in rows)
        assert all(np.shares_memory(s.half, spectra.half) for s in rows)
        assert [s.coefficients.tobytes() for s in rows] == [
            spectra.coefficients[f].tobytes() for f in (0, 12, 5, 6, 12)]
        assert type(spectra[5:7]) is Spectrum and spectra[5:7].coefficients.shape == (2, 8)
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
        spectra = sft_stream(train, SftConfig.for_encoder(slow, DEC))
        assert _bin_frequencies(128, spectra.sample_period)[1] == pytest.approx(3000.0 / 256.0, rel=1e-12)
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

    # 2.0 failed on a slice index with a TypeError
    @pytest.mark.parametrize("hop", [2.0, True, "2", 0, -1, np.int64(0)])
    def test_hop_must_be_an_integer_of_at_least_1(self, cfg3k, hop):
        train = SpikeTrain(bins=np.tile([31], 8), config=cfg3k)
        cfg = SftConfig.for_encoder(cfg3k, DEC, frame_size=4)
        message = f"hop must be an integer of at least 1, got {hop!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sft_stream(train, cfg, hop=hop)
        assert len(sft_stream(train, cfg, hop=np.int64(2))) == 3


@st.composite
def streams(draw):
    """A train, frame size and hop giving 1 to 800 frames."""
    k = draw(st.integers(2, 24))
    hop = draw(st.integers(1, 2 * k))
    n_frames = draw(st.integers(1, 800))
    # windows past the last full frame, too few to start another
    tail = draw(st.integers(0, hop - 1))
    n = k + (n_frames - 1) * hop + tail
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bins = rng.integers(1, CFG3K.resolution + 1, n)
    bins[rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))] = 0
    return SpikeTrain(bins=bins, config=CFG3K), k, hop


class TestSftStreamRows:
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
    silent_time = min(cfg.decoder.t_lin_max, _charge_duration(cfg))
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
    streams of 1 to 257 frames, and sft_frame gives the bits of the
    calibration written out on one real FFT."""

    @pytest.mark.parametrize("decoder", [DEC, DEC_LATE], ids=["early", "late"])
    @pytest.mark.parametrize("silent", [0.0, 0.1, 1.0])
    # frame counts at and past powers of two; 200-frame cases keep the
    # hop as id
    @pytest.mark.parametrize("hop, frames", [
        pytest.param(hop, frames, id=str(hop) if frames == 200 else f"{hop}-{frames}frames")
        for hop in (1, 7, "K", "2K+1") for frames in (1, 64, 65, 200, 256, 257)])
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
        assert all(type(s) is Spectrum and s.sample_period == cfg.encoder.sample_period for s in got)
        assert got.coefficients.tobytes() == np.stack([s.coefficients for s in want]).tobytes()

    @pytest.mark.parametrize("decoder", [DEC, DEC_LATE], ids=["early", "late"])
    @pytest.mark.parametrize("k", [2, 127])
    def test_frame_bytes(self, k, decoder):
        cfg = SftConfig.for_encoder(CFG3K, decoder, frame_size=k)
        rng = np.random.default_rng(k)
        times = rng.integers(1, CFG3K.resolution + 1, k) * CFG3K.reader_period
        times[::3] = _charge_duration(cfg)
        got = sft_frame(times, cfg).half
        # one real FFT, bins 0..K//2; bin 0's real part less
        # (T_charge - a) * K, both parts times 1 / slope, never a
        # complex product or quotient
        v = np.fft.rfft(np.clip(_charge_duration(cfg) - times, 0.0, None))
        re, im = v.real.copy(), v.imag.copy()
        re[0] -= (_charge_duration(cfg) - offset(decoder)) * k
        want = np.empty(k // 2 + 1, dtype=complex)
        want.real, want.imag = re * (1.0 / decoder.slope), im * (1.0 / decoder.slope)
        assert got.tobytes() == want.tobytes()


def matmul_coefficients(frames, cfg):
    """The transform as the two weight-matrix products it replaced:
    one complex sum of the products, minus the row-sum term, divided
    by the slope."""
    p = cfg.decoder
    t_charge = _charge_duration(cfg)
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
    t_charge = ld(_charge_duration(cfg))
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


@st.composite
def one_sided_cases(draw):
    """A train, frame size K, hop and decoder for sft_stream, with up
    to 40 frames and some windows silent."""
    k = draw(st.integers(2, 256))
    hop = draw(st.integers(1, 2 * k + 1))
    train = random_train(k, hop, draw(st.integers(1, 40)), draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
                         draw(st.integers(0, 2**32 - 1)))
    return train, SftConfig.for_encoder(CFG3K, draw(st.sampled_from([DEC, DEC_LATE])), frame_size=k), hop


class TestOneSided:
    """A Spectrum holds bins 0..K//2 of real frames. Its coefficients
    rebuild the other bins as exact conjugates, and the one-sided bins
    lie within rounding of the full complex FFT they replaced."""

    @pytest.mark.parametrize("k", [2, 3, 16, 127, 128, 256])
    def test_coefficients_are_hermitian_bit_for_bit(self, k):
        train = random_train(k, 3, 40, 0.1, k + 2)
        cfg = SftConfig.for_encoder(CFG3K, DEC, frame_size=k)
        sig = sine(SineSpec(2.0, 500.0, 3.0), k * CFG3K.sample_period)
        for spec in (sft_stream(train, cfg, hop=3), sft_frame(stream_times(train, cfg, 3)[5], cfg),
                     ideal_adc_fft(sig, CFG3K.sample_period, k)):
            c = spec.coefficients
            assert c.shape[-1] == k and len(spec) == len(c)
            # bin K - j is the conjugate of bin j; bin 0, and bin K/2 at
            # even K, are their own conjugates, so real
            assert c[..., k // 2 + 1 :].tobytes() == np.conj(c[..., (k - 1) // 2 : 0 : -1]).tobytes()
            assert np.all(c[..., 0].imag == 0)
            assert k % 2 or np.all(c[..., k // 2].imag == 0)
            assert spec.magnitude().tobytes() == np.abs(c).tobytes()

    @pytest.mark.parametrize("k", [2, 3, 16, 127, 128, 256])
    def test_rmse_over_the_half_is_over_all_bins(self, k):
        # _spectrum_rmse counts bins 1..(K-1)//2 twice, for their
        # mirrors; that is the mean over all K bins but for rounding
        # (worst of these cases 1.2 eps, relative)
        rng = np.random.default_rng(k)
        measured, reference = (np.fft.rfft(rng.normal(3.0, 1.0, (50, k)), axis=1) for _ in range(2))
        got = _spectrum_rmse(measured, reference, k)
        m, r = _two_sided(measured, k), _two_sided(reference, k)
        want = [np.sqrt(np.mean(np.abs(d) ** 2, axis=1)) for d in (np.abs(m) - np.abs(r), m - r)]
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= 4 * np.finfo(float).eps * w)

    # Each one-sided bin is within 4 eps * log2(K) of the frame's summed
    # charge durations over the slope, the bound on any DFT bin's size,
    # from the bin of one np.fft.fft with the same calibration. The
    # worst of 4,000 seeded draws was 1.8 eps * log2(K).
    @settings(deadline=None)
    @given(case=one_sided_cases())
    def test_within_rounding_of_the_full_fft(self, case):
        train, cfg, hop = case
        k, p = cfg.frame_size, cfg.decoder
        got = sft_stream(train, cfg, hop=hop).half
        dur = np.clip(_charge_duration(cfg) - stream_times(train, cfg, hop), 0.0, None)
        v = np.fft.fft(dur, axis=1)[:, : k // 2 + 1]
        re, im = v.real.copy(), v.imag.copy()
        re[:, 0] -= (_charge_duration(cfg) - offset(p)) * k
        want = np.empty(v.shape, dtype=complex)
        want.real, want.imag = re * (1.0 / p.slope), im * (1.0 / p.slope)
        bound = 4 * np.finfo(float).eps * np.log2(k) * dur.sum(axis=1) / p.slope
        assert np.all(np.abs(got - want).max(axis=1) <= bound)


@st.composite
def parseval_cases(draw):
    """An encoder, a frame size K, a decoder, a noise model or None, a
    sine and 1 to 4 frequencies for _sft_points. Half the decoders are
    fresh fits; the rest are drawn with t_lin_max from 0 to 1.5 windows,
    so some lie past the charge phase. Sines reach from u_max down to
    0 V, so some windows fall silent."""
    enc = draw(encoders())
    k = draw(st.integers(2, 256))
    if draw(st.booleans()):
        decoder = fit_linear_decoder(enc).params
    else:
        t_s = enc.sample_period
        t_lin_max = t_s * draw(st.floats(0.0, 1.5))
        t_lin_min = t_lin_max - t_s * draw(st.floats(0.01, 1.0))
        y_min = enc.u_min * draw(st.floats(0.0, 1.0))
        y_max = y_min + (enc.u_max - enc.u_min) * draw(st.floats(0.1, 2.0))
        decoder = LinearDecoderParams(t_lin_min, t_lin_max, y_min, y_max)
    mode = draw(st.sampled_from([None, "constant", "per-window"]))
    noise = None if mode is None else ThermalNoiseModel(
        enc.u_th * draw(st.floats(0.0, 0.9)), mode, draw(st.integers(0, 2**32 - 1)))
    level = enc.u_max * draw(st.floats(0.0, 1.0))
    spec = SineSpec(level * draw(st.floats(0.0, 1.0)), 1.0, level)
    freqs = [f / enc.sample_period for f in draw(st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=4))]
    return SftConfig(enc, decoder, k), noise, spec, freqs


class TestParseval:
    """A frame's spectrum error is its decode error. The S-FT gives the
    DFT of the decoded values decode_linear(min(t, T_charge)), silent
    windows entering at t_lin_max, and the reference is the DFT of the
    held voltages, so by Parseval each frame's
    rmse_complex = sqrt(K) * rms(decoded - held).

    Rounding in the two spectra and in the decode grows with the values
    that enter them, not with their difference, so the bound is relative
    to sqrt(K) times the frame's size: the largest of its held voltages,
    |y_max|, and T_charge, |t_lin_min| and |a| over the slope, a being
    the code's offset. The decode and the calibration round each value a
    fixed number of times, and an FFT of K points rounds in each of its
    about log2(K) stages, so the bound is 4 eps times log2(2K) times
    that. Prime K, where numpy's FFT runs Bluestein's algorithm through
    longer transforms, rounds the most. Over 40,000 drawn examples
    (Hypothesis seeds 1 and 2), 20,000 with constant frames (seed 3),
    and constant frames at every K from 2 to 256 and nine levels on the
    encoder of the example below, the worst gap was 1.87 eps of
    sqrt(K) * size * log2(2K), at K = 241. The same draws reached 16.7
    eps of sqrt(K) * size, so no bound flat in K holds them. Moving the
    DC constant of the calibration by one reader period, or scaling
    every coefficient by 1 + 2**-40, breaks it."""

    @settings(deadline=None)
    @given(case=parseval_cases())
    # a constant frame at u_max at prime K = 241: 16.7 eps of
    # sqrt(K) * size, past a bound flat in K
    @example(case=(SftConfig(replace(CFG3K, tau=0.0625, u_th=0.9086195992105129, u_min=1.3629293988157694,
                                     u_max=5.409126051550085, sample_period=0.06866326804175688,
                                     reader_period=0.007629252004639653),
                             LinearDecoderParams(0.0, 0.04581506080202301, 1.3629293988157694,
                                                 5.409126051550085), 241),
                   None, SineSpec(0.0, 1.0, 5.409126051550085), [7.281913813014697]))
    def test_spectrum_error_is_the_decode_error(self, case):
        scfg, noise, spec, freqs = case
        enc, k, p = scfg.encoder, scfg.frame_size, scfg.decoder
        _, _, rmse_mag, rmse_complex = _sft_points(scfg, noise, spec, freqs)
        # the frames _sft_points transforms: K windows of each sine from phase zero
        t = np.arange(k) * enc.sample_period
        held = np.array([sine(replace(spec, frequency=nu), k * enc.sample_period)(t) for nu in freqs])
        bins = simulate_window(held, enc, noise)
        t_charge = _charge_duration(scfg)
        times = np.where(bins > 0, bins * enc.reader_period, p.t_lin_max)
        decoded = decode_linear(np.minimum(times, t_charge), p)
        parseval = np.sqrt(k * np.mean((decoded - held) ** 2, axis=1))
        size = np.maximum(np.abs(held).max(axis=1),
                          max(abs(p.y_max), max(t_charge, abs(p.t_lin_min), abs(offset(p))) / p.slope))
        bound = 4 * np.finfo(float).eps * np.log2(2 * k) * np.sqrt(k) * size
        assert np.all(np.abs(rmse_complex - parseval) <= bound), (rmse_complex, parseval, bound)
        assert np.all(rmse_mag <= rmse_complex)

    def test_magnitude_error_stays_within_the_complex_error(self):
        # a frame whose magnitude and complex errors agree but for
        # rounding: squared and summed as they stood, in 38 of its 107
        # bins the magnitude error came out above the complex error,
        # and rmse_mag 1 ulp above rmse_complex
        enc = replace(CFG3K, tau=0.09375, u_th=1.0, u_min=2.0, u_max=4.0,
                      sample_period=0.25586878344888603, reader_period=0.0009073361115208724)
        decoder = LinearDecoderParams(0.02176969488550179, 0.057833782303973104, 2.0, 4.0)
        _, _, rmse_mag, rmse_complex = _sft_points(SftConfig(enc, decoder, 107), None,
                                                   SineSpec(0.369140625, 1.0, 3.9375), [1.302751077487036])
        assert rmse_mag[0] <= rmse_complex[0]


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
        # one (F, K//2 + 1) result, the spike times clipped to durations
        # in place and the FFT's own buffers; a second whole-stream
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
            assert peak <= len(spectra) * (cfg.frame_size // 2 + 1) * 16 + 1.5 * 2**20, (hop, peak)

    def test_peak_at_a_hop_far_past_k(self, cfg3k):
        # frames 100 K apart: the FFT reads the frames where they lie,
        # and nothing holds the 76,928 windows they span a second time
        cfg = SftConfig.for_encoder(cfg3k, DEC)
        bins = np.random.default_rng(4).integers(1, cfg3k.resolution + 1, 80_000)
        train = SpikeTrain(bins=bins, config=cfg3k)
        tracemalloc.start()
        try:
            spectra = sft_stream(train, cfg, hop=100 * cfg.frame_size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(spectra) == 7
        assert peak <= len(spectra) * (cfg.frame_size // 2 + 1) * 16 + 1.5 * 2**20, peak


class TestSpectrum:
    def test_bin_frequencies(self):
        assert _bin_frequencies(8, 1.0 / 3000.0)[1] == pytest.approx(375.0, rel=1e-12)
        assert _bin_frequencies(8, 1.0 / 3000.0)[4] == pytest.approx(1500.0, rel=1e-12)

    def test_magnitude(self):
        spec = Spectrum(np.array([3 + 4j, 1 + 2j]), 3, 1e-3)
        assert spec.magnitude() == pytest.approx([5.0, np.sqrt(5.0), np.sqrt(5.0)])
        assert spec.coefficients.tolist() == [3 + 4j, 1 + 2j, 1 - 2j]
        assert Spectrum(np.array([3 + 0j, 1 + 0j]), 2, 1e-3).magnitude().tolist() == [3.0, 1.0]

    # an (F, K//2 + 1) stack of frames is a spectrum too; a third axis,
    # or rows of other than K//2 + 1 = 2 bins for K = 2, are not
    @pytest.mark.parametrize("coefficients", [np.zeros(1), np.zeros((2, 1)), np.zeros(()),
                                              np.zeros((2, 2, 2))])
    def test_rejects_a_short_or_not_1d_array(self, coefficients):
        with pytest.raises(ValueError, match=r"1-d or 2-d array of frame_size // 2 \+ 1 bins"):
            Spectrum(coefficients, 2, 1e-3)

    @pytest.mark.parametrize("bins, frame_size", [(3, 3), (2, 4), (3, 6), (3, 1), (2, 2.0), (1, 0)])
    def test_rejects_a_half_of_another_frame_size(self, bins, frame_size):
        with pytest.raises(ValueError, match="frame_size"):
            Spectrum(np.zeros((4, bins)), frame_size, 1e-3)

    def test_one_frame_has_bins_not_frames(self):
        spec = Spectrum(np.zeros(3), 5, 1e-3)
        assert len(spec) == len(spec.coefficients) == 5
        with pytest.raises(ValueError, match=r"got shape \(\)"):
            spec[0]

    def test_csv_dump(self, tmp_path):
        spec = Spectrum(np.array([1 + 0j, 0 + 2j]), 3, 1e-3)
        path = tmp_path / "spec.csv"
        write_spectrum(spec, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert float(rows[1]["im"]) == 2.0
        assert float(rows[1]["mag"]) == 2.0
        assert float(rows[2]["freq_hz"]) == pytest.approx(2000.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("frames", [1, 3])
    def test_csv_dump_refuses_a_stream(self, tmp_path, frames):
        # a stream's rows once reached numpy's "all the input arrays must
        # have same number of dimensions"
        path = tmp_path / "spec.csv"
        with pytest.raises(ValueError, match=f"one frame's spectrum, got a stream of {frames} frames"):
            write_spectrum(Spectrum(np.zeros((frames, 2), dtype=complex), 3, 1e-3), str(path))
        assert not path.exists()

    @pytest.mark.parametrize("paths", [[], ["a.csv"], ["a.csv", "b.csv", "c.csv"]])
    def test_tables_name_a_path_count_that_is_not_the_row_count(self, paths):
        with pytest.raises(ValueError, match=f"{len(paths)} spectrum paths for 2 rows of coefficients"):
            _spectrum_tables(paths, np.zeros((2, 3), dtype=complex), 1e-3)


class TestSftConfig:
    def test_for_encoder_defaults(self, cfg3k):
        cfg = SftConfig.for_encoder(cfg3k, DEC, frame_size=16)
        assert cfg.encoder is cfg3k
        assert cfg == SftConfig(cfg3k, DEC, frame_size=16)
        assert SftConfig(cfg3k, DEC).frame_size == 128
        # the N whole ticks of one window, with the bits of N * T_N
        assert _charge_duration(cfg) == cfg3k.resolution * cfg3k.reader_period
        assert _charge_duration(cfg) == pytest.approx(cfg3k.sample_period, rel=1e-12)

    def test_validation(self, cfg3k):
        with pytest.raises(ValueError, match="frame_size"):
            SftConfig(cfg3k, DEC, frame_size=1)

    # 4.0 was taken, and every transform then failed with a TypeError
    @pytest.mark.parametrize("frame_size", [4.0, True, "4", None, 1, np.int64(1)])
    def test_frame_size_must_be_an_integer_of_at_least_2(self, cfg3k, frame_size):
        message = f"frame_size must be an integer of at least 2, got {frame_size!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SftConfig(cfg3k, DEC, frame_size=frame_size)
        assert SftConfig(cfg3k, DEC, frame_size=np.int64(4)).frame_size == 4

    # a silent window enters at t_lin_max; before the window starts, it
    # made sft_stream fail on spike times, or pass when no window was silent
    @pytest.mark.parametrize("t_lin_max", [-1e-4, -5e-324])
    def test_rejects_a_decoder_that_ends_before_the_window(self, cfg3k, t_lin_max):
        early = LinearDecoderParams(t_lin_min=-2e-4, t_lin_max=t_lin_max, y_min=1.0, y_max=5.0)
        with pytest.raises(ValueError, match=rf"t_lin_max >= 0, got {t_lin_max!r} s"):
            SftConfig(cfg3k, early)
        zero = replace(early, t_lin_max=0.0)
        assert SftConfig(cfg3k, zero).decoder is zero
