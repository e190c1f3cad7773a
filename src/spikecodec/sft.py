"""Spiking Fourier transform over linearly phase-coded spike frames.

A frame of K windows carries K spike times, each a linear code for one
sample value. Two integrate-without-leak neurons per output bin (one
weighted +w, one -w, with w a row of DFT cosines or negative sines)
charge during the frame: a spike arriving at time t contributes
w * (T_charge - t), so earlier spikes (larger values) contribute more.
The +w membranes of the K bins are thus the DFT of the frame's charge
durations, which the model computes with np.fft.fft. Because the code
is affine in the value, each membrane is affine in the DFT coefficient
of the decoded samples, and the constant part is carried by the
weight-row sum, which vanishes for every bin except DC. The ideal
readout returns each membrane exactly, so the model reads the
membranes.

sft_frame returns the spectrum calibrated to plain DFT units of the
decoded sample values: subtract the DC constant and divide by the
code slope. That makes it directly comparable to an FFT of ideally
sampled values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rows import write_tables
from .codec import _REL_EPS, EncoderConfig, LinearDecoderParams
from .simulate import SpikeTrain

__all__ = [
    "SftConfig",
    "Spectra",
    "Spectrum",
    "sft_frame",
    "sft_stream",
    "write_spectrum",
]


@dataclass(frozen=True)
class SftConfig:
    """Geometry of the transform.

    frame_size     K, windows per frame and output bins
    decoder        affine time code the frame was produced with
    tick           seconds per step (the reader period upstream)
    sample_period  window length T_S; it labels bins with physical
                   frequencies k / (K * T_S), and the charge phase
                   lasts the whole ticks of one window
    """

    frame_size: int
    decoder: LinearDecoderParams
    tick: float
    sample_period: float

    def __post_init__(self) -> None:
        if self.frame_size < 2:
            raise ValueError("frame_size must be at least 2")
        if not (0 < self.tick <= self.sample_period):
            raise ValueError("need 0 < tick <= sample_period")

    @classmethod
    def for_encoder(
        cls,
        enc: EncoderConfig,
        decoder: LinearDecoderParams,
        frame_size: int = 128,
    ) -> "SftConfig":
        """Derive phase geometry from an encoder: ticks of one reader
        period, and a charge phase of one window, which the encoder
        already checked holds the slowest in-range spike."""
        return cls(
            frame_size=frame_size,
            decoder=decoder,
            tick=enc.reader_period,
            sample_period=enc.sample_period,
        )

    @property
    def charge_duration(self) -> float:
        """The charge phase: the N = T_S / tick whole ticks of one window."""
        return round(self.sample_period / self.tick) * self.tick


@dataclass(frozen=True, slots=True)
class Spectrum:
    """K complex coefficients in DFT units of the decoded values."""

    coefficients: np.ndarray
    sample_period: float

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "coefficients", c)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("coefficients must be a 1-d array, length >= 2")

    def __len__(self) -> int:
        return int(self.coefficients.size)

    @property
    def bin_frequencies(self) -> np.ndarray:
        return _bin_frequencies(len(self), self.sample_period)

    def magnitude(self) -> np.ndarray:
        return np.abs(self.coefficients)


@dataclass(frozen=True, slots=True)
class Spectra:
    """F frames' spectra, the rows of (F, K) coefficients. An index gives
    a row's Spectrum, a view that keeps the array alive; a slice, a Spectra."""

    coefficients: np.ndarray
    sample_period: float

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, index):
        kind = Spectra if isinstance(index, slice) else Spectrum
        return kind(self.coefficients[index], self.sample_period)


def _bin_frequencies(k: int, sample_period: float) -> np.ndarray:
    """The physical frequency of each of K bins, k / (K * T_S)."""
    return np.arange(k) / (k * sample_period)


# Frames per FFT call in sft_stream, so that each chunk is calibrated
# while it is in cache. Any chunk size gives the same bits.
_CHUNK_FRAMES = 64


def _check_times(times: np.ndarray) -> None:
    if not np.all(np.isfinite(times)) or np.any(times < 0):
        raise ValueError("spike times must be finite and non-negative")


def _durations(times: np.ndarray, cfg: SftConfig) -> np.ndarray:
    """Overwrite spike times with their charge durations,
    max(T_charge - t, 0), and return the same array."""
    np.subtract(cfg.charge_duration, times, out=times)
    return np.clip(times, 0.0, None, out=times)


def _coefficients(dur: np.ndarray, cfg: SftConfig) -> np.ndarray:
    """Calibrated spectra, (F, K) complex, of an (F, K) stack of charge
    durations.

    Each +w membrane charges w * (T_charge - t) per spike, and the
    weight rows are DFT rows, so a frame's membranes are the DFT of its
    durations. With the affine code t = a - slope*y, and every weight
    row but row 0 summing to zero, the membrane of bin k is
      v_k = (T_charge - a) * K * [k == 0] + slope * DFT(y)_k
    so subtract the constant from the real part of bin 0 and rescale
    to DFT units of the decoded values.

    The FFT fills the result _CHUNK_FRAMES frames at a time, and each
    chunk is calibrated in place through a float view, so no part is
    multiplied by a complex number. A row's FFT does not depend on the
    rows beside it, so a frame has the same bits alone or in a stack.
    """
    p = cfg.decoder
    a = p.t_lin_min + p.slope * p.y_max
    dc = (cfg.charge_duration - a) * cfg.frame_size
    scale = 1.0 / p.slope
    out = np.empty(dur.shape, dtype=np.complex128)
    parts = out.view(np.float64)
    for lo in range(0, len(dur), _CHUNK_FRAMES):
        hi = lo + _CHUNK_FRAMES
        np.fft.fft(dur[lo:hi], axis=1, out=out[lo:hi])
        parts[lo:hi, 0] -= dc
        parts[lo:hi] *= scale
    return out


def sft_frame(times, cfg: SftConfig) -> Spectrum:
    """Transform one frame of spike times into a calibrated spectrum.

    times holds K in-window spike times, seconds from each window's
    start; silent windows must already be substituted (sft_stream uses
    the decoder's latest code time, i.e. the smallest value).
    """
    times = np.array(times, dtype=float)
    if times.shape != (cfg.frame_size,):
        raise ValueError(f"expected {cfg.frame_size} spike times, got {times.shape}")
    _check_times(times)
    coeff = _coefficients(_durations(times[None, :], cfg), cfg)[0]
    return Spectrum(coefficients=coeff, sample_period=cfg.sample_period)


def sft_stream(train: SpikeTrain, cfg: SftConfig, hop: int | None = None) -> Spectra:
    """Slice a spike train into frames and transform each.

    hop defaults to frame_size (back-to-back frames). Windows without
    a spike enter as the decoder's largest code time, clipped to the
    charge phase. The train must cover at least one frame, and its
    windows must last cfg.sample_period, which labels the bins.
    Frames are transformed by FFT, a chunk at a time, into one array.
    """
    k = cfg.frame_size
    if hop is None:
        hop = k
    if hop < 1:
        raise ValueError("hop must be at least 1")
    if len(train) < k:
        raise ValueError(f"train has {len(train)} windows, need at least {k}")
    period = train.config.sample_period
    if abs(period - cfg.sample_period) > _REL_EPS * cfg.sample_period:
        raise ValueError(
            f"train windows last {period:.6g} s but the S-FT labels bins "
            f"for sample_period {cfg.sample_period:.6g} s"
        )
    silent_time = min(cfg.decoder.t_lin_max, cfg.charge_duration)
    times = np.where(train.fired, train.bins * train.config.reader_period, silent_time)
    _check_times(times)
    frames = np.lib.stride_tricks.sliding_window_view(_durations(times, cfg), k)[::hop]
    return Spectra(_coefficients(frames, cfg), cfg.sample_period)


def _spectrum_tables(paths, coefficients: np.ndarray, sample_period: float) -> list:
    """write_tables tables of bin, physical frequency, re, im and
    magnitude, one per row of an (F, K) stack of coefficients, to the
    F paths. Every table holds the same bin and frequency arrays, so
    write_tables formats those once."""
    k = coefficients.shape[1]
    bins, freqs = np.arange(k), _bin_frequencies(k, sample_period)
    return [(path, "bin,freq_hz,re,im,mag\r\n", (bins, freqs, c.real, c.imag, m))
            for path, c, m in zip(paths, coefficients, np.abs(coefficients))]


def write_spectrum(spec: Spectrum, path: str) -> None:
    """CSV dump: bin, physical frequency, re, im, magnitude."""
    write_tables(_spectrum_tables([path], spec.coefficients[None], spec.sample_period))
