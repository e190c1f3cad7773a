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
    "Spectrum",
    "sft_frame",
    "sft_stream",
    "write_spectrum",
]


@dataclass(frozen=True)
class SftConfig:
    """Geometry of the transform.

    encoder     the encoder whose windows the transform reads: its
                window T_S labels the bins with physical frequencies
                k / (K * T_S), and the charge phase lasts the N reader
                ticks of one window
    decoder     affine time code the frame was produced with; a silent
                window enters at its t_lin_max, so that must be >= 0
    frame_size  K, windows per frame and output bins
    """

    encoder: EncoderConfig
    decoder: LinearDecoderParams
    frame_size: int = 128

    def __post_init__(self) -> None:
        if self.frame_size < 2:
            raise ValueError("frame_size must be at least 2")
        if not self.decoder.t_lin_max >= 0:
            raise ValueError(f"need decoder t_lin_max >= 0, got {self.decoder.t_lin_max!r} s: "
                             "silent windows enter the S-FT at that time")

    @classmethod
    def for_encoder(
        cls,
        enc: EncoderConfig,
        decoder: LinearDecoderParams,
        frame_size: int = 128,
    ) -> "SftConfig":
        """The S-FT of enc's windows; the same as SftConfig(enc,
        decoder, frame_size)."""
        return cls(enc, decoder, frame_size)


def _charge_duration(cfg: SftConfig) -> float:
    """The charge phase: the N whole reader ticks of one window, N * T_N."""
    return cfg.encoder.resolution * cfg.encoder.reader_period


@dataclass(frozen=True, slots=True)
class Spectrum:
    """Complex coefficients in DFT units of the decoded values: K bins
    of one frame, or (F, K) for F frames. len is the first axis; an
    index into F frames gives the Spectrum of those rows, a view that
    keeps the array alive."""

    coefficients: np.ndarray
    sample_period: float

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "coefficients", c)
        if c.ndim not in (1, 2) or c.shape[-1] < 2:
            raise ValueError("coefficients must be a 1-d or 2-d array of at least 2 bins")

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, index) -> "Spectrum":
        return Spectrum(self.coefficients[index], self.sample_period)

    def magnitude(self) -> np.ndarray:
        return np.abs(self.coefficients)


def _bin_frequencies(k: int, sample_period: float) -> np.ndarray:
    """The physical frequency of each of K bins, k / (K * T_S)."""
    return np.arange(k) / (k * sample_period)


# Frames per FFT call in sft_stream. Each call costs about 10 us of
# Python, and at hop < K a chunk's windows are cast to complex once for
# all its frames, so larger chunks pay off until the chunk's buffer
# leaves cache; each chunk is calibrated while it is in cache. Any chunk
# size gives the same bits.
_CHUNK_FRAMES = 256


def _durations(times: np.ndarray, cfg: SftConfig) -> np.ndarray:
    """Overwrite spike times with their charge durations,
    max(T_charge - t, 0), and return the same array."""
    np.subtract(_charge_duration(cfg), times, out=times)
    return np.clip(times, 0.0, None, out=times)


def _coefficients(dur: np.ndarray, cfg: SftConfig, hop: int) -> np.ndarray:
    """Calibrated spectra, (F, K) complex, of the frames of K windows
    that start every hop windows of a 1-D array of charge durations.

    Each +w membrane charges w * (T_charge - t) per spike, and the
    weight rows are DFT rows, so a frame's membranes are the DFT of its
    durations. With the affine code t = a - slope*y, and every weight
    row but row 0 summing to zero, the membrane of bin k is
      v_k = (T_charge - a) * K * [k == 0] + slope * DFT(y)_k
    so subtract the constant from the real part of bin 0 and rescale
    to DFT units of the decoded values.

    The FFT fills the result _CHUNK_FRAMES frames at a time. Each chunk
    is cast to complex into one buffer, which a strided view, built
    once, reads as the chunk's frames. At hop < K the buffer holds the
    chunk's windows, so a window in several frames is cast once, not
    once per frame; at hop >= K no window is in two frames, and the
    frames are cast as they stand. Either way the buffer holds at most
    one chunk of frames. Each chunk is calibrated in place through a
    float view, so no part is multiplied by a complex number. A row's
    FFT does not depend on the rows beside it, so a frame has the same
    bits alone or in a stack.
    """
    p, k = cfg.decoder, cfg.frame_size
    a = p.t_lin_min + p.slope * p.y_max
    dc = (_charge_duration(cfg) - a) * k
    scale = 1.0 / p.slope
    frames = (len(dur) - k) // hop + 1
    chunk, step = min(_CHUNK_FRAMES, frames), min(hop, k)
    buf = np.empty((chunk - 1) * step + k, dtype=np.complex128)
    view = np.lib.stride_tricks.as_strided(buf, (chunk, k), (step * buf.itemsize, buf.itemsize))
    apart = np.lib.stride_tricks.sliding_window_view(dur, k)[::hop] if hop > k else None
    out = np.empty((frames, k), dtype=np.complex128)
    parts = out.view(np.float64)
    for lo in range(0, frames, chunk):
        n = min(chunk, frames - lo)
        if apart is None:
            buf[: (n - 1) * hop + k] = dur[lo * hop : (lo + n - 1) * hop + k]
        else:
            view[:n] = apart[lo : lo + n]
        np.fft.fft(view[:n], axis=1, out=out[lo : lo + n])
        parts[lo : lo + n, 0] -= dc
        parts[lo : lo + n] *= scale
    return out


def sft_frame(times, cfg: SftConfig) -> Spectrum:
    """Transform one frame of spike times into a calibrated spectrum.

    times holds K in-window spike times, seconds from each window's
    start, each finite and >= 0; silent windows must already be
    substituted (sft_stream uses the decoder's latest code time, i.e.
    the smallest value). Times past the charge phase of cfg.encoder's
    window charge for no time.
    """
    times = np.array(times, dtype=float)
    if times.shape != (cfg.frame_size,):
        raise ValueError(f"expected {cfg.frame_size} spike times, got {times.shape}")
    if not np.all(np.isfinite(times)) or np.any(times < 0):
        raise ValueError("spike times must be finite and non-negative")
    coeff = _coefficients(_durations(times, cfg), cfg, cfg.frame_size)[0]
    return Spectrum(coefficients=coeff, sample_period=cfg.encoder.sample_period)


def sft_stream(train: SpikeTrain, cfg: SftConfig, hop: int | None = None) -> Spectrum:
    """Slice a spike train into frames and transform each.

    hop defaults to frame_size (back-to-back frames). Windows without
    a spike enter as the decoder's largest code time, clipped to the
    charge phase. The train must cover at least one frame, and its
    windows must last the window T_S of cfg.encoder, which labels the
    bins; its reader period may differ.
    Frames are transformed by FFT, _CHUNK_FRAMES at a time, into the (F, K)
    coefficients of one Spectrum; each chunk's windows are cast to
    complex once, however many of its frames share them.
    """
    k = cfg.frame_size
    if hop is None:
        hop = k
    if hop < 1:
        raise ValueError("hop must be at least 1")
    if len(train) < k:
        raise ValueError(f"train has {len(train)} windows, need at least {k}")
    period, own = train.config.sample_period, cfg.encoder.sample_period
    if abs(period - own) > _REL_EPS * own:
        raise ValueError(
            f"train windows last {period:.6g} s but the S-FT labels bins "
            f"for sample_period {own:.6g} s"
        )
    silent_time = min(cfg.decoder.t_lin_max, _charge_duration(cfg))
    times = np.where(train.fired, train.bins * train.config.reader_period, silent_time)
    return Spectrum(_coefficients(_durations(times, cfg), cfg, hop), own)


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
