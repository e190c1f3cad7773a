"""Spiking Fourier transform over linearly phase-coded spike frames.

A frame of K windows carries K spike times, each a linear code for one
sample value. Two integrate-without-leak neurons per output bin (one
weighted +w, one -w, with w a row of DFT cosines or negative sines)
charge during the frame: a spike arriving at time t contributes
w * (T_charge - t), so earlier spikes (larger values) contribute more.
Because the code is affine in the value, each membrane ends up affine
in the DFT coefficient of the decoded samples, and the constant part
is carried by the weight-row sum, which vanishes for every bin except
DC. A readout phase then drives each neuron with a constant current
against a threshold, so its output spike time is again a linear code,
now for the membrane value. In this ideal model the readout returns
each membrane value exactly (the +/- pair difference is twice the +w
membrane), so sft_frame reads the +w membranes directly and the
readout length changes no value.

sft_frame returns the spectrum calibrated to plain DFT units of the
decoded sample values: subtract the row-sum term and divide by the
code slope. That makes it directly comparable to an FFT of ideally
sampled values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import List, Optional

import numpy as np

from ._rows import write_tables
from .codec import _REL_EPS, EncoderConfig, LinearDecoderParams, timing_summary
from .simulate import SpikeTrain

__all__ = [
    "SftConfig",
    "Spectrum",
    "dft_weights",
    "sft_frame",
    "sft_stream",
    "write_spectrum",
]


@dataclass(frozen=True)
class SftConfig:
    """Geometry of the transform.

    frame_size          K, windows per frame and output bins
    decoder             affine time code the frame was produced with
    charge_phase_steps  length of the charge phase, in ticks
    readout_phase_steps length of the readout phase, in ticks; the
                        ideal readout is exact, so it is validated
                        but changes no value
    tick                seconds per step (the reader period upstream)
    sample_period       window length T_S, used only to label bins
                        with physical frequencies k / (K * T_S)
    """

    frame_size: int
    decoder: LinearDecoderParams
    charge_phase_steps: int
    readout_phase_steps: int
    tick: float
    sample_period: float

    def __post_init__(self) -> None:
        if self.frame_size < 2:
            raise ValueError("frame_size must be at least 2")
        if self.charge_phase_steps < 1 or self.readout_phase_steps < 1:
            raise ValueError("phase lengths must be at least one step")
        if not (self.tick > 0 and self.sample_period > 0):
            raise ValueError("tick and sample_period must be positive")

    @classmethod
    def for_encoder(
        cls,
        enc: EncoderConfig,
        decoder: LinearDecoderParams,
        frame_size: int = 128,
        charge_phase_steps: Optional[int] = None,
        readout_phase_steps: Optional[int] = None,
    ) -> "SftConfig":
        """Derive phase geometry from an encoder: one charge phase per
        window, readout as long as the charge phase by default.

        A charge phase that ends before the slowest in-range spike
        would clip that spike's membrane to zero, so it is a
        ValueError. N ticks or more span the window, which the encoder
        already checked holds that spike.
        """
        charge = enc.resolution if charge_phase_steps is None else charge_phase_steps
        read = charge if readout_phase_steps is None else readout_phase_steps
        if charge < enc.resolution:
            t_max = timing_summary(enc).t_max
            if t_max > charge * enc.reader_period * (1 + _REL_EPS):
                raise ValueError(
                    f"charge phase of {charge} steps ({charge * enc.reader_period:.6g} s) "
                    f"ends before the slowest spike at {t_max:.6g} s"
                )
        return cls(
            frame_size=frame_size,
            decoder=decoder,
            charge_phase_steps=charge,
            readout_phase_steps=read,
            tick=enc.reader_period,
            sample_period=enc.sample_period,
        )

    @property
    def charge_duration(self) -> float:
        return self.charge_phase_steps * self.tick


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


def _bin_frequencies(k: int, sample_period: float) -> np.ndarray:
    """The physical frequency of each of K bins, k / (K * T_S)."""
    return np.arange(k) / (k * sample_period)


@lru_cache(maxsize=8)
def _weights_cached(k: int):
    """Cosine and negative-sine weights for K, and their complex row
    sums."""
    n = np.arange(k)
    ang = 2.0 * np.pi * np.outer(n, n) / k
    cos_w, sin_w = np.cos(ang), -np.sin(ang)
    return cos_w, sin_w, cos_w.sum(axis=1) + 1j * sin_w.sum(axis=1)


def dft_weights(frame_size: int):
    """Weight matrices (cosine, negative sine), each K x K.

    Row k against a sample vector gives the real resp. imaginary part
    of DFT coefficient k. Entries lie in [-1, 1]; row 0 of the cosine
    matrix is all ones and row sums of every other row vanish.
    """
    if frame_size < 2:
        raise ValueError("frame_size must be at least 2")
    cos_w, sin_w, _ = _weights_cached(int(frame_size))
    return cos_w.copy(), sin_w.copy()


# Frames per chunk in sft_stream. The chunk size is part of the output:
# a BLAS product's summation order can depend on its row count, and on
# OpenBLAS 1024-frame chunks change bins 120-126 of K = 127 against
# 64-frame ones, so changing it changes output files.
_CHUNK_FRAMES = 64


def _check_times(times: np.ndarray) -> None:
    if not np.all(np.isfinite(times)) or np.any(times < 0):
        raise ValueError("spike times must be finite and non-negative")


def _spike_times(bins: np.ndarray, reader_period: float, cfg: SftConfig) -> np.ndarray:
    """The spike time of each reader bin; a silent window (bin 0)
    enters as the decoder's largest code time, clipped to the charge
    phase."""
    silent_time = min(cfg.decoder.t_lin_max, cfg.charge_duration)
    times = np.where(bins > 0, bins * reader_period, silent_time)
    _check_times(times)
    return times


def _durations(times: np.ndarray, cfg: SftConfig) -> np.ndarray:
    """Overwrite spike times with their charge durations,
    max(T_charge - t, 0), and return the same array."""
    np.subtract(cfg.charge_duration, times, out=times)
    return np.clip(times, 0.0, None, out=times)


def _frame_coefficients(times: np.ndarray, cfg: SftConfig) -> np.ndarray:
    """Calibrated spectra of an (F, K) stack of spike times, which are
    overwritten with their durations. One product per frame, so a
    frame's bits do not depend on the frames next to it: one product
    over many frames sums in another order, and on OpenBLAS a 16-frame
    product differs from 16 one-frame products in every row at K = 24
    and K = 128. sft_stream keeps its products of _CHUNK_FRAMES frames."""
    out = np.empty(times.shape, dtype=np.complex128)
    _coefficients(_durations(times, cfg), cfg, out, 1)
    return out


def _coefficients(dur: np.ndarray, cfg: SftConfig, out: np.ndarray, rows: int) -> None:
    """Fill out, (F, K) complex, with the calibrated spectra of an
    (F, K) stack of charge durations, one product per rows frames.

    Each +w membrane charges w * (T_charge - t) per spike. With the
    affine code t = a - slope*y the membrane of bin k is
      v_k = (T_charge - a) * rowsum_k + slope * (W y)_k
    so strip the row-sum term (nonzero only near DC) and rescale to
    DFT units of the decoded values.

    Each block of rows frames is made contiguous, since a strided
    block would send the product off BLAS, and its real and imaginary
    parts are calibrated in one reused (2, rows, K) buffer before they
    are written to out. The two products stay separate, each against a
    (K, K) matrix: a product against one stacked (K, 2K) matrix sums
    in another order. Scaling both parts by 1 / slope gives the bits
    of dividing the complex membrane by slope, which numpy does by
    Smith's method as ((x + y*0) + (y - x*0)j) * (1 / slope); the two
    differ only where a part is -0.0, and no part is: every cosine
    row starts with weight 1 against a duration >= +0, and the + 0.0
    maps a -0.0 sine sum to +0.0 as 1j * (sine sum) does.
    """
    p = cfg.decoder
    cos_w, sin_w, rowsum = _weights_cached(cfg.frame_size)
    a = p.t_lin_min + p.slope * p.y_max
    shift = (cfg.charge_duration - a) * rowsum
    shift = np.stack([shift.real, shift.imag])[:, None, :]
    scale = 1.0 / p.slope
    buf = np.empty((2, min(rows, len(dur)), cfg.frame_size))
    for lo in range(0, len(dur), rows):
        d = np.ascontiguousarray(dur[lo : lo + rows])
        b = buf[:, : len(d)]
        np.matmul(d, cos_w.T, out=b[0])
        np.matmul(d, sin_w.T, out=b[1])
        b[1] += 0.0
        b -= shift
        b *= scale
        out.real[lo : lo + rows] = b[0]
        out.imag[lo : lo + rows] = b[1]


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
    coeff = _frame_coefficients(times[None, :], cfg)[0]
    return Spectrum(coefficients=coeff, sample_period=cfg.sample_period)


def sft_stream(train: SpikeTrain, cfg: SftConfig, hop: Optional[int] = None) -> List[Spectrum]:
    """Slice a spike train into frames and transform each.

    hop defaults to frame_size (back-to-back frames). Windows without
    a spike enter as the decoder's largest code time, clipped to the
    charge phase. The train must cover at least one frame, and its
    windows must last cfg.sample_period, which labels the bins.
    Frames are transformed a chunk at a time, as matrix products,
    into one (F, K) result; each Spectrum holds a row of it as a view,
    so holding any one Spectrum keeps the whole result alive.
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
    dur = _durations(_spike_times(train.bins, train.config.reader_period, cfg), cfg)
    frames = np.lib.stride_tricks.sliding_window_view(dur, k)[::hop]
    coeff = np.empty(frames.shape, dtype=np.complex128)
    _coefficients(frames, cfg, coeff, _CHUNK_FRAMES)
    return _spectra(coeff, cfg.sample_period)


_set_coefficients = Spectrum.coefficients.__set__
_set_sample_period = Spectrum.sample_period.__set__


def _spectra(coeff: np.ndarray, sample_period: float) -> List[Spectrum]:
    """One Spectrum per row of an (F, K) complex128 stack, each holding
    a view of its row. The stack is checked once for what Spectrum
    checks on each row, so the rows skip the constructor."""
    if coeff.ndim != 2 or coeff.shape[1] < 2 or coeff.dtype != np.complex128:
        raise ValueError("coefficients must be an (F, K) complex128 stack, K >= 2")
    spectra = list(map(object.__new__, repeat(Spectrum, len(coeff))))
    deque(map(_set_coefficients, spectra, coeff), maxlen=0)
    deque(map(_set_sample_period, spectra, repeat(sample_period)), maxlen=0)
    return spectra


def _spectrum_tables(paths, coefficients: np.ndarray, sample_period: float) -> list:
    """write_tables tables of bin, physical frequency, re, im and
    magnitude, one per row of an (F, K) stack of coefficients, to the
    F paths. Every row of every table starts with the same bin and
    frequency cells, so those are formatted once."""
    k = coefficients.shape[1]
    head = [f"{b},{f!r}," for b, f in enumerate(_bin_frequencies(k, sample_period).tolist())]
    mags = np.abs(coefficients)
    return [(path, "bin,freq_hz,re,im,mag\r\n", "{}{!r},{!r},{!r}\r\n", (head, c.real, c.imag, m))
            for path, c, m in zip(paths, coefficients, mags)]


def write_spectrum(spec: Spectrum, path: str) -> None:
    """CSV dump: bin, physical frequency, re, im, magnitude."""
    write_tables(_spectrum_tables([path], spec.coefficients[None], spec.sample_period))
