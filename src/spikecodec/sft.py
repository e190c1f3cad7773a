"""Spiking Fourier transform over linearly phase-coded spike frames.

A frame of K windows carries K spike times, each a linear code for one
sample value. Two integrate-without-leak neurons per output bin (one
weighted +w, one -w, with w a row of DFT cosines or negative sines)
charge during the frame: a spike arriving at time t contributes
w * (T_charge - t), so earlier spikes (larger values) contribute more.
The +w membranes of the K bins are thus the DFT of the frame's charge
durations, which the model computes with np.fft.rfft: the durations are
real, so bin K - k is the conjugate of bin k, and only bins 0..K/2 are
computed and held. Because the code
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

from ._atomic import write_files
from ._rows import table_files
from .codec import _REL_EPS, EncoderConfig, LinearDecoderParams
from .simulate import _is_non_negative_int, SpikeTrain

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
        if not (_is_non_negative_int(self.frame_size) and self.frame_size >= 2):
            raise ValueError(f"frame_size must be an integer of at least 2, got {self.frame_size!r}")
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
    """Complex coefficients in DFT units of the decoded values, of one
    frame of K windows or of F frames. The frames are real, so bin
    K - k is the conjugate of bin k, and a Spectrum holds one side:
    half is the (K//2 + 1,) bins of non-negative frequency of a frame,
    or (F, K//2 + 1) for F frames, as np.fft.rfft lays them out.

    coefficients rebuilds all K bins, (K,) or (F, K), into a new array
    on each read; keep the array rather than read it per row. len is
    the first axis of coefficients; an index into F frames gives the
    Spectrum of those rows, a view that keeps the array alive. One
    frame has no frames to index."""

    half: np.ndarray
    frame_size: int
    sample_period: float

    def __post_init__(self) -> None:
        h = np.asarray(self.half, dtype=complex)
        object.__setattr__(self, "half", h)
        k = self.frame_size
        if not (isinstance(k, (int, np.integer)) and k >= 2 and h.ndim in (1, 2)
                and h.shape[-1] == k // 2 + 1):
            raise ValueError("half must be a 1-d or 2-d array of frame_size // 2 + 1 bins, frame_size "
                             f"an integer of at least 2; got shape {h.shape} and frame_size {k!r}")

    @property
    def coefficients(self) -> np.ndarray:
        return _two_sided(self.half, self.frame_size)

    def __len__(self) -> int:
        return len(self.half) if self.half.ndim == 2 else self.frame_size

    def __getitem__(self, index) -> "Spectrum":
        return Spectrum(self.half[index], self.frame_size, self.sample_period)

    def magnitude(self) -> np.ndarray:
        return _two_sided(np.abs(self.half), self.frame_size)


def _two_sided(half: np.ndarray, k: int) -> np.ndarray:
    """All K bins of a real frame's spectrum, in a new array, from the
    bins 0..K//2 on half's last axis: bin K - k is the conjugate of bin
    k, so each appears bit for bit. A real half (magnitudes) mirrors
    as it stands."""
    n = half.shape[-1]
    out = np.empty((*half.shape[:-1], k), dtype=half.dtype)
    out[..., :n] = half
    np.conjugate(half[..., k - n : 0 : -1], out=out[..., n:])
    return out


def _spectrum_rmse(measured: np.ndarray, reference: np.ndarray, k: int):
    """RMS magnitude and complex error over all K bins of each row of
    an (F, K//2 + 1) stack of one-sided measured spectra against its
    reference row, as two (F,) arrays. Bins 1..(K-1)//2 stand for
    their mirrors too, whose errors are their conjugates, so they are
    summed twice. A bin's magnitude error ||m| - |r|| is at most its
    complex error |m - r|, and is capped there, so that rounding cannot
    give rmse_mag > rmse_complex."""
    with np.errstate(over="ignore"):
        err = np.abs(measured - reference)
        errs = (np.minimum(np.abs(np.abs(measured) - np.abs(reference)), err), err)
        rmse_mag, rmse_cplx = (np.sqrt((sq.sum(axis=1) + sq[:, 1 : (k + 1) // 2].sum(axis=1)) / k)
                               for sq in (e**2 for e in errs))
    bad = ~(np.isfinite(rmse_mag) & np.isfinite(rmse_cplx))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"spectrum error rmse_mag is {float(rmse_mag[i])!r} and rmse_complex is "
                         f"{float(rmse_cplx[i])!r}: the S-FT is too far from the ideal converter "
                         "to square its error")
    return rmse_mag, rmse_cplx


def _bin_frequencies(k: int, sample_period: float) -> np.ndarray:
    """The physical frequency of each of K bins, k / (K * T_S)."""
    return np.arange(k) / (k * sample_period)


def _durations(times: np.ndarray, cfg: SftConfig) -> np.ndarray:
    """Overwrite spike times with their charge durations,
    max(T_charge - t, 0), and return the same array."""
    np.subtract(_charge_duration(cfg), times, out=times)
    return np.clip(times, 0.0, None, out=times)


def _coefficients(dur: np.ndarray, cfg: SftConfig, hop: int) -> np.ndarray:
    """Calibrated one-sided spectra, (F, K//2 + 1) complex, of the
    frames of K windows that start every hop windows of a 1-D array of
    charge durations.

    Each +w membrane charges w * (T_charge - t) per spike, and the
    weight rows are DFT rows, so a frame's membranes are the DFT of its
    durations. With the affine code t = a - slope*y, and every weight
    row but row 0 summing to zero, the membrane of bin k is
      v_k = (T_charge - a) * K * [k == 0] + slope * DFT(y)_k
    so subtract the constant from the real part of bin 0 and rescale
    to DFT units of the decoded values.

    The durations are real, so one np.fft.rfft call computes bins
    0..K//2 of every frame, reading the frames as a view of the
    durations, with no copy or cast of its own. The result is
    calibrated in place through a float view, so no part is multiplied
    by a complex number. A row's FFT does not depend on the rows beside
    it, so a frame has the same bits alone or in a stack.
    """
    p, k = cfg.decoder, cfg.frame_size
    a = p.t_lin_min + p.slope * p.y_max
    frames = np.lib.stride_tricks.sliding_window_view(dur, k)[::hop]
    out = np.fft.rfft(frames, axis=1)
    parts = out.view(np.float64)
    parts[:, 0] -= (_charge_duration(cfg) - a) * k
    parts *= 1.0 / p.slope
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
    half = _coefficients(_durations(times, cfg), cfg, cfg.frame_size)[0]
    return Spectrum(half, cfg.frame_size, cfg.encoder.sample_period)


def sft_stream(train: SpikeTrain, cfg: SftConfig, hop: int | None = None) -> Spectrum:
    """Slice a spike train into frames and transform each.

    hop defaults to frame_size (back-to-back frames). Windows without
    a spike enter as the decoder's largest code time, clipped to the
    charge phase. The train must cover at least one frame, and its
    windows must last the window T_S of cfg.encoder, which labels the
    bins; its reader period may differ.
    All frames are transformed by one real FFT call into the
    (F, K//2 + 1) half of one Spectrum; the mirrored bins are built
    only when its coefficients are read.
    """
    k = cfg.frame_size
    if hop is None:
        hop = k
    if not (_is_non_negative_int(hop) and hop >= 1):
        raise ValueError(f"hop must be an integer of at least 1, got {hop!r}")
    if len(train) < k:
        raise ValueError(f"train has {len(train)} windows, need at least {k}")
    period, own = train.config.sample_period, cfg.encoder.sample_period
    if abs(period - own) > _REL_EPS * own:
        raise ValueError(
            f"train windows last {period:.6g} s but the S-FT labels bins "
            f"for sample_period {own:.6g} s"
        )
    silent_time = min(cfg.decoder.t_lin_max, _charge_duration(cfg))
    times = train.bins * train.config.reader_period
    times[~train.fired] = silent_time
    return Spectrum(_coefficients(_durations(times, cfg), cfg, hop), k, own)


def _spectrum_tables(paths, coefficients: np.ndarray, sample_period: float) -> list:
    """_rows.table_files tables of bin, physical frequency, re, im and
    magnitude, one per row of an (F, K) stack of coefficients, to the
    F paths. Every table holds the same bin and frequency arrays, so
    table_files formats those once."""
    if len(paths) != len(coefficients):
        raise ValueError(f"{len(paths)} spectrum paths for {len(coefficients)} rows of coefficients")
    k = coefficients.shape[1]
    bins, freqs = np.arange(k), _bin_frequencies(k, sample_period)
    return [(path, "bin,freq_hz,re,im,mag\r\n", (bins, freqs, c.real, c.imag, m))
            for path, c, m in zip(paths, coefficients, np.abs(coefficients))]


def write_spectrum(spec: Spectrum, path: str) -> None:
    """CSV dump of one frame's spectrum: bin, physical frequency, re,
    im, magnitude."""
    if spec.half.ndim != 1:
        raise ValueError(f"write_spectrum writes one frame's spectrum, got a stream of {len(spec)} frames")
    write_files(table_files(_spectrum_tables([path], spec.coefficients[None], spec.sample_period)))
