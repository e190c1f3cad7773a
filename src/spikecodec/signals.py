"""Test signals and the ideal-converter reference spectrum.

The biased sine u(t) = A sin(2 pi nu t) + B is the workhorse input: B
keeps the waveform inside the encoder's working range and A sets how
much of the range is exercised. ideal_adc_fft plays the role of a
perfect sampler feeding an FFT, the yardstick the spiking transform is
measured against; it samples at exactly the instants the encoder holds
its input, so the two pipelines see identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import _REL_EPS
from .sft import Spectrum
from .simulate import AnalogSignal

__all__ = [
    "SineSpec",
    "sine",
    "constant",
    "ideal_adc_fft",
]


@dataclass(frozen=True)
class SineSpec:
    """Amplitude, frequency and offset of a biased sine.

    The offset must be at least the amplitude so the signal never goes
    negative; the encoder has no code for negative voltages.
    """

    amplitude: float
    frequency: float
    offset: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")
        if self.offset < self.amplitude:
            raise ValueError("offset must be >= amplitude (signal would go negative)")
        if not math.isfinite(self.offset + self.amplitude):
            raise ValueError(f"offset + amplitude, the peak voltage, must be finite, got "
                             f"{self.offset!r} + {self.amplitude!r}")


def sine(spec: SineSpec, duration: float) -> AnalogSignal:
    """Biased sine of the given duration, phase zero at t = 0. Its
    phase 2 pi nu t must stay finite over the whole duration."""
    two_pi_nu = 2.0 * np.pi * spec.frequency

    def f(t):
        return spec.amplitude * np.sin(two_pi_nu * t) + spec.offset

    sig = AnalogSignal(func=f, duration=duration)
    if not math.isfinite(two_pi_nu * duration):
        raise ValueError(f"frequency {spec.frequency!r} Hz over {duration!r} s overflows "
                         "the sine's phase 2*pi*nu*t")
    return sig


def constant(level: float, duration: float) -> AnalogSignal:
    """Constant voltage, used for static sweeps."""
    if level < 0:
        raise ValueError("level must be >= 0")

    def f(t):
        return np.full_like(np.asarray(t, dtype=float), level)

    return AnalogSignal(func=f, duration=duration)


def ideal_adc_fft(sig: AnalogSignal, sample_period: float, frame_size: int) -> Spectrum:
    """Spectrum of one frame sampled by a perfect converter.

    Samples sig at m * sample_period for m = 0..frame_size-1 (the
    same instants a sample-and-hold encoder grabs) and returns the
    plain DFT, computed one-sided by np.fft.rfft as the S-FT's is. The
    frame must fit inside the signal.
    """
    if frame_size < 2:
        raise ValueError("frame_size must be at least 2")
    if sample_period <= 0:
        raise ValueError("sample_period must be positive")
    span = (frame_size - 1) * sample_period
    if span > sig.duration * (1 + _REL_EPS):
        raise ValueError("frame does not fit inside the signal")
    t = np.arange(frame_size) * sample_period
    samples = np.asarray(sig(t), dtype=float)
    return Spectrum(np.fft.rfft(samples), frame_size, sample_period)
