"""Closed-form time codec for a leaky integrate-and-fire encoder.

A constant input voltage charges an RC membrane from rest toward U_in.
The membrane crosses the threshold u_th after

    t_s = -tau * ln(1 - u_th / U_in)          (U_in > u_th)

so the crossing time is a monotone code for the voltage. Inputs at or
below threshold never cross; that outcome is a regular value here, not
an error. This module holds the encoder configuration, the exact
encode/decode pair, the fitted linear (affine) decoder used by the
spiking Fourier transform, and the timing summary that characterises a
configuration (slowest/fastest spike and their ratio).

All times are seconds, all voltages volt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "EncoderConfig",
    "LinearDecoderParams",
    "SpikeTime",
    "NO_SPIKE",
    "TimingSummary",
    "crossing_time",
    "encode_time",
    "decode_ideal",
    "encode_linear",
    "decode_linear",
    "timing_summary",
]

# Relative slack for float comparisons in config validation.
_REL_EPS = 1e-9


def _is_finite_number(value) -> bool:
    """True for a finite int or float from a parsed file, never a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)


@dataclass(frozen=True)
class SpikeTime:
    """Outcome of encoding one voltage: a crossing time, or no crossing.

    ``time`` is math.inf when the neuron never fires. Use ``fired`` to
    branch; arithmetic on a non-fired time is almost always a bug.
    """

    time: float
    fired: bool = True

    @classmethod
    def none(cls) -> "SpikeTime":
        return cls(time=math.inf, fired=False)


NO_SPIKE = SpikeTime.none()


@dataclass(frozen=True)
class EncoderConfig:
    """Static parameters of one encoder channel.

    tau           membrane time constant
    u_th          firing threshold, > 0
    u_min, u_max  working input range, u_th < u_min < u_max
    sample_period window length T_S (one voltage is encoded per window)
    reader_period readout resolution T_N; T_S must be an integer
                  multiple of T_N
    u_rest        reset/rest potential; the closed-form crossing time
                  charges from 0 V, so any other value is refused
    """

    tau: float
    u_th: float
    u_min: float
    u_max: float
    sample_period: float
    reader_period: float
    u_rest: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.u_rest != 0:
            raise ValueError(f"u_rest must be 0 V, where the closed-form crossing time "
                             f"starts charging, got {self.u_rest!r}")
        if not (self.tau > 0):
            raise ValueError("tau must be positive")
        if not (0 < self.u_th < self.u_min < self.u_max):
            raise ValueError("need 0 < u_th < u_min < u_max")
        if not (0 < self.reader_period <= self.sample_period):
            raise ValueError("need 0 < reader_period <= sample_period")
        ratio = self.sample_period / self.reader_period
        # Past 0.5 / _REL_EPS bins the slack below admits any ratio.
        if ratio > 0.5 / _REL_EPS:
            raise ValueError(
                f"sample_period / reader_period = {ratio:.6g} is more bins than "
                f"the integer-multiple check can tell ({0.5 / _REL_EPS:.6g} at most)"
            )
        n = round(ratio)
        if n < 1 or abs(ratio - n) > _REL_EPS * n:
            raise ValueError(
                "sample_period must be an integer multiple of reader_period"
            )
        # The slowest spike (at u_min) has to land inside one window,
        # otherwise the working range cannot be read back at all; the
        # fastest (at u_max) has to leave t = 0, where no bin reads it.
        t_fast, t_slow = crossing_time([self.u_max, self.u_min], self.u_th, self.tau).tolist()
        if t_slow > self.sample_period * (1 + _REL_EPS):
            raise ValueError(
                "slowest spike exceeds sample_period: "
                f"encode_time(u_min) = {t_slow:.6g} s > T_S = {self.sample_period:.6g} s"
            )
        if not t_fast > 0:
            raise ValueError(f"fastest spike underflows: crossing_time(u_max = {self.u_max:.6g} V) "
                             f"= {t_fast!r} s, not > 0")

    @property
    def resolution(self) -> int:
        """Number of reader bins per window, N = T_S / T_N."""
        return round(self.sample_period / self.reader_period)


@dataclass(frozen=True)
class LinearDecoderParams:
    """Affine map between spike times and decoded values.

    Encoding direction: y in [y_min, y_max] maps linearly onto
    [t_lin_min, t_lin_max] with the largest y getting the earliest
    time (big inputs fire first, matching the physical encoder).
    """

    t_lin_min: float
    t_lin_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.t_lin_max > self.t_lin_min):
            raise ValueError("need t_lin_max > t_lin_min")
        if not (self.y_max > self.y_min):
            raise ValueError("need y_max > y_min")

    @property
    def slope(self) -> float:
        """Seconds of spike-time span per volt of value span."""
        return (self.t_lin_max - self.t_lin_min) / (self.y_max - self.y_min)


class TimingSummary:
    """Derived timing figures of a configuration.

    t_min   fastest spike, encode_time(u_max)
    t_max   slowest spike, encode_time(u_min)
    t_wait  dead time before the fastest spike can occur (= t_min)
    t_spk   usable span of spike times, t_max - t_min
    mu      t_spk / t_wait, a tau-free figure of merit: how much of the
            window carries information relative to the forced wait
    """

    __slots__ = ("t_min", "t_max", "t_wait", "t_spk", "mu")

    def __init__(self, t_min: float, t_max: float) -> None:
        self.t_min = t_min
        self.t_max = t_max
        self.t_wait = t_min
        self.t_spk = t_max - t_min
        self.mu = self.t_spk / self.t_wait

    def __repr__(self) -> str:
        return (
            f"TimingSummary(t_min={self.t_min:.6g}, t_max={self.t_max:.6g}, "
            f"mu={self.mu:.4g})"
        )


def crossing_time(u, threshold, tau):
    """t = -tau * ln(1 - threshold / u), the time a membrane charging from
    rest toward u takes to cross threshold: the package's one closed form.

    inf where u <= threshold, NaN included. u and threshold broadcast; a
    scalar pair gives a float, as decode_ideal, its inverse, does.
    """
    u = np.asarray(u, dtype=float)
    crossed = u > threshold
    # ln(1 + x) keeps its precision for tiny threshold / u, and dividing
    # by inf where nothing crosses keeps it free of warnings.
    t = np.where(crossed, -tau * np.log1p(-threshold / np.where(crossed, u, np.inf)), np.inf)
    return float(t) if t.ndim == 0 else t


def encode_time(u_in: float, cfg: EncoderConfig) -> SpikeTime:
    """Exact threshold-crossing time for a constant input voltage.

    Returns NO_SPIKE for u_in <= u_th (the membrane saturates below
    threshold). Negative or zero inputs are likewise no-spike, NaN an error.
    """
    if math.isnan(u_in):
        raise ValueError("u_in is NaN, which has no crossing time")
    t = crossing_time(u_in, cfg.u_th, cfg.tau)
    return SpikeTime(t) if t < math.inf else NO_SPIKE


def decode_ideal(t_s, cfg: EncoderConfig):
    """Invert encode_time: the voltage whose crossing time is t_s.

    Exact inverse of the closed form, so decode_ideal(encode_time(u))
    recovers u to float precision. Accepts scalars or arrays; every
    time must be positive and finite.
    """
    t = np.asarray(t_s, dtype=float)
    if not np.all((t > 0) & np.isfinite(t)):
        raise ValueError("t_s must be a positive finite time")
    u = cfg.u_th / -np.expm1(-t / cfg.tau)
    return float(u) if u.ndim == 0 else u


def encode_linear(y, p: LinearDecoderParams):
    """Map values onto spike times with the affine code.

    Accepts scalars or arrays. Values are not clipped; out-of-range y
    extrapolates, which is intentional (the fitted decoder is applied
    to whatever the circuit produced).
    """
    y = np.asarray(y, dtype=float)
    t = p.t_lin_min + p.slope * (p.y_max - y)
    return float(t) if t.ndim == 0 else t


def decode_linear(t, p: LinearDecoderParams):
    """Inverse of encode_linear: spike times back to values."""
    t = np.asarray(t, dtype=float)
    y = p.y_max - (t - p.t_lin_min) / p.slope
    return float(y) if y.ndim == 0 else y


def timing_summary(cfg: EncoderConfig) -> TimingSummary:
    """Timing envelope of the working range.

    The largest voltage fires first, so t_min comes from u_max and
    t_max from u_min. mu = t_spk / t_wait depends only on the three
    voltages (tau cancels) and grows with u_th: a higher threshold
    spreads the code over more of the window.
    """
    t_min, t_max = crossing_time([cfg.u_max, cfg.u_min], cfg.u_th, cfg.tau).tolist()
    return TimingSummary(t_min, t_max)
