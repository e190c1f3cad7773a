"""Independent references for the benchmark's output checks.

Nothing here imports spikecodec. Each function restates the documented
model with plain numpy, so a check never runs the code path it judges.
The reader rule (ceil of t / T_N, a crossing within 1e-9 relative of a
tick counts as that tick, bin 0 for no crossing inside the window) is
the one the simulate module documents; restating it exactly keeps the
bin comparisons exact rather than off by one at tick boundaries.
"""

from __future__ import annotations

import numpy as np

TICK_SNAP = 1e-9


def biased_sine(amplitude: float, frequency: float, offset: float, windows: int,
                sample_period: float) -> np.ndarray:
    """Voltages held at each window start m * T_S."""
    t = np.arange(windows) * sample_period
    return amplitude * np.sin(2.0 * np.pi * frequency * t) + offset


def crossing_times(u, threshold, tau: float) -> np.ndarray:
    """Closed-form LIF crossing times; inf where u never reaches threshold."""
    u = np.asarray(u, dtype=float)
    threshold = np.broadcast_to(np.asarray(threshold, dtype=float), u.shape)
    out = np.full(u.shape, np.inf)
    fires = u > threshold
    out[fires] = -tau * np.log1p(-threshold[fires] / u[fires])
    return out


def reader_bins(u, threshold, tau: float, reader_period: float, resolution: int) -> np.ndarray:
    """Bin index 1..N of each window's crossing, 0 for silence."""
    t = crossing_times(u, threshold, tau)
    crossed = np.isfinite(t)
    ticks = np.where(crossed, t, 0.0) / reader_period
    near = np.rint(ticks)
    exact = np.abs(ticks - near) <= TICK_SNAP * np.maximum(near, 1.0)
    k = np.where(exact, near, np.ceil(ticks))
    return np.where(crossed & (k >= 1) & (k <= resolution), k, 0).astype(np.int64)


def window_offsets(rng_seed: int, delta_u: float, windows) -> np.ndarray:
    """Per-window thermal offsets: window m draws U[0, delta_u) from a
    generator seeded with (rng_seed, m)."""
    return np.array([np.random.default_rng([rng_seed, int(m)]).uniform(0.0, delta_u)
                     for m in windows])


def ideal_voltage(t, u_th: float, tau: float) -> np.ndarray:
    """Exact inverse of the crossing time."""
    return u_th / -np.expm1(-np.asarray(t, dtype=float) / tau)


def endpoint_times(u_th: float, tau: float, u_min: float, u_max: float):
    """Fastest and slowest spike of the working range (k1 = k2 = 0)."""
    t_min = -tau * np.log1p(-u_th / u_max)
    t_max = -tau * np.log1p(-u_th / u_min)
    return float(t_min), float(t_max)


def linear_values(t, t_lin_min: float, t_lin_max: float, y_min: float, y_max: float):
    """Affine read-back of spike times onto [y_min, y_max]."""
    slope = (t_lin_max - t_lin_min) / (y_max - y_min)
    return y_max - (np.asarray(t, dtype=float) - t_lin_min) / slope


def eps_lin(u_th: float, tau: float, u_min: float, u_max: float, t_lin_min: float,
            t_lin_max: float, points: int = 1024) -> float:
    """Trapezoid integral of |y - affine(f(y))| over the working range."""
    y = np.linspace(u_min, u_max, points)
    err = np.abs(y - linear_values(-tau * np.log1p(-u_th / y), t_lin_min, t_lin_max, u_min, u_max))
    return float(np.sum(0.5 * (err[1:] + err[:-1]) * np.diff(y)))


def frames(values: np.ndarray, size: int, hop: int) -> np.ndarray:
    """Frames of `size` consecutive values every `hop` values, as rows."""
    return np.lib.stride_tricks.sliding_window_view(values, size)[::hop]


def sft_deviation(coeff: np.ndarray, values: np.ndarray):
    """Per-frame deviation of S-FT rows from the DFT of `values` rows,
    and the fitted scale.

    DC is left out and the DFT is scale-fitted by least squares, then the
    worst absolute residual is divided by the largest DFT magnitude: the
    measure the acceptance suite bounds by 1e-6. A calibrated transform
    has a scale of 1.
    """
    ref = np.fft.fft(values, axis=1)[:, 1:]
    got = coeff[:, 1:]
    scale = np.sum(ref.conj() * got, axis=1) / np.sum(np.abs(ref) ** 2, axis=1)
    resid = np.abs(got - scale[:, None] * ref).max(axis=1)
    return resid / np.abs(ref).max(axis=1), scale


def magnitude_rmse(coeff: np.ndarray, held_frames: np.ndarray) -> np.ndarray:
    """Per-frame RMS of |S-FT| minus |FFT| of the ideally sampled frame."""
    diff = np.abs(coeff) - np.abs(np.fft.fft(held_frames, axis=1))
    return np.sqrt(np.mean(diff**2, axis=1))
