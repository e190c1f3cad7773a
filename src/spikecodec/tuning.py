"""Fitting the linear decoder to the nonlinear time code.

The exact code t = f(y) is logarithmic, so reading it back with an
affine decoder leaves a shape error. The fit stretches the endpoint
time span by factors (1 + k1), (1 + k2) and chooses (k1, k2) to
minimise eps_lin, which integrates |y - decode_linear(f(y))| over the
working range (trapezoid quadrature). Each fit also reports the
encoder's mu = t_spk / t_wait (codec.timing_summary), which rewards
configurations that spend more of the window on the informative part
of the code; the encoder alone fixes mu, so it never moves the fit.

The trapezoid sum sum_i w_i |y_i - A - B t_i| is a weighted L1 line
fit: convex and piecewise linear in (A, B), with the (k1, k2) box as
linear constraints (Barrodale & Roberts, SIAM J. Numer. Anal. 10(5),
1973). Written over the decoder's time offset c = t_lin_min and span
T = t_lin_max - t_lin_min, the best c for a fixed T is a weighted
median, and the remaining minimum is convex in the slope 1/T, so a
golden-section search over T solves the fit without any randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, fields
from typing import Optional, Tuple

import numpy as np

from ._atomic import read_json, write_json
from .codec import (
    _is_finite_number,
    EncoderConfig,
    LinearDecoderParams,
    crossing_time,
    decode_linear,
    timing_summary,
)

__all__ = [
    "TunerConfig",
    "linear_error",
    "TuningResult",
    "fit_linear_decoder",
    "write_tuning",
    "read_decoder",
]

# Golden-section steps over the span T. Each shrinks the bracket by
# 0.618, so 80 steps take it below float resolution of the span.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SEARCH_STEPS = 80


@dataclass(frozen=True)
class TunerConfig:
    """Stretch bounds and quadrature size of the fit.

    generations is accepted and ignored, so configs written for the
    earlier evolutionary search still load.
    """

    k1_bounds: Tuple[float, float] = (-1.0, 2.0)
    k2_bounds: Tuple[float, float] = (-1.0, 2.0)
    grid_points: int = 1024
    generations: Optional[int] = None

    def __post_init__(self) -> None:
        for name, (lo, hi) in (("k1_bounds", self.k1_bounds), ("k2_bounds", self.k2_bounds)):
            if lo < -1:
                raise ValueError(f"{name}: stretch factors below -1 invert the code")
            if not (math.isfinite(hi) and hi > lo):
                raise ValueError(f"{name}: need finite upper > lower")
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")


def _code_grid(cfg: EncoderConfig, grid_points: int):
    """Quadrature nodes y over [u_min, u_max] and their exact spike times."""
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    y = np.linspace(cfg.u_min, cfg.u_max, grid_points)
    return y, crossing_time(y, cfg.u_th, cfg.tau)


def linear_error(cfg: EncoderConfig, p: LinearDecoderParams,
                 grid_points: int = TunerConfig.grid_points) -> float:
    """Integrated absolute decode error of the affine read-back.

    Encodes a dense grid over [u_min, u_max] with the exact code and
    integrates |y - decode_linear(f(y))| dy by the trapezoid rule.
    tau cancels: both f and the fitted time span scale with it.
    """
    y, t = _code_grid(cfg, grid_points)
    return float(np.trapezoid(np.abs(y - decode_linear(t, p)), y))


@dataclass(frozen=True)
class TuningResult:
    """Fitted decoder plus the figures the fit was judged by."""

    params: LinearDecoderParams
    k1: float
    k2: float
    eps_lin: float
    mu: float


def _params_from_k(k: np.ndarray, ts, cfg: EncoderConfig) -> Optional[LinearDecoderParams]:
    t_lo = ts.t_min * (1.0 + k[0])
    t_hi = ts.t_max * (1.0 + k[1])
    if not t_hi > t_lo:
        return None
    return LinearDecoderParams(t_lin_min=t_lo, t_lin_max=t_hi, y_min=cfg.u_min, y_max=cfg.u_max)


def _solve_offset_span(cfg: EncoderConfig, tuner: TunerConfig, t_min: float, t_max: float):
    """Minimise eps_lin over (c, T) = (t_lin_min, t_lin_max - t_lin_min).

    The box puts c in [lo1, hi1] and c + T in [lo2, hi2]. On the
    quadrature nodes, y - decode_linear(t) = (u_max - u_min) / T * (z - c)
    with z = t + (y - u_max) * T / (u_max - u_min), so for a fixed T
    the best c is the trapezoid-weighted median of z, clipped into the
    c-range the box leaves for that T.
    """
    y, t = _code_grid(cfg, tuner.grid_points)
    w = np.convolve(np.diff(y), [0.5, 0.5])  # the trapezoid weights of linear_error
    y_span = cfg.u_max - cfg.u_min
    lo1, hi1 = (t_min * (1.0 + k) for k in tuner.k1_bounds)
    lo2, hi2 = (t_max * (1.0 + k) for k in tuner.k2_bounds)
    if not hi2 > lo1:
        raise ValueError("stretch bounds admit no decoder with t_lin_max > t_lin_min")

    def best_offset(span: float) -> Tuple[float, float]:
        z = t + (y - cfg.u_max) * (span / y_span)
        order = np.argsort(z)
        cum = np.cumsum(w[order])
        c = z[order[np.searchsorted(cum, 0.5 * cum[-1])]]
        c = min(max(c, lo1, lo2 - span), hi1, hi2 - span)
        return c, y_span / span * float(np.dot(w, np.abs(z - c)))

    a, b = max(lo2 - hi1, 0.0), hi2 - lo1
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = best_offset(x1)[1], best_offset(x2)[1]
    for _ in range(_SEARCH_STEPS):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = best_offset(x1)[1]
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = best_offset(x2)[1]
    span = x1 if f1 <= f2 else x2
    return best_offset(span)[0], span


def fit_linear_decoder(cfg: EncoderConfig, tuner: Optional[TunerConfig] = None) -> TuningResult:
    """Find the (k1, k2) in the tuner's box that minimise eps_lin.

    The exact solve competes with (0, 0), the plain endpoint
    interpolation clipped into the box, and the lower eps_lin wins, so
    the fit never comes back worse than that endpoint, rounding
    included. Raises ValueError when the box admits no decoder or the
    fit error is not finite.
    """
    if tuner is None:
        tuner = TunerConfig()
    ts = timing_summary(cfg)
    c, span = _solve_offset_span(cfg, tuner, ts.t_min, ts.t_max)
    lo, hi = zip(tuner.k1_bounds, tuner.k2_bounds)
    scored = []
    # An overflow shows as a non-finite eps_lin, which is named below.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in ((c / ts.t_min - 1.0, (c + span) / ts.t_max - 1.0), (0.0, 0.0)):
            k = np.clip(k, lo, hi)
            p = _params_from_k(k, ts, cfg)
            if p is not None:
                scored.append((linear_error(cfg, p, tuner.grid_points), float(k[0]), float(k[1]), p))
    eps, k1, k2, params = min(scored, key=lambda s: s[0])
    if not math.isfinite(eps):
        raise ValueError(
            f"decoder fit error eps_lin is {eps!r}: the working range "
            f"{cfg.u_min:g}..{cfg.u_max:g} V overflows its quadrature"
        )
    return TuningResult(
        params=params,
        k1=k1,
        k2=k2,
        eps_lin=eps,
        mu=ts.mu,
    )


def write_tuning(result: TuningResult, cfg: EncoderConfig, path: str,
                 seed: Optional[int] = None) -> None:
    """Persist a fit as JSON, config snapshot included.

    seed records the run's seed for the manifest; the fit itself draws
    no random numbers.
    """
    doc = {
        "k1": result.k1,
        "k2": result.k2,
        "t_lin_min": result.params.t_lin_min,
        "t_lin_max": result.params.t_lin_max,
        "y_min": result.params.y_min,
        "y_max": result.params.y_max,
        "eps_lin": result.eps_lin,
        "mu": result.mu,
        "seed": seed,
        "encoder": asdict(cfg),
    }
    write_json(path, doc)


def read_decoder(path: str) -> LinearDecoderParams:
    """Load just the decoder parameters back from a tuning file.

    Each of the four must be a finite number; a file that fails this
    is a ValueError that names it.
    """
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: tuning file is not a JSON object")
    kw = {}
    for f in fields(LinearDecoderParams):
        if f.name not in doc:
            raise ValueError(f"{path}: tuning file lacks {f.name!r}")
        if not _is_finite_number(doc[f.name]):
            raise ValueError(f"{path}: tuning file {f.name!r} must be a finite number, "
                             f"got {doc[f.name]!r}")
        kw[f.name] = doc[f.name]
    try:
        return LinearDecoderParams(**kw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
