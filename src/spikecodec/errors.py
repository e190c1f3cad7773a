"""Decoding-error model: reader quantization plus thermal noise.

Two deterministic shifts act on a spike time. The reader only reports
whole bins, which on average delays the registered time by half a bin
(delta_t = T_N / 2). Additive membrane noise delta_u makes the cell
fire early, by the difference between the clean crossing and the
crossing against the lowered threshold u_th - delta_u. The predicted
decode error feeds the shifted time back through the ideal decoder.

Empirical errors compare a measured train against ground truth, per
sample and as an RMS figure.
"""

from __future__ import annotations

import collections
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._atomic import write_json
from ._rows import write_tables
from .codec import EncoderConfig, crossing_time, encode_time, decode_ideal

__all__ = [
    "quantization_shift",
    "thermal_shift",
    "predicted_decoding_error",
    "ErrorReport",
    "empirical_errors",
    "write_error_report",
    "write_error_reports",
]


def quantization_shift(cfg: EncoderConfig) -> float:
    """Mean registration delay of the bin reader: half a reader period."""
    return 0.5 * cfg.reader_period


def thermal_shift(u_in: float, delta_u: float, cfg: EncoderConfig) -> float:
    """Time advance caused by a membrane offset delta_u.

    Positive: the noisy cell fires earlier. Grows with delta_u and
    shrinks as u_in moves away from threshold (fast crossings barely
    notice the offset). Zero offset gives exactly zero.
    """
    if not u_in > cfg.u_th:
        raise ValueError("u_in must exceed u_th for a baseline spike")
    if delta_u < 0:
        raise ValueError("delta_u must be >= 0")
    if delta_u >= cfg.u_th:
        raise ValueError("delta_u must stay below u_th")
    return encode_time(u_in, cfg).time - crossing_time(u_in, cfg.u_th - delta_u, cfg.tau)


def predicted_decoding_error(
    u_in: float,
    delta_u: float,
    cfg: EncoderConfig,
    quant_shift: Optional[float] = None,
) -> float:
    """Signed voltage error after both shifts and an ideal decode.

    The measured time is modelled as t_s + quant_shift - thermal, with
    quant_shift defaulting to the half-bin mean delay. Pass
    quant_shift=0.0 to look at the thermal contribution alone (and
    with delta_u=0 too, the error is exactly zero).
    """
    thermal = thermal_shift(u_in, delta_u, cfg)  # checks u_in and delta_u
    if quant_shift is None:
        quant_shift = quantization_shift(cfg)
    t_meas = encode_time(u_in, cfg).time + quant_shift - thermal
    if not t_meas > 0:
        raise ValueError("shifted spike time is not positive")
    return u_in - decode_ideal(t_meas, cfg)


@dataclass(frozen=True)
class ErrorReport:
    """Per-sample decoding errors plus their RMS.

    eps_u  absolute voltage error per sample
    eps_ts absolute timing error per sample, in reader bins
    rmse   sqrt(mean(eps_u^2)); recomputable from eps_u
    """

    u_in: np.ndarray
    eps_u: np.ndarray
    eps_ts: np.ndarray
    rmse: float

    def __post_init__(self) -> None:
        for name in ("u_in", "eps_u", "eps_ts"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.u_in.size
        if n == 0:
            raise ValueError("empty error report")
        if self.eps_u.size != n or self.eps_ts.size != n:
            raise ValueError("per-sample arrays must have equal length")


def empirical_errors(u_true, t_true, t_meas, cfg: EncoderConfig) -> ErrorReport:
    """Compare measured spike times against ground truth.

    u_true and t_true are the clean voltages and their exact crossing
    times; t_meas the times the pipeline actually produced. Voltages
    are recovered from t_meas with the ideal decoder.
    """
    u_true = np.asarray(u_true, dtype=float)
    t_true = np.asarray(t_true, dtype=float)
    t_meas = np.asarray(t_meas, dtype=float)
    if not (u_true.size == t_true.size == t_meas.size):
        raise ValueError("inputs must have equal length")
    eps_u = np.abs(u_true - decode_ideal(t_meas, cfg))
    eps_ts = np.abs(t_true - t_meas) / cfg.reader_period
    with np.errstate(over="ignore"):
        rmse = float(np.sqrt(np.mean(eps_u**2)))
    if not np.isfinite(rmse):
        raise ValueError(f"decoding error rmse is {rmse!r}: the largest voltage error, "
                         f"{np.max(eps_u):.6g} V, overflows when squared")
    return ErrorReport(u_in=u_true, eps_u=eps_u, eps_ts=eps_ts, rmse=rmse)


def write_error_reports(entries) -> None:
    """Write (report, csv_path, json_path, meta) entries: every CSV of
    per-sample errors in one write_tables batch, then each JSON
    summary sidecar (json_path None puts it next to the CSV). Reports
    that hold one u_in array between them format its cells once."""
    entries = list(entries)
    counts = collections.Counter(id(report.u_in) for report, *_ in entries)
    cells = {}
    tables = []
    for report, csv_path, _, _ in entries:
        u, fmt = report.u_in, "{!r},{!r},{!r}\r\n"
        if counts[id(u)] > 1:
            if id(u) not in cells:
                cells[id(u)] = list(map(repr, u.tolist()))
            u, fmt = cells[id(u)], "{},{!r},{!r}\r\n"
        tables.append((csv_path, "u_in,eps_u,eps_ts\r\n", fmt, (u, report.eps_u, report.eps_ts)))
    write_tables(tables)
    for report, csv_path, json_path, meta in entries:
        if json_path is None:
            json_path = os.path.splitext(csv_path)[0] + ".json"
        write_json(json_path, {"rmse": report.rmse, "samples": int(report.u_in.size), **(meta or {})})


def write_error_report(
    report: ErrorReport,
    csv_path: str,
    json_path: Optional[str] = None,
    meta: Optional[dict] = None,
) -> None:
    """CSV of per-sample errors plus a JSON summary sidecar."""
    write_error_reports([(report, csv_path, json_path, meta)])
