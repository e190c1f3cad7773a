"""Decoding-error model and measured decoding errors.

Additive membrane noise delta_u makes the cell fire early, by the
difference between the clean crossing and the crossing against the
lowered threshold u_th - delta_u; thermal_shift gives that advance.

Empirical errors compare a measured train against ground truth, per
sample and as an RMS figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._atomic import json_bytes, sidecar_path, write_files
from ._rows import table_files
from .codec import _check_offset, EncoderConfig, crossing_time, encode_time, decode_ideal

__all__ = [
    "thermal_shift",
    "ErrorReport",
    "empirical_errors",
    "write_error_report",
    "write_error_reports",
]


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
    _check_offset(delta_u, cfg)
    return encode_time(u_in, cfg).time - crossing_time(u_in, cfg.u_th - delta_u, cfg.tau)


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
    """Write (report, csv_path, json_path, meta) entries: a CSV of
    per-sample errors and a JSON summary sidecar each (json_path None
    puts it next to the CSV), every file in one commit
    (_atomic.write_files), so all replace their paths or none does. A
    path named twice, a sidecar that names its own CSV among them, is
    a ValueError, raised before anything is written."""
    entries = [(report, csv_path, sidecar_path(csv_path) if json_path is None else json_path, meta)
               for report, csv_path, json_path, meta in entries]
    tables = [(csv_path, "u_in,eps_u,eps_ts\r\n", (report.u_in, report.eps_u, report.eps_ts))
              for report, csv_path, _, _ in entries]
    docs = [(json_path, {"rmse": report.rmse, "samples": int(report.u_in.size), **(meta or {})})
            for report, _, json_path, meta in entries]
    write_files([*table_files(tables), *((path, [json_bytes(doc)]) for path, doc in docs)])


def write_error_report(
    report: ErrorReport,
    csv_path: str,
    json_path: Optional[str] = None,
    meta: Optional[dict] = None,
) -> None:
    """CSV of per-sample errors plus a JSON summary sidecar."""
    write_error_reports([(report, csv_path, json_path, meta)])
