"""Event-accurate simulation of the sample-and-encode circuit.

One window of length T_S holds the input voltage sampled at the window
start, charges the membrane from rest, and registers the threshold
crossing on a reader that ticks every T_N. The registered value is the
bin index k = ceil(t_s / T_N), k in 1..N. After firing, the neuron is
held refractory until the window ends, so each window yields at most
one spike. A crossing that would land after the window (or no crossing
at all) registers as no spike, stored as bin 0.

Crossing times come from the closed form of the codec rather than from
stepping the ODE; an integration oracle in the test-suite pins the two
against each other. Additive membrane noise is modelled as an
equivalent threshold drop, which preserves the closed form.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, asdict
from typing import Callable, Optional

import numpy as np

from ._atomic import json_bytes, read_json, sidecar_path, write_files
from ._draws import window_doubles
from ._rows import keyed_rows, read_keyed_rows
from .codec import _check_offset, _is_finite_number, EncoderConfig, crossing_time

__all__ = [
    "ThermalNoiseModel",
    "AnalogSignal",
    "SpikeTrain",
    "simulate_window",
    "encode_signal",
    "write_spike_train",
    "read_spike_train",
]

# A window count within this relative distance of a whole number counts
# as whole. Guards floor() against float dust in duration / T_S:
# (n * T_S) / T_S misses n by at most 2.22e-16 relative (one ulp) over
# periods of 1e-7..1 s and n < 2**51. A wider snap counts a partial
# last window as whole: 1e-9 did so from about 5e8 windows.
_WINDOW_SNAP = 4e-16

# A crossing within this relative distance of a reader tick counts as
# hitting the tick, so that ceil() keeps the bin of a time decoded from
# it: over 300 encoders, crossing_time(decode_ideal(k * T_N)) / T_N
# misses k by up to 2.4e-15 relative. A wider snap registers real
# crossings just past a tick one bin early: 1e-9 would do so for 19 %
# of uniform 1..5 V windows at 5e8 bins.
_CROSSING_SNAP = 1e-13

NOISE_MODES = ("constant", "per-window")

# Past 2**53 windows, float64 no longer holds every window index, so
# neither the window count nor the sample times m*T_S are exact.
_MAX_WINDOWS = 2**53


def _is_non_negative_int(value) -> bool:
    """True for a non-negative integer, never a bool: a seed or a count."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= 0


def _check_window_index(window_index) -> None:
    """Refuse a first window that is not a non-negative integer, in
    every noise mode."""
    if not _is_non_negative_int(window_index):
        raise ValueError(f"window_index must be a non-negative integer, got {window_index!r}")


@dataclass(frozen=True)
class ThermalNoiseModel:
    """Additive membrane offset, expressed as a threshold drop delta_u.

    mode "constant" applies the full delta_u in every window;
    "per-window" gives window m the offset
    np.random.default_rng([rng_seed, m]).uniform(0, delta_u), so runs
    are reproducible and windows are independent of evaluation order.
    The draws are computed for many windows at once (see _draws.py).
    rng_seed must be a non-negative integer and delta_u finite.
    """

    delta_u: float
    mode: str = "constant"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.delta_u) or self.delta_u < 0:
            raise ValueError(f"delta_u must be finite and >= 0, got {self.delta_u!r}")
        if self.mode not in NOISE_MODES:
            raise ValueError(f"mode must be one of {NOISE_MODES}")
        if not _is_non_negative_int(self.rng_seed):
            raise ValueError(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")

    def offset(self, window_index: int) -> float:
        _check_window_index(window_index)
        return float(self._offsets(window_index, 1)[0])

    def _offsets(self, first: int, n: int) -> np.ndarray:
        """Offsets of windows first..first+n-1."""
        if self.mode == "constant":
            return np.full(n, self.delta_u)
        return self.delta_u * window_doubles(self.rng_seed, first, n)


@dataclass(frozen=True)
class AnalogSignal:
    """A finite-duration voltage signal u(t).

    func must accept float arrays (vectorised). Generators for the
    stock waveforms live in signals.py.
    """

    func: Callable[[np.ndarray], np.ndarray]
    duration: float

    def __post_init__(self) -> None:
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise ValueError(f"duration must be positive and finite, got {self.duration!r}")

    def __call__(self, t):
        return self.func(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class SpikeTrain:
    """Reader output for a run: one bin index per window.

    bins[m] is in 1..cfg.resolution, or 0 for no spike in window m.
    The config (and noise seed, when noise was applied) travels with
    the data so a train is decodable on its own.
    """

    bins: np.ndarray
    config: EncoderConfig
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        b = np.asarray(self.bins)
        if b.size and b.dtype.kind not in "iu":  # a cast would cut 1.7 to bin 1
            raise ValueError(f"bins must be integers, got an array of {b.dtype}")
        b = np.asarray(b, dtype=np.int64)
        object.__setattr__(self, "bins", b)
        if b.ndim != 1:
            raise ValueError("bins must be one-dimensional")
        n = self.config.resolution
        if b.size and (b.min() < 0 or b.max() > n):
            raise ValueError(f"bin indices must lie in 0..{n}")

    def __len__(self) -> int:
        return int(self.bins.size)

    @property
    def fired(self) -> np.ndarray:
        return self.bins > 0

    def spike_times(self) -> np.ndarray:
        """Registered times k*T_N within each window; NaN where silent."""
        t = self.bins * self.config.reader_period
        return np.where(self.fired, t, np.nan)


def _register(t_s, cfg: EncoderConfig):
    """Reader bins for crossing times: snap-to-tick, ceil, window clip."""
    t = np.asarray(t_s, dtype=float)
    crossed = np.isfinite(t)
    ticks = np.where(crossed, t, 0.0) / cfg.reader_period
    near = np.rint(ticks)
    # A crossing never snaps back to tick 0, whose bin means silence.
    exact = (near >= 1) & (np.abs(ticks - near) <= _CROSSING_SNAP * near)
    k = np.where(exact, near, np.ceil(ticks))
    bins = np.where(crossed & (k <= cfg.resolution) & (k >= 1), k, 0)
    return bins.astype(np.int64)


def simulate_window(
    u_in,
    cfg: EncoderConfig,
    noise: Optional[ThermalNoiseModel] = None,
    window_index: int = 0,
):
    """Simulate windows: held voltages in, reader bins out.

    A scalar u_in is one window and returns its bin index (1..N), or
    None when the window stays silent. An array holds one voltage per
    window and returns an int64 bin array with 0 for silence; element
    i of its last axis is window window_index + i, so each row of a
    2-D array is a run of its own over the same windows. window_index,
    a non-negative integer in every noise mode, only changes the bins
    under per-window noise, where it selects each window's random draw.
    A non-finite held voltage raises ValueError: it would otherwise
    read as a silent window.
    """
    _check_window_index(window_index)
    u = np.asarray(u_in, dtype=float)
    bad = ~np.isfinite(u)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        v = float(u.flat[i])
        m = i % u.shape[-1] if u.ndim else 0
        raise ValueError(f"window {window_index + m} holds a non-finite input voltage ({v!r})")
    delta = 0.0
    if noise is not None:
        _check_offset(noise.delta_u, cfg)
        windows = u.shape[-1:]
        delta = noise._offsets(window_index, math.prod(windows)).reshape(windows)
    bins = _register(crossing_time(u, cfg.u_th - delta, cfg.tau), cfg)
    if u.ndim:
        return bins
    return int(bins) or None


def _window_count(duration: float, sample_period: float) -> int:
    """The whole windows of sample_period in duration. A count within
    _WINDOW_SNAP of a whole number, relative to that number, is that
    number, so that n * sample_period gives back n: float dust alone
    loses a window from about 2.5e7 windows."""
    windows = duration / sample_period
    if windows > _MAX_WINDOWS:
        raise ValueError(
            f"signal duration {duration!r} s spans {windows:.6g} windows of "
            f"{sample_period:.6g} s, more than the {_MAX_WINDOWS} that "
            "float64 counts exactly"
        )
    near = round(windows)
    count = near if abs(windows - near) <= _WINDOW_SNAP * near else math.floor(windows)
    if count < 1:
        raise ValueError("signal shorter than one sample window")
    return count


def encode_signal(
    sig: AnalogSignal,
    cfg: EncoderConfig,
    noise: Optional[ThermalNoiseModel] = None,
) -> SpikeTrain:
    """Encode a signal window by window into a SpikeTrain.

    The signal is sampled and held at each window start m*T_S; windows
    are independent, so the whole run is one simulate_window call.
    The signal must cover at least one full window and at most
    _MAX_WINDOWS of them; the count is checked before any allocation.
    """
    m_windows = _window_count(sig.duration, cfg.sample_period)
    u_held = sig(np.arange(m_windows) * cfg.sample_period)
    seed = None if noise is None else noise.rng_seed
    return SpikeTrain(bins=simulate_window(u_held, cfg, noise), config=cfg, seed=seed)


# ---------------------------------------------------------------------------
# persistence

_HEADER = b"window,bin\n"


def write_spike_train(train: SpikeTrain, csv_path: str) -> None:
    """Write a train as CSV (window,bin; bin empty for silence) plus
    the JSON sidecar that sidecar_path names, holding the config and
    seed; both replace their paths in one commit, or neither does."""
    json_path = sidecar_path(csv_path)  # first: a train named like its sidecar writes nothing
    meta = {
        "encoder": asdict(train.config),
        "seed": train.seed,
        "windows": len(train),
    }
    write_files([(csv_path, keyed_rows(_HEADER, train.bins, train.config.resolution)),
                 (json_path, [json_bytes(meta)])])


def _read_sidecar(json_path: str):
    """Encoder config and sidecar fields; a malformed sidecar is a
    ValueError that names the file."""
    meta = read_json(json_path)
    encoder = meta.get("encoder") if isinstance(meta, dict) else None
    if not isinstance(encoder, dict):
        raise ValueError(f"{json_path}: sidecar has no encoder object")
    windows, seed = meta.get("windows"), meta.get("seed")
    if not _is_non_negative_int(windows):
        raise ValueError(f"{json_path}: sidecar key 'windows' must be a non-negative integer, "
                         f"got {windows!r}")
    if seed is not None and not _is_non_negative_int(seed):
        raise ValueError(f"{json_path}: sidecar key 'seed' must be null or a non-negative integer, "
                         f"got {seed!r}")
    for key, value in encoder.items():
        if not _is_finite_number(value):
            raise ValueError(f"{json_path}: bad sidecar encoder ({key} must be a finite number, "
                             f"got {value!r})")
    try:
        cfg = EncoderConfig(**encoder)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{json_path}: bad sidecar encoder ({exc})") from None
    return cfg, meta


def _utf8(csv_path: str, where: str, line: str) -> str:
    """line, read with errors="surrogateescape"; a byte that is not
    UTF-8 text is a ValueError that names csv_path and where."""
    try:
        line.encode()
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise ValueError(f"{csv_path}: {where} has byte 0x{byte:02x}, not UTF-8 text") from None
    return line


def _read_bins_by_row(csv_path: str, n: int) -> list:
    """The bins of a train file that read_keyed_rows rejects, read as
    text in one pass: this accepts padded cells and other layouts a
    hand-edited file may hold, and names the first bad row, counting
    data rows from 1."""
    bins = []
    with open(csv_path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        got = [c.strip() for c in _utf8(csv_path, "header", fh.readline()).split(",")]
        if got != ["window", "bin"]:
            raise ValueError(f"{csv_path}: header is {','.join(got)!r}, expected 'window,bin'")
        for m, line in enumerate(fh):
            cells = _utf8(csv_path, f"row {m + 1}", line).split(",")
            if len(cells) != 2:
                raise ValueError(f"{csv_path}: row {m + 1} should hold 2 cells, holds {len(cells)}")
            w, c = cells[0], cells[1].strip()
            if w.strip() != str(m):
                raise ValueError(f"{csv_path}: row {m + 1} has window {w!r}, expected {m}")
            try:
                b = int(c) if c else 0
            except ValueError:
                raise ValueError(f"{csv_path}: row {m + 1} has bin {c!r}, not an integer") from None
            if not 0 <= b <= n:
                raise ValueError(f"{csv_path}: row {m + 1} has bin {b}, outside 0..{n}")
            bins.append(b)
    return bins


def read_spike_train(csv_path: str) -> SpikeTrain:
    """Read a train written by write_spike_train.

    The header must be window,bin and every row hold two cells. The
    window column must run 0..n-1, with n the window count the sidecar
    records, so a truncated or reordered file is rejected instead of
    being read as a shorter train, and every bin must lie in 0..N.
    A file exactly as write_spike_train writes it is read as bytes; any
    other is read again row by row, which accepts padded cells, \\r\\n
    endings, a last row without a line break and cells like 007.
    """
    with open(csv_path, "rb") as fh:  # first, so a missing train is named as itself
        cfg, meta = _read_sidecar(sidecar_path(csv_path))
        # a row holds at least 3 bytes ("0,\n"), so a sidecar cannot
        # make the reader allocate for more rows than the file can hold
        rows = min(meta["windows"], os.fstat(fh.fileno()).st_size // 3)
        bins = read_keyed_rows(fh, _HEADER, cfg.resolution, rows)
    if bins is None:
        bins = np.array(_read_bins_by_row(csv_path, cfg.resolution), dtype=np.int64)
    if len(bins) != meta["windows"]:
        raise ValueError(f"{csv_path} has {len(bins)} windows, its sidecar records {meta['windows']}")
    return SpikeTrain(bins=bins, config=cfg, seed=meta.get("seed"))
