"""Command-line experiments for the spike codec.

Subcommands cover the full pipeline: encode a signal to a spike train,
decode a train back to voltages, sweep constant inputs against the
error model, fit the linear decoder, and run the spiking Fourier
transform against its ideal-converter reference, single-point or as a
frequency sweep.

Configuration is one JSON file with optional sections "encoder",
"noise", "tuner", "sft" and "signal"; anything missing falls back to
built-in defaults. --seed overrides the seeds found in the config.
All outputs are CSV/JSON written atomically, and a rerun with the
same config and seed reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict, replace
from typing import Optional

import numpy as np

from ._atomic import atomic_write, read_json, sidecar_path, write_json
from ._rows import write_keyed_rows, write_tables
from .codec import (
    _is_finite_number,
    EncoderConfig,
    LinearDecoderParams,
    crossing_time,
    decode_ideal,
    decode_linear,
    timing_summary,
)
# write_error_report, write_spectrum and ideal_adc_fft are no longer
# called here; they stay in this namespace, where the benchmark's
# tracer (perfbench/tracing.py) wraps them.
from .errors import empirical_errors, write_error_report, write_error_reports  # noqa: F401
from .sft import SftConfig, _spectrum_tables, sft_stream, write_spectrum  # noqa: F401
from .signals import SineSpec, constant, ideal_adc_fft, sine  # noqa: F401
from .simulate import (
    _MAX_WINDOWS,
    NOISE_MODES,
    SpikeTrain,
    ThermalNoiseModel,
    encode_signal,
    read_spike_train,
    simulate_window,
    write_spike_train,
)
from .tuning import TunerConfig, fit_linear_decoder, read_decoder, write_tuning

DEFAULT_ENCODER = {
    "tau": 3e-3,
    "u_th": 0.1,
    "u_min": 1.0,
    "u_max": 5.0,
    "sample_period": 1.0 / 3000.0,
    "resolution": 100,
}

# Constant sweeps run the threshold grid up to 0.9 V, where the
# slowest spike takes several milliseconds; they get a wider window.
DEFAULT_SWEEP_ENCODER = {**DEFAULT_ENCODER, "sample_period": 7.4e-3, "resolution": 5000}

DEFAULT_SIGNAL = {"type": "sine", "amplitude": 2.0, "frequency": 500.0, "offset": 3.0}
# The keys each signal type reads besides type and windows.
SIGNAL_TYPE_KEYS = {"sine": ("amplitude", "frequency", "offset"), "constant": ("level",)}

# Kinds of config values, each named as error messages say it. A
# choice is the tuple of the strings it allows.
_NUMBER = "a number"
_NUMBER_OR_NULL = "a number or null"
_COUNT = "an integer of at least 1"
_PAIR = "a pair of finite numbers"
_DECODER = "a path string or an object of finite numbers"

# Every config section and key, with the kind of value it takes.
SCHEMA = {
    "encoder": {
        "tau": _NUMBER, "u_th": _NUMBER, "u_min": _NUMBER, "u_max": _NUMBER,
        "sample_period": _NUMBER, "resolution": _COUNT,
    },
    # ThermalNoiseModel checks that rng_seed is a non-negative integer.
    "noise": {"delta_u": _NUMBER, "mode": NOISE_MODES, "rng_seed": _NUMBER},
    # generations is accepted and ignored, so older configs still load.
    "tuner": {
        "k1_bounds": _PAIR, "k2_bounds": _PAIR,
        "grid_points": _COUNT, "generations": _NUMBER_OR_NULL,
    },
    # A null decoder, like a missing one, asks for a fresh fit.
    "sft": {"frame_size": _COUNT, "decoder": _DECODER},
    "signal": {
        "type": ("sine", "constant"), "amplitude": _NUMBER, "frequency": _NUMBER,
        "offset": _NUMBER, "level": _NUMBER, "windows": _COUNT,
    },
}


def _is_number(value) -> bool:
    """A float, NaN and the infinities included, or an int that a float
    holds; never a bool. The constructors name a non-finite float."""
    return isinstance(value, float) or _is_finite_number(value)


_KIND_TESTS = {
    _NUMBER: _is_number,
    _NUMBER_OR_NULL: lambda v: v is None or _is_number(v),
    _COUNT: lambda v: isinstance(v, int) and v >= 1,
    _PAIR: lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_finite_number, v)),
    _DECODER: lambda v: v is None or isinstance(v, str) or (
        isinstance(v, dict) and all(map(_is_finite_number, v.values()))),
}


def _typed(name: str, key: str, value):
    """value, checked against its kind in SCHEMA; a pair comes back as
    a tuple. A count that is not a number at all is named as such."""
    kind = SCHEMA[name][key]
    where = f"config section {name!r} key {key!r}"
    if kind in (_NUMBER, _COUNT) and not _is_number(value):
        huge = isinstance(value, int) and not isinstance(value, bool)
        raise ValueError(f"{where} must be a number{' within float range' if huge else ''}, got {value!r}")
    if isinstance(kind, tuple):
        ok, kind = value in kind, "one of " + ", ".join(f"{k!r}" for k in kind)
    else:
        ok = _KIND_TESTS[kind](value)
    if not ok:
        raise ValueError(f"{where} must be {kind}, got {value!r}")
    return tuple(value) if kind == _PAIR else value


def _reject_unknown(where: str, doc: dict, known) -> None:
    """A typo in a name must not silently fall back to a default."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValueError(f"{where} has unknown key(s): {', '.join(f'{k!r}' for k in unknown)}")


def _load_config(path: Optional[str]) -> dict:
    """Every section in SCHEMA, its values checked and typed; a missing
    or null section reads as an empty one."""
    doc = {}
    if path is not None:
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {doc!r}")
    _reject_unknown("config", doc, SCHEMA)
    cfg = {}
    for name, keys in SCHEMA.items():
        section = doc.get(name)
        if section is None:
            section = {}
        elif not isinstance(section, dict):
            raise ValueError(f"config section {name!r} must be a JSON object, got {section!r}")
        _reject_unknown(f"config section {name!r}", section, keys)
        cfg[name] = {key: _typed(name, key, value) for key, value in section.items()}
    return cfg


def _float_list(option: str, text: str) -> list:
    """Comma-separated numbers from a command-line option."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} must be a comma-separated list of numbers, got {text!r}") from None


def _distinct_files(option: str, values: list, name: str) -> None:
    """Reject two list entries whose files, named by formatting each
    into name, would be the same file."""
    seen = {}
    for value in values:
        path = name.format(value)
        if path in seen:
            raise ValueError(f"{option} entries {seen[path]!r} and {value!r} would both write {path}")
        seen[path] = value


def _build_encoder(section: dict, defaults: dict = DEFAULT_ENCODER) -> EncoderConfig:
    """Encoder from a config section over defaults: a window of
    sample_period read in resolution bins."""
    d = {**defaults, **section}
    resolution = d.pop("resolution")
    return EncoderConfig(**d, reader_period=d["sample_period"] / resolution)


def _build_noise(section: dict, seed: Optional[int]) -> Optional[ThermalNoiseModel]:
    """The noise model, validated whenever the section is given; None
    when it is empty or its delta_u is 0."""
    if not section:
        return None
    kw = {"delta_u": 0.0, **section}
    if seed is not None:
        kw["rng_seed"] = seed
    noise = ThermalNoiseModel(**kw)
    return noise if noise.delta_u else None


def _signal_keys(section: dict) -> dict:
    """The signal section over DEFAULT_SIGNAL. Each type refuses the
    keys it does not read (SIGNAL_TYPE_KEYS)."""
    d = {**DEFAULT_SIGNAL, **section}
    _reject_unknown(f"config section 'signal' of type {d['type']!r}", section,
                    ("type", "windows", *SIGNAL_TYPE_KEYS[d["type"]]))
    return d


def _span(windows: int, key: str, enc: EncoderConfig) -> float:
    """The seconds that windows of enc's sample_period last, key naming
    the config key that set their count."""
    duration = float(windows * enc.sample_period)
    if not np.isfinite(duration):
        raise ValueError(f"{key} = {windows} windows of encoder.sample_period = "
                         f"{enc.sample_period!r} s last longer than float range")
    return duration


def _build_signal(section: dict, enc: EncoderConfig):
    d = _signal_keys(section)
    duration = _span(d.get("windows", 128), "signal.windows", enc)
    if d["type"] == "sine":
        return sine(SineSpec(d["amplitude"], d["frequency"], d["offset"]), duration)
    if "level" not in d:
        raise ValueError("config section 'signal' needs key 'level' for type 'constant'")
    return constant(d["level"], duration)


def _resolve_decoder(spec, tuner: dict, enc: EncoderConfig) -> LinearDecoderParams:
    """Decoder from the sft section's spec: inline params, a tuning
    file, or a fresh fit, which is deterministic, so reruns reproduce it."""
    if spec is None:
        return fit_linear_decoder(enc, TunerConfig(**tuner)).params
    if isinstance(spec, str):
        return read_decoder(spec)
    try:
        return LinearDecoderParams(**spec)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config section 'sft' key 'decoder': {exc}") from None


def _spectrum_rmse(measured: np.ndarray, reference: np.ndarray):
    """RMS magnitude and complex error of each row of an (F, K) stack
    of measured spectra against its reference row, as two (F,) arrays."""
    diffs = (np.abs(measured) - np.abs(reference), measured - reference)
    with np.errstate(over="ignore"):
        rmse_mag, rmse_cplx = (np.sqrt(np.mean(np.abs(d) ** 2, axis=1)) for d in diffs)
    bad = ~(np.isfinite(rmse_mag) & np.isfinite(rmse_cplx))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"spectrum error rmse_mag is {float(rmse_mag[i])!r} and rmse_complex is "
                         f"{float(rmse_cplx[i])!r}: the S-FT is too far from the ideal converter "
                         "to square its error")
    return rmse_mag, rmse_cplx


def _spare_inputs(args, outputs, cfg: Optional[dict] = None) -> None:
    """Refuse, before anything is written, an output path that names a
    file the command reads (--config, --train and its sidecar,
    --tuning, the sft decoder file): writing it would replace that
    input."""
    inputs = [(f"--{key}", getattr(args, key, None)) for key in ("config", "train", "tuning")]
    if getattr(args, "train", None):
        inputs.append(("--train sidecar", sidecar_path(args.train)))
    decoder = cfg["sft"].get("decoder") if cfg else None
    if isinstance(decoder, str):
        inputs.append(("sft decoder", decoder))
    for out in filter(os.path.exists, outputs):
        for name, path in inputs:
            if path and os.path.exists(path) and os.path.samefile(out, path):
                raise ValueError(f"output {out} would replace the {name} file {path}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_encode(args) -> int:
    cfg = _load_config(args.config)
    _spare_inputs(args, [args.out, sidecar_path(args.out)])
    enc = _build_encoder(cfg["encoder"])
    noise = _build_noise(cfg["noise"], args.seed)
    sig = _build_signal(cfg["signal"], enc)
    train = encode_signal(sig, enc, noise)
    write_spike_train(train, args.out)
    fired = int(train.fired.sum())
    print(f"encoded {len(train)} windows ({fired} spikes) -> {args.out}")
    return 0


def cmd_decode(args) -> int:
    if args.mode == "linear" and not args.tuning:
        raise ValueError("linear mode needs --tuning with fitted decoder parameters")
    if args.mode == "ideal" and args.tuning:
        raise ValueError("ideal mode takes no --tuning: it decodes with the train's own encoder")
    _spare_inputs(args, [args.out])
    train = read_spike_train(args.train)
    enc = train.config
    params = read_decoder(args.tuning) if args.mode == "linear" else None
    # A window's cell is its bin's voltage, "" for a silent window; each
    # bin is decoded once, and only the bins the train holds if fewer.
    with atomic_write(args.out, "wb") as fh:
        write_keyed_rows(fh, b"window,u_hat\n", train.bins, enc.resolution, lambda bins: (
            decode_ideal(bins * enc.reader_period, enc) if params is None
            else decode_linear(bins * enc.reader_period, params)))
    print(f"decoded {len(train)} windows ({args.mode}) -> {args.out}")
    return 0


def cmd_sweep_constant(args) -> int:
    thresholds = _float_list("--thresholds", args.thresholds)
    _distinct_files("--thresholds", thresholds, "sweep_uth_{:g}.csv")
    if not 1 <= args.points <= _MAX_WINDOWS:  # each point is one window
        bound = "at least 1" if args.points < 1 else f"at most {_MAX_WINDOWS}"
        raise ValueError(f"--points must be {bound}, got {args.points}")
    cfg = _load_config(args.config)
    stems = [os.path.join(args.out_dir, f"sweep_uth_{u_th:g}") for u_th in thresholds]
    _spare_inputs(args, [f"{stem}.{ext}" for stem in stems for ext in ("csv", "json")])
    enc_base = _build_encoder(cfg["encoder"], defaults=DEFAULT_SWEEP_ENCODER)
    noise = _build_noise(cfg["noise"], args.seed)
    # Every threshold is checked and swept before the first write, so a
    # failed run leaves no files. The thresholds share one input grid,
    # so their reports format its cells once.
    u = np.linspace(enc_base.u_min, enc_base.u_max, args.points)
    reports = []
    for u_th, stem in zip(thresholds, stems):
        enc = replace(enc_base, u_th=u_th)
        bins = simulate_window(u, enc, noise)
        if not bins.all():
            raise ValueError(f"window stayed silent at u_in={u[bins == 0][0]:.4g} V")
        report = empirical_errors(u, crossing_time(u, enc.u_th, enc.tau), bins * enc.reader_period, enc)
        ts = timing_summary(enc)
        meta = {"u_th": u_th, "t_min": ts.t_min, "t_max": ts.t_max, "mu": ts.mu,
                "seed": None if noise is None else noise.rng_seed}
        reports.append((report, f"{stem}.csv", f"{stem}.json", meta))

    os.makedirs(args.out_dir, exist_ok=True)
    write_error_reports(reports)
    for report, csv_path, _, meta in reports:
        print(f"u_th={meta['u_th']:g}: rmse={report.rmse:.6g} V, t_max={meta['t_max']:.6g} s -> {csv_path}")
    return 0


def cmd_tune(args) -> int:
    cfg = _load_config(args.config)
    _spare_inputs(args, [args.out])
    enc = _build_encoder(cfg["encoder"])
    result = fit_linear_decoder(enc, TunerConfig(**cfg["tuner"]))
    write_tuning(result, enc, args.out, seed=args.seed)
    print(
        f"k1={result.k1:.6g} k2={result.k2:.6g} eps_lin={result.eps_lin:.6g} "
        f"mu={result.mu:.6g} -> {args.out}"
    )
    return 0


def _sft_setup(args, outputs):
    """Encoder, noise, transform geometry and sine of the sft commands,
    each built once from the config, once no path in outputs names an
    input file."""
    cfg = _load_config(args.config)
    _spare_inputs(args, outputs, cfg)
    enc = _build_encoder(cfg["encoder"])
    noise = _build_noise(cfg["noise"], args.seed)
    sig = _signal_keys(cfg["signal"])
    if sig["type"] != "sine":
        raise ValueError(f"{args.command} needs signal type 'sine', got {sig['type']!r}")
    spec = SineSpec(sig["amplitude"], sig["frequency"], sig["offset"])
    sft_keys = dict(cfg["sft"])
    decoder = _resolve_decoder(sft_keys.pop("decoder", None), cfg["tuner"], enc)
    return enc, noise, SftConfig.for_encoder(enc, decoder, **sft_keys), spec


def _sft_points(enc: EncoderConfig, scfg: SftConfig, noise, spec: SineSpec, freqs):
    """Measured and reference spectra, (F, K) each, and their RMS
    magnitude and complex errors, (F,) each, of one frame of K windows
    of spec's sine at each of the F frequencies, from phase zero.

    Every sine is built, and so checked, before any frame is encoded.
    The frames are one (F, K) array of held voltages and one
    simulate_window call, each row from window 0, so per-window noise
    gives every frame the draws of windows 0..K-1. The reference is one
    FFT over the rows; sft_stream frames the rows end to end at hop K.
    """
    k = scfg.frame_size
    duration = _span(k, "sft.frame_size", enc)
    t = np.arange(k) * enc.sample_period
    held = np.array([sine(replace(spec, frequency=nu), duration)(t) for nu in freqs])
    bins = simulate_window(held, enc, noise)
    with np.errstate(over="ignore", invalid="ignore"):
        reference = np.fft.fft(held, axis=1)
    bad = ~np.isfinite(reference).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"the reference spectrum at {freqs[i]!r} Hz overflows: the FFT of {k} held "
                         f"voltages up to {held[i].max():.6g} V leaves float range")
    measured = sft_stream(SpikeTrain(bins.ravel(), enc), scfg).coefficients
    return (measured, reference, *_spectrum_rmse(measured, reference))


def cmd_sft(args) -> int:
    paths = [f"{args.out_prefix}_spectrum.csv", f"{args.out_prefix}_ideal.csv"]
    json_path = f"{args.out_prefix}.json"
    enc, noise, scfg, spec = _sft_setup(args, [*paths, json_path])
    measured, reference, rmse_mag, rmse_cplx = _sft_points(enc, scfg, noise, spec, [spec.frequency])
    write_tables(_spectrum_tables(paths, np.concatenate([measured, reference]), scfg.sample_period))
    write_json(
        json_path,
        {
            "frequency_hz": spec.frequency,
            "rmse_mag": float(rmse_mag[0]),
            "rmse_complex": float(rmse_cplx[0]),
            "frame_size": scfg.frame_size,
            "decoder": asdict(scfg.decoder),
        },
    )
    print(f"nu={spec.frequency:g} Hz: rmse_mag={rmse_mag[0]:.6g} -> {paths[0]}")
    return 0


def cmd_sft_sweep(args) -> int:
    freqs = _float_list("--freqs", args.freqs)
    _distinct_files("--freqs", freqs, "spectrum_{:g}hz.csv")
    freqs.sort()
    paths = [os.path.join(args.out_dir, f"spectrum_{nu:g}hz.csv") for nu in freqs]
    summary = os.path.join(args.out_dir, "summary.csv")
    enc, noise, scfg, spec = _sft_setup(args, [*paths, summary])
    # Every point is computed before the first write, so a failed run
    # leaves no files; the spectra and the summary are one batch.
    measured, _, rmse_mag, rmse_cplx = _sft_points(enc, scfg, noise, spec, freqs)
    os.makedirs(args.out_dir, exist_ok=True)
    write_tables([*_spectrum_tables(paths, measured, scfg.sample_period),
                  (summary, "freq_hz,rmse_mag,rmse_complex\n", (np.array(freqs), rmse_mag, rmse_cplx))])
    for nu, rmse in zip(freqs, rmse_mag.tolist()):
        print(f"nu={nu:g} Hz: rmse_mag={rmse:.6g}")
    print(f"summary -> {summary}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spikecodec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, help="override RNG seeds from the config")

    sp = sub.add_parser("encode", help="encode a signal into a spike train")
    common(sp)
    sp.add_argument("--out", required=True, help="output CSV (JSON sidecar alongside)")
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("decode", help="decode a spike train back to voltages")
    sp.add_argument("--train", required=True, help="spike-train CSV from encode")
    sp.add_argument("--mode", choices=["ideal", "linear"], default="ideal")
    sp.add_argument("--tuning", help="tuning JSON (linear mode only, and required there)")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_decode)

    sp = sub.add_parser("sweep-constant", help="error sweep over constant inputs per threshold")
    common(sp)
    sp.add_argument("--thresholds", default="0.1,0.5,0.75,0.9", help="comma-separated u_th list")
    sp.add_argument("--points", type=int, default=256)
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_sweep_constant)

    sp = sub.add_parser("tune", help="fit the linear decoder")
    common(sp)
    sp.add_argument("--out", required=True, help="tuning JSON output")
    sp.set_defaults(func=cmd_tune)

    sp = sub.add_parser("sft", help="spiking transform at one frequency vs ideal converter")
    common(sp)
    sp.add_argument("--out-prefix", required=True)
    sp.set_defaults(func=cmd_sft)

    sp = sub.add_parser("sft-sweep", help="spiking transform across a frequency sweep")
    common(sp)
    sp.add_argument("--freqs", default="25,50,75,100,250,500,750,1000")
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_sft_sweep)

    return p


# main parses with one parser per process: building it costs about a
# millisecond, and a process may run many commands.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
