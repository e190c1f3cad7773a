"""The three benchmark workloads: inputs, timed pipeline, output checks.

Each workload derives every input from the seed in its constructor
(set-up), runs the program through public entry points only in run()
(the timed region), and afterwards checks what the program produced
against the references in oracle.py and computes its accuracy metrics.
All program calls go through module attributes (spikecodec.cli.main,
spikecodec.sft.sft_stream, ...) so that a traced pass sees them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time

import numpy as np

import spikecodec
import spikecodec.cli
import spikecodec.errors
import spikecodec.sft
import spikecodec.signals
import spikecodec.simulate

import oracle

FRAME = 128
SFT_BOUND = 1e-6  # criterion 6 of the acceptance suite
REFERENCE_ENCODER = {  # 3 kHz windows, N = 100 reader bins
    "tau": 3e-3, "u_th": 0.1, "u_min": 1.0, "u_max": 5.0,
    "sample_period": 1.0 / 3000.0, "resolution": 100,
}
# The threshold grid reaches 0.9 V, whose slowest spike needs a wide
# window. sample_period and resolution are both given because the
# reader_period + resolution form silently keeps the default window.
WIDE_ENCODER = {**REFERENCE_ENCODER, "sample_period": 7.4e-3, "resolution": 5000}

SIZES = {
    "full": {
        "stream_noisy": {"windows": 100_000, "frame": FRAME, "hop": FRAME},
        "sliding_sft": {"windows": 20_000, "frame": FRAME, "hop": 1},
        "design_sweep": {"thresholds": [0.1, 0.5, 0.9], "points": 4096,
                         "frequencies": 64, "frame": FRAME, "de_generations": 300},
    },
    "tiny": {
        "stream_noisy": {"windows": 2048, "frame": FRAME, "hop": FRAME},
        "sliding_sft": {"windows": 512, "frame": FRAME, "hop": 1},
        "design_sweep": {"thresholds": [0.1, 0.5, 0.9], "points": 64,
                         "frequencies": 4, "frame": FRAME, "de_generations": 5},
    },
}


class Failed(Exception):
    """A program call or an output check failed."""


def require(ok, message: str) -> None:
    if not ok:
        raise Failed(message)


class Ops:
    """Runs a workload's program calls in order and records which ran,
    with the perf_counter() interval of each.

    A call fails when it raises or returns a non-zero exit code.
    """

    def __init__(self) -> None:
        self.done, self.intervals = [], []

    def __call__(self, name: str, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.intervals.append((start, time.perf_counter()))
        if type(result) is int and result != 0:
            raise Failed(f"{name}: exit code {result}")
        self.done.append(name)
        return result


def read_columns(path: str) -> dict:
    """CSV as {header: list of cell strings}; a plain split, no csv module."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = fh.read().splitlines()
    cols = list(zip(*(row.split(",") for row in rows))) if rows else [()] * len(header)
    return dict(zip(header, cols))


def floats(cells) -> np.ndarray:
    """Cells as floats, NaN where blank."""
    return np.array([float(c) if c else math.nan for c in cells])


def reader_period(enc: dict) -> float:
    return enc["sample_period"] / enc["resolution"]


def endpoint_decoder(enc: dict) -> dict:
    t_min, t_max = oracle.endpoint_times(enc["u_th"], enc["tau"], enc["u_min"], enc["u_max"])
    return {"t_lin_min": t_min, "t_lin_max": t_max, "y_min": enc["u_min"], "y_max": enc["u_max"]}


def linear_frames(bins, enc: dict, decoder: dict, frame: int, hop: int) -> np.ndarray:
    """Linear-decoded values per frame, silent windows entered at the
    decoder's latest code time clipped to the charge phase."""
    t_n = reader_period(enc)
    silent_time = min(decoder["t_lin_max"], enc["resolution"] * t_n)
    times = np.where(bins > 0, bins * t_n, silent_time)
    return oracle.frames(oracle.linear_values(times, **decoder), frame, hop)


def spectra_array(spectra) -> np.ndarray:
    return np.stack([s.coefficients for s in spectra])


def check_spectra(coeff, lin, held, state: dict, chunk: int = 2048) -> np.ndarray:
    """Check every S-FT frame against the DFT of its linear-decoded frame:
    criterion 6's deviation, and a fitted scale of 1, both within 1e-6.
    Records the worst deviation in state["dev"] and returns the per-frame
    magnitude RMSE against the ideal converter. Works a chunk of frames
    at a time, so the check never holds more than a few chunk-sized FFTs."""
    dev, scale, rmse = [], [], []
    for lo in range(0, coeff.shape[0], chunk):
        d, s = oracle.sft_deviation(coeff[lo:lo + chunk], lin[lo:lo + chunk])
        dev.append(d)
        scale.append(s)
        rmse.append(oracle.magnitude_rmse(coeff[lo:lo + chunk], held[lo:lo + chunk]))
    dev, scale_err = np.concatenate(dev), np.abs(np.concatenate(scale) - 1.0)
    state["dev"] = dev
    require(dev.max() <= SFT_BOUND, f"S-FT deviates from the DFT by {dev.max():.3e}")
    require(scale_err.max() <= SFT_BOUND, f"S-FT is off the DFT scale by {scale_err.max():.3e}")
    return np.concatenate(rmse)


class Workload:
    name = ""
    ops: tuple = ()
    pool_threads = 0

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        self.size = SIZES[scale][self.name]
        self.dir = workdir
        self.rng = np.random.default_rng(seed)
        self.inputs = set()

    def write_input(self, doc: dict, name: str) -> None:
        """Write one generated input file into the pass directory."""
        self.inputs.add(name)
        with open(self.path(name), "w") as fh:
            json.dump(doc, fh, indent=2)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    @property
    def windows(self) -> int:
        """Windows carried through the whole chain by one run()."""
        return self.size["windows"]

    def checks(self):
        """(op name, check function) pairs; each raises Failed."""
        return []

    def results(self):
        """In-memory outputs of run(), as arrays."""
        return []

    def digest(self) -> str:
        """SHA-256 of every output file in the pass directory and of the
        in-memory outputs. The program is deterministic, so every pass of a
        run must give the digest of the one pass that was checked in full.
        Inputs are left out: they name the pass directory."""
        h = hashlib.sha256()
        names = sorted(os.path.relpath(os.path.join(d, f), self.dir)
                       for d, _, files in os.walk(self.dir) for f in files)
        for name in names:
            if name in self.inputs:
                continue
            h.update(name.encode())
            with open(self.path(name), "rb") as fh:
                h.update(fh.read())
        for array in self.results():
            h.update(np.ascontiguousarray(array).tobytes())
        return h.hexdigest()

    def verify(self) -> dict:
        """op name -> problems found in its output."""
        problems = {}
        for op, check in self.checks():
            try:
                check()
            except Exception as exc:  # a crashing check is a failed check
                problems.setdefault(op, []).append(f"{type(exc).__name__}: {exc}")
        return problems


class StreamNoisy(Workload):
    """Long per-window-noise pipeline: encode, decode twice, error
    report, S-FT at hop = K, all on one biased sine."""

    name = "stream_noisy"
    ops = ("encode", "decode-ideal", "decode-linear", "read", "errors", "error-report", "sft")
    amplitude, offset, delta_u = 2.12, 3.0, 0.01
    check_sample = 1000

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        m = self.size["windows"]
        self.enc = REFERENCE_ENCODER
        self.frequency = float(self.rng.uniform(49.0, 51.0))
        self.noise_seed = int(self.rng.integers(2**31))
        self.sample = np.sort(self.rng.choice(m, size=min(self.check_sample, m), replace=False))
        self.decoder = endpoint_decoder(self.enc)
        self.held = oracle.biased_sine(self.amplitude, self.frequency, self.offset, m,
                                       self.enc["sample_period"])
        self.t_true = oracle.crossing_times(self.held, self.enc["u_th"], self.enc["tau"])
        self.write_input({
            "encoder": self.enc,
            "noise": {"delta_u": self.delta_u, "mode": "per-window", "rng_seed": self.noise_seed},
            "signal": {"type": "sine", "amplitude": self.amplitude, "frequency": self.frequency,
                       "offset": self.offset, "windows": m},
        }, "config.json")
        self.write_input(self.decoder, "tuning.json")
        self.decoder_params = spikecodec.LinearDecoderParams(**self.decoder)

    def run(self, op: Ops) -> None:
        cli, sim, err, sft = spikecodec.cli, spikecodec.simulate, spikecodec.errors, spikecodec.sft
        train_csv = self.path("train.csv")
        op("encode", cli.main, ["encode", "--config", self.path("config.json"), "--out", train_csv])
        op("decode-ideal", cli.main, ["decode", "--train", train_csv, "--mode", "ideal",
                                      "--out", self.path("ideal.csv")])
        op("decode-linear", cli.main, ["decode", "--train", train_csv, "--mode", "linear",
                                       "--tuning", self.path("tuning.json"),
                                       "--out", self.path("linear.csv")])
        self.train = train = op("read", sim.read_spike_train, train_csv)
        fired = train.fired
        self.report = report = op("errors", err.empirical_errors, self.held[fired],
                                  self.t_true[fired], train.spike_times()[fired], train.config)
        op("error-report", err.write_error_report, report, self.path("errors.csv"),
           self.path("errors.json"))
        scfg = sft.SftConfig.for_encoder(train.config, self.decoder_params, frame_size=FRAME)
        self.spectra = op("sft", sft.sft_stream, train, scfg, self.size["hop"])

    def results(self):
        return [self.train.bins, spectra_array(self.spectra)]

    def checks(self):
        m, enc, t_n = self.size["windows"], self.enc, reader_period(self.enc)
        state = {}

        def encoded():
            cols = read_columns(self.path("train.csv"))
            require(len(cols["window"]) == m, f"train has {len(cols['window'])} rows, want {m}")
            require(np.array_equal(np.array(cols["window"], dtype=np.int64), np.arange(m)),
                    "window column is not 0..M-1")
            bins = state["bins"] = np.array([int(c) if c else 0 for c in cols["bin"]])
            with open(self.path("train.json")) as fh:
                require(json.load(fh)["windows"] == m, "sidecar window count")
            threshold = enc["u_th"] - oracle.window_offsets(self.noise_seed, self.delta_u, self.sample)
            want = oracle.reader_bins(self.held[self.sample], threshold, enc["tau"], t_n,
                                      enc["resolution"])
            bad = int(np.sum(want != bins[self.sample]))
            require(bad == 0, f"{bad} of {self.sample.size} sampled windows differ from the LIF reference")

        def reread():
            require(np.array_equal(self.train.bins, state["bins"]), "re-read bins differ from the file")

        def decoded(mode):
            cols = read_columns(self.path(f"{mode}.csv"))
            bins = state["bins"]
            require(len(cols["u_hat"]) == m, f"{mode} decode has {len(cols['u_hat'])} rows, want {m}")
            u = floats(cols["u_hat"])
            require(np.array_equal(np.isnan(u), bins == 0), f"{mode}: blank rows are not the silent windows")
            fired = bins > 0
            t = bins[fired] * t_n
            if mode == "ideal":
                state["u_ideal"] = u
                k = np.rint(oracle.crossing_times(u[fired], enc["u_th"], enc["tau"]) / t_n)
                require(np.array_equal(k, bins[fired]), "ideal decode does not invert to the written bins")
                want = oracle.ideal_voltage(t, enc["u_th"], enc["tau"])
            else:
                want = oracle.linear_values(t, **self.decoder)
            require(np.allclose(u[fired], want, rtol=1e-12, atol=0), f"{mode} decode values")

        def errors():
            fired = state["bins"] > 0
            u_hat = oracle.ideal_voltage(state["bins"][fired] * t_n, enc["u_th"], enc["tau"])
            rmse = math.sqrt(np.mean((self.held[fired] - u_hat) ** 2))
            require(self.report.u_in.size == int(fired.sum()), "report does not cover the fired windows")
            require(math.isclose(self.report.rmse, rmse, rel_tol=1e-9), "report rmse")

        def error_report():
            with open(self.path("errors.json")) as fh:
                doc = json.load(fh)
            with open(self.path("errors.csv")) as fh:
                rows = sum(1 for _ in fh) - 1
            n = int(np.sum(state["bins"] > 0))
            require(doc["samples"] == n and rows == n, "error report row count")
            require(doc["rmse"] == self.report.rmse, "error report rmse")

        def spectra():
            want = (m - FRAME) // self.size["hop"] + 1
            require(len(self.spectra) == want, f"{len(self.spectra)} frames, want {want}")
            coeff = spectra_array(self.spectra)
            lin = linear_frames(state["bins"], enc, self.decoder, FRAME, self.size["hop"])
            held = oracle.frames(self.held, FRAME, self.size["hop"])
            state["sft_rmse"] = check_spectra(coeff, lin, held, state)

        self._state = state
        return [("encode", encoded), ("read", reread),
                ("decode-ideal", lambda: decoded("ideal")),
                ("decode-linear", lambda: decoded("linear")),
                ("errors", errors), ("error-report", error_report), ("sft", spectra)]

    def accuracy(self) -> dict:
        s, fired = self._state, self._state["bins"] > 0
        return {
            "decode_rmse_v": math.sqrt(np.mean((s["u_ideal"][fired] - self.held[fired]) ** 2)),
            "sft_rmse_mag": float(np.mean(s["sft_rmse"])),
            "eps_lin": oracle.eps_lin(self.enc["u_th"], self.enc["tau"], self.enc["u_min"],
                                      self.enc["u_max"], self.decoder["t_lin_min"],
                                      self.decoder["t_lin_max"]),
            "sft.oracle_dev_max": float(s["dev"].max()),
        }


class SlidingSft(Workload):
    """Noiseless closed-form encode, then the S-FT at hop = 1."""

    name = "sliding_sft"
    ops = ("signal", "encode", "sft")
    amplitude, offset = 2.0, 3.0

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        m = self.size["windows"]
        e = REFERENCE_ENCODER
        self.enc = e
        self.frequency = float(self.rng.uniform(49.0, 51.0))
        self.decoder = endpoint_decoder(e)
        self.held = oracle.biased_sine(self.amplitude, self.frequency, self.offset, m,
                                       e["sample_period"])
        self.config = spikecodec.EncoderConfig(
            tau=e["tau"], u_th=e["u_th"], u_min=e["u_min"], u_max=e["u_max"],
            sample_period=e["sample_period"], reader_period=reader_period(e))
        self.spec = spikecodec.SineSpec(self.amplitude, self.frequency, self.offset)
        self.sft_config = spikecodec.SftConfig.for_encoder(
            self.config, spikecodec.LinearDecoderParams(**self.decoder), frame_size=FRAME)

    def run(self, op: Ops) -> None:
        duration = self.size["windows"] * self.enc["sample_period"]
        sig = op("signal", spikecodec.signals.sine, self.spec, duration)
        self.train = op("encode", spikecodec.simulate.encode_signal, sig, self.config)
        self.spectra = op("sft", spikecodec.sft.sft_stream, self.train, self.sft_config,
                          self.size["hop"])

    def results(self):
        return [self.train.bins, spectra_array(self.spectra)]

    def checks(self):
        m, enc = self.size["windows"], self.enc
        state = {}

        def encoded():
            want = oracle.reader_bins(self.held, enc["u_th"], enc["tau"], reader_period(enc),
                                      enc["resolution"])
            require(len(self.train) == m, f"{len(self.train)} windows, want {m}")
            bad = int(np.sum(self.train.bins != want))
            require(bad == 0, f"{bad} windows differ from the LIF reference")

        def spectra():
            want = m - FRAME + 1
            require(len(self.spectra) == want, f"{len(self.spectra)} frames, want {want}")
            coeff = spectra_array(self.spectra)
            lin = linear_frames(self.train.bins, enc, self.decoder, FRAME, 1)
            held = oracle.frames(self.held, FRAME, 1)
            state["sft_rmse"] = check_spectra(coeff, lin, held, state)

        self._state = state
        return [("encode", encoded), ("sft", spectra)]

    def accuracy(self) -> dict:
        enc, bins = self.enc, self.train.bins
        fired = bins > 0
        u_hat = oracle.ideal_voltage(bins[fired] * reader_period(enc), enc["u_th"], enc["tau"])
        return {
            "decode_rmse_v": math.sqrt(np.mean((u_hat - self.held[fired]) ** 2)),
            "sft_rmse_mag": float(np.mean(self._state["sft_rmse"])),
            "eps_lin": oracle.eps_lin(enc["u_th"], enc["tau"], enc["u_min"], enc["u_max"],
                                      self.decoder["t_lin_min"], self.decoder["t_lin_max"]),
            "sft.oracle_dev_max": float(self._state["dev"].max()),
        }


class DesignSweep(Workload):
    """Threshold design study through the CLI: three decoder fits, a
    noisy constant sweep per threshold, and an S-FT frequency sweep."""

    name = "design_sweep"
    sweep_amplitude, sweep_offset, delta_u = 2.0, 3.0, 0.01

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        size = self.size
        self.thresholds = size["thresholds"]
        self.ops = tuple(f"tune-{u:g}" for u in self.thresholds) + ("sweep-constant", "sft-sweep")
        self.tune_seed = int(self.rng.integers(2**31))
        self.noise_seed = int(self.rng.integers(2**31))
        freqs = set()
        while len(freqs) < size["frequencies"]:
            freqs.add(round(float(self.rng.uniform(20.0, 1400.0)), 2))
        self.freqs = sorted(freqs)
        self.pool_threads = min(8, len(self.freqs))
        self.sample = np.sort(self.rng.choice(size["points"], size=min(256, size["points"]),
                                              replace=False))
        tuner = {"generations": size["de_generations"]}
        for u in self.thresholds:
            self.write_input({"encoder": {**WIDE_ENCODER, "u_th": u}, "tuner": tuner},
                             f"tune_{u:g}.json")
        self.write_input({"encoder": WIDE_ENCODER,
                          "noise": {"delta_u": self.delta_u, "mode": "per-window",
                                    "rng_seed": self.noise_seed}},
                         "sweep.json")
        self.write_input({"encoder": REFERENCE_ENCODER,
                          "sft": {"decoder": self.tuning_path(self.thresholds[0]),
                                  "frame_size": FRAME},
                          "signal": {"type": "sine", "amplitude": self.sweep_amplitude,
                                     "offset": self.sweep_offset}},
                         "sft.json")

    def tuning_path(self, u: float) -> str:
        return self.path(f"tuning_{u:g}.json")

    def run(self, op: Ops) -> None:
        cli = spikecodec.cli
        for u in self.thresholds:
            op(f"tune-{u:g}", cli.main, ["tune", "--config", self.path(f"tune_{u:g}.json"),
                                         "--seed", str(self.tune_seed), "--out", self.tuning_path(u)])
        op("sweep-constant", cli.main, [
            "sweep-constant", "--config", self.path("sweep.json"),
            "--thresholds", ",".join(f"{u:g}" for u in self.thresholds),
            "--points", str(self.size["points"]), "--out-dir", self.path("sweep")])
        op("sft-sweep", cli.main, [
            "sft-sweep", "--config", self.path("sft.json"),
            "--freqs", ",".join(f"{f:.2f}" for f in self.freqs), "--out-dir", self.path("sft")])

    def checks(self):
        state = {"eps_lin": [], "sweep_rmse": []}
        wide = WIDE_ENCODER

        def tuned(u):
            with open(self.tuning_path(u)) as fh:
                doc = json.load(fh)
            enc = doc["encoder"]
            require(round(enc["sample_period"] / enc["reader_period"]) == wide["resolution"],
                    "tuning ran at another resolution than configured")
            t_min, t_max = oracle.endpoint_times(u, wide["tau"], wide["u_min"], wide["u_max"])
            endpoint = oracle.eps_lin(u, wide["tau"], wide["u_min"], wide["u_max"], t_min, t_max)
            fitted = oracle.eps_lin(u, wide["tau"], wide["u_min"], wide["u_max"],
                                    doc["t_lin_min"], doc["t_lin_max"])
            require(math.isclose(fitted, doc["eps_lin"], rel_tol=1e-9),
                    f"eps_lin {doc['eps_lin']} does not match its decoder ({fitted})")
            require(doc["eps_lin"] <= endpoint * (1 + 1e-9),
                    f"fit eps_lin {doc['eps_lin']} worse than endpoint {endpoint}")
            state["eps_lin"].append(doc["eps_lin"])

        def swept():
            points = self.size["points"]
            u_in = np.linspace(wide["u_min"], wide["u_max"], points)
            offsets = oracle.window_offsets(self.noise_seed, self.delta_u, self.sample)
            t_n = reader_period(wide)
            for u in self.thresholds:
                stem = os.path.join(self.path("sweep"), f"sweep_uth_{u:g}")
                cols = read_columns(stem + ".csv")
                with open(stem + ".json") as fh:
                    doc = json.load(fh)
                require(len(cols["u_in"]) == points and doc["samples"] == points,
                        f"u_th={u:g}: want {points} rows")
                require(np.array_equal(floats(cols["u_in"]), u_in), f"u_th={u:g}: input grid")
                eps_u = floats(cols["eps_u"])
                require(math.isclose(doc["rmse"], math.sqrt(np.mean(eps_u**2)), rel_tol=1e-9),
                        f"u_th={u:g}: rmse does not match its rows")
                k = oracle.reader_bins(u_in[self.sample], u - offsets, wide["tau"], t_n,
                                       wide["resolution"])
                require(np.all(k > 0), f"u_th={u:g}: reference window stays silent")
                want = np.abs(u_in[self.sample] - oracle.ideal_voltage(k * t_n, u, wide["tau"]))
                require(np.allclose(eps_u[self.sample], want, rtol=1e-9, atol=1e-12),
                        f"u_th={u:g}: sampled errors differ from the LIF reference")
                state["sweep_rmse"].append(doc["rmse"])

        def sft_swept():
            enc, out = REFERENCE_ENCODER, self.path("sft")
            cols = read_columns(os.path.join(out, "summary.csv"))
            got = [float(f) for f in cols["freq_hz"]]
            require(got == self.freqs, f"summary has {len(got)} rows for {len(self.freqs)} frequencies")
            with open(self.tuning_path(self.thresholds[0])) as fh:
                doc = json.load(fh)
            decoder = {key: doc[key] for key in ("t_lin_min", "t_lin_max", "y_min", "y_max")}
            held = np.stack([oracle.biased_sine(self.sweep_amplitude, f, self.sweep_offset, FRAME,
                                                enc["sample_period"]) for f in self.freqs])
            coeff = np.empty((len(self.freqs), FRAME), dtype=complex)
            lin = np.empty_like(held)
            for i, f in enumerate(self.freqs):
                spec = read_columns(os.path.join(out, f"spectrum_{f:g}hz.csv"))
                require(len(spec["bin"]) == FRAME, f"{f:g} Hz: want {FRAME} bins")
                coeff[i] = floats(spec["re"]) + 1j * floats(spec["im"])
                bins = oracle.reader_bins(held[i], enc["u_th"], enc["tau"], reader_period(enc),
                                          enc["resolution"])
                lin[i] = linear_frames(bins, enc, decoder, FRAME, FRAME)[0]
            rmse = check_spectra(coeff, lin, held, state)
            summary = floats(cols["rmse_mag"])
            require(np.allclose(summary, rmse, rtol=1e-9, atol=0), "summary rmse_mag")
            state["sft_rmse"] = summary

        self._state = state
        return ([(f"tune-{u:g}", lambda u=u: tuned(u)) for u in self.thresholds]
                + [("sweep-constant", swept), ("sft-sweep", sft_swept)])

    def accuracy(self) -> dict:
        s = self._state
        return {
            "decode_rmse_v": float(np.mean(s["sweep_rmse"])),
            "sft_rmse_mag": float(np.mean(s["sft_rmse"])),
            "eps_lin": float(np.sum(s["eps_lin"])),
            "sft.oracle_dev_max": float(s["dev"].max()),
        }

    @property
    def windows(self) -> int:
        return len(self.thresholds) * self.size["points"] + len(self.freqs) * FRAME


WORKLOADS = {w.name: w for w in (StreamNoisy, SlidingSft, DesignSweep)}
