"""Span tracing from outside the program, for traced passes only.

install() replaces public spikecodec functions with wrappers in the
namespace that calls them (spikecodec.cli.encode_signal, not only
spikecodec.simulate.encode_signal) and uninstall() puts the originals
back. Each call records a span: id, name, start, end, parent id and
thread id. Spans stay in memory until the pass ends. A timed pass runs
in its own interpreter and never calls install(), so no wrapper is
ever active while a timed metric is measured.

Wrappers are safe to call from several threads: ids come from one
itertools.count, each thread keeps its own stack of open spans, and
counters are updated under a lock. A span opened on a thread with no
open span of its own (the sft-sweep pool) takes the main thread's
innermost open span as its parent.
"""

from __future__ import annotations

import collections
import functools
import itertools
import os
import threading
import time

import spikecodec.cli
import spikecodec.errors
import spikecodec.sft
import spikecodec.signals
import spikecodec.simulate
import spikecodec.tuning

LAYERS = ("cli", "codec", "simulate", "errors", "tuning", "sft", "signals")
CLI_COMMANDS = ("encode", "decode", "tune", "sweep-constant", "sft-sweep")


class Tracer:
    def __init__(self) -> None:
        self.spans = []  # (id, name, start, end, parent id or None, thread id)
        self.counts = collections.Counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(self, fn, name, after=None):
        """Wrap fn in a span. name is a string, or a function of the call's
        positional arguments; after(result, args) runs once the span ends."""
        tracer = self
        label = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, label(args), start, end, parent, threading.get_ident()))
            if after is not None:
                after(result, args)
            return result

        return traced

    def patch(self, owner, attr: str, name, after=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        cli, sim, err = spikecodec.cli, spikecodec.simulate, spikecodec.errors
        sft, sig, tun = spikecodec.sft, spikecodec.signals, spikecodec.tuning

        def train_bytes(csv_path):
            sidecar = os.path.splitext(csv_path)[0] + ".json"
            self.add("simulate.bytes", os.path.getsize(csv_path) + os.path.getsize(sidecar))

        def count_encoded(train, args):
            self.add("simulate.windows", len(train))
            self.add("simulate.silent_windows", int((~train.fired).sum()))

        def count_frames(spectra, args):
            self.add("sft.frames", len(spectra))

        def report_bytes(result, args):
            csv_path = args[1]
            json_path = args[2] if len(args) > 2 else os.path.splitext(csv_path)[0] + ".json"
            self.add("errors.bytes", os.path.getsize(csv_path) + os.path.getsize(json_path))

        self.patch(cli, "main", lambda args: "cli." + args[0][0])
        for owner in (cli, sim):
            self.patch(owner, "encode_signal", "simulate.encode", count_encoded)
            self.patch(owner, "read_spike_train", "simulate.read",
                       lambda train, args: train_bytes(args[0]))
        self.patch(sim.ThermalNoiseModel, "offset", "simulate.noise")
        self.patch(cli, "simulate_window", "simulate.window")
        self.patch(cli, "write_spike_train", "simulate.write",
                   lambda result, args: train_bytes(args[1]))
        self.patch(cli, "decode_ideal", "codec.decode")
        self.patch(cli, "decode_linear", "codec.decode")
        for owner in (cli, tun):
            self.patch(owner, "timing_summary", "codec.timing_summary")
        for owner in (cli, err):
            self.patch(owner, "empirical_errors", "errors.empirical")
            self.patch(owner, "write_error_report", "errors.write", report_bytes)
        self.patch(cli, "fit_linear_decoder", "tuning.fit")
        self.patch(tun, "linear_error", "tuning.objective")
        self.patch(cli, "write_tuning", "tuning.write")
        self.patch(cli, "read_decoder", "tuning.read")
        for owner in (cli, sft):
            self.patch(owner, "sft_stream", "sft.stream", count_frames)
        self.patch(sft, "sft_frame", "sft.frame")
        self.patch(cli, "write_spectrum", "sft.write")
        self.patch(cli, "ideal_adc_fft", "signals.fft_ref")
        for owner in (cli, sig):
            self._patch_generator(owner, "sine")

    def _patch_generator(self, owner, attr: str) -> None:
        """Span the signal generator and the sampling of what it returns."""
        original = getattr(owner, attr)
        tracer = self

        def generate(*args, **kwargs):
            signal = original(*args, **kwargs)
            return spikecodec.simulate.AnalogSignal(
                func=tracer.wrap(signal.func, "signals.generate"), duration=signal.duration)

        functools.update_wrapper(generate, original)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(generate, "signals.generate"))


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover.

    Children of one span may overlap when they ran on pool threads, so
    the covered part is the length of the union of their intervals.
    """
    children = collections.defaultdict(list)
    for _sid, _name, start, end, parent, _tid in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _tid in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(tracer: Tracer, frame_size: int) -> dict:
    """Per-layer metrics of one traced pass, as plain numbers.

    Times (`*_s`) are inclusive span time summed over calls and threads;
    `<layer>.self_s` sums the self time of every span of that layer.
    """
    total = collections.Counter()
    calls = collections.Counter()
    layer_self = collections.Counter({layer: 0.0 for layer in LAYERS})
    own = self_times(tracer.spans)
    for sid, name, start, end, _parent, _tid in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own[sid]
    counts = tracer.counts
    m = {
        "simulate.encode_s": total["simulate.encode"],
        "simulate.windows": counts["simulate.windows"],
        "simulate.silent_windows": counts["simulate.silent_windows"],
        "simulate.noise_draws": calls["simulate.noise"],
        "simulate.noise_s": total["simulate.noise"],
        "simulate.window_calls": calls["simulate.window"],
        "simulate.window_s": total["simulate.window"],
        "simulate.write_s": total["simulate.write"],
        "simulate.read_s": total["simulate.read"],
        "simulate.bytes": counts["simulate.bytes"],
        "codec.decode_calls": calls["codec.decode"],
        "codec.decode_s": total["codec.decode"],
        "codec.timing_summary_calls": calls["codec.timing_summary"],
        "errors.empirical_s": total["errors.empirical"],
        "errors.write_s": total["errors.write"],
        "errors.bytes": counts["errors.bytes"],
        "tuning.fits": calls["tuning.fit"],
        "tuning.fit_s": total["tuning.fit"],
        "tuning.objective_evals": calls["tuning.objective"],
        "tuning.write_s": total["tuning.write"],
        "sft.frames": counts["sft.frames"],
        "sft.frame_calls": calls["sft.frame"],
        "sft.stream_s": total["sft.stream"],
        "sft.macs": 2 * frame_size * frame_size * counts["sft.frames"],
        "sft.write_s": total["sft.write"],
        "signals.generate_s": total["signals.generate"],
        "signals.fft_ref_calls": calls["signals.fft_ref"],
        "signals.fft_ref_s": total["signals.fft_ref"],
        "trace.spans": len(tracer.spans),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = total[f"cli.{command}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def write_spans(spans, path: str) -> None:
    """CSV of every span, times in seconds from the first span's start."""
    origin = min((s[2] for s in spans), default=0.0)
    with open(path, "w") as fh:
        fh.write("id,name,start_s,end_s,parent,thread\n")
        for sid, name, start, end, parent, tid in sorted(spans):
            fh.write(f"{sid},{name},{start - origin!r},{end - origin!r},"
                     f"{'' if parent is None else parent},{tid}\n")
