import contextlib
import csv
import io
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikecodec import cli
from spikecodec.cli import SCHEMA, main


# A JSON integer past float range: 401 digits.
HUGE = 10**400
# The end of a decoder's error when a span or the slope leaves float range.
SPAN_RULE = "their ratio (the slope) and its reciprocal all above 0 and within float range"
# A decoder whose code times all fall before the window starts, the
# error that names it after its source (inline, or a tuning file), and
# the runs it fails: the default sine, where every window fires, and a
# sine down to 0 V, which leaves some silent.
EARLY_DECODER = {"t_lin_min": -2e-4, "t_lin_max": -1e-4, "y_min": 1.0, "y_max": 5.0}
EARLY_DECODER_RULE = ("need decoder t_lin_max >= 0, got -0.0001 s: "
                      "silent windows enter the S-FT at that time")
EARLY_DECODER_RUNS = [({}, "sft"), ({"amplitude": 3.0, "offset": 3.0}, "sft"),
                      ({"amplitude": 3.0, "offset": 3.0}, "sft-sweep")]


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


BASE = {
    "encoder": {
        "tau": 3e-3, "u_th": 0.1, "u_min": 1.0, "u_max": 5.0,
        "sample_period": 1.0 / 3000.0, "resolution": 100,
    },
    "signal": {"type": "sine", "amplitude": 2.0, "frequency": 500.0,
               "offset": 3.0, "windows": 12},
    "tuner": {"generations": 30},
}


class TestEncodeDecode:
    def test_encode_writes_train_and_sidecar(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        out = str(tmp_path / "train.csv")
        assert main(["encode", "--config", cfg, "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        assert all(r["bin"] for r in rows)  # all windows spike in range
        meta = json.loads((tmp_path / "train.json").read_text())
        assert meta["encoder"]["u_th"] == 0.1
        assert "12 windows" in capsys.readouterr().out

    def test_decode_ideal_recovers_held_voltages(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        train = str(tmp_path / "train.csv")
        main(["encode", "--config", cfg, "--out", train])
        out = str(tmp_path / "decoded.csv")
        assert main(["decode", "--train", train, "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        t = np.arange(12) / 3000.0
        held = 2.0 * np.sin(2 * np.pi * 500.0 * t) + 3.0
        decoded = np.array([float(r["u_hat"]) for r in rows])
        # one reader bin of quantization at most
        assert np.abs(decoded - held).max() < 0.25

    def test_decode_linear_needs_tuning_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        train = str(tmp_path / "train.csv")
        main(["encode", "--config", cfg, "--out", train])
        rc = main(["decode", "--train", train, "--mode", "linear",
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 1
        assert "tuning" in capsys.readouterr().err

    def test_decode_linear_with_tuning(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        train = str(tmp_path / "train.csv")
        tuning = str(tmp_path / "tuning.json")
        main(["encode", "--config", cfg, "--out", train])
        main(["tune", "--config", cfg, "--out", tuning])
        out = str(tmp_path / "decoded.csv")
        assert main(["decode", "--train", train, "--mode", "linear",
                     "--tuning", tuning, "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12


class TestTune:
    def test_writes_fit_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        out = str(tmp_path / "tuning.json")
        assert main(["tune", "--config", cfg, "--out", out, "--seed", "5"]) == 0
        doc = json.loads((tmp_path / "tuning.json").read_text())
        for key in ("k1", "k2", "t_lin_min", "t_lin_max", "eps_lin", "mu", "seed"):
            assert key in doc
        assert doc["seed"] == 5
        assert doc["encoder"]["u_max"] == 5.0
        assert "eps_lin" in capsys.readouterr().out

    def test_seed_is_null_without_the_flag(self, tmp_path):
        out = tmp_path / "tuning.json"
        assert main(["tune", "--config", write_config(tmp_path, BASE), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] is None


class TestSweepConstant:
    def test_per_threshold_reports(self, tmp_path):
        cfg = write_config(tmp_path, {})  # defaults handle the wide window
        out_dir = str(tmp_path / "sweep")
        assert main(["sweep-constant", "--config", cfg, "--thresholds", "0.1,0.9",
                     "--points", "32", "--out-dir", out_dir]) == 0
        with open(tmp_path / "sweep" / "sweep_uth_0.1.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 32
        assert set(rows[0]) == {"u_in", "eps_u", "eps_ts"}
        lo = json.loads((tmp_path / "sweep" / "sweep_uth_0.1.json").read_text())
        hi = json.loads((tmp_path / "sweep" / "sweep_uth_0.9.json").read_text())
        assert hi["t_max"] > lo["t_max"]  # higher threshold stretches the code
        assert hi["mu"] > lo["mu"]


class TestSft:
    def test_single_point_outputs(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "sft": {"frame_size": 24},
                                      "signal": {**BASE["signal"], "windows": 24}})
        prefix = str(tmp_path / "run")
        assert main(["sft", "--config", cfg, "--out-prefix", prefix]) == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["frame_size"] == 24
        assert doc["rmse_mag"] >= 0
        with open(tmp_path / "run_spectrum.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 24
        assert (tmp_path / "run_ideal.csv").exists()

    def test_sweep_summary_sorted(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "sft": {"frame_size": 24}})
        out_dir = str(tmp_path / "sweep")
        assert main(["sft-sweep", "--config", cfg, "--freqs", "500,100",
                     "--out-dir", out_dir]) == 0
        with open(tmp_path / "sweep" / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["freq_hz"]) for r in rows] == [100.0, 500.0]
        assert (tmp_path / "sweep" / "spectrum_500hz.csv").exists()

    def test_sweep_runs_the_library_sine_and_stream(self, tmp_path, monkeypatch):
        # the sweep used to restate the sine and the stream's framing,
        # so a wrapper around either saw no call
        calls = {"sine": [], "sft_stream": []}

        def spy(name):
            original = getattr(cli, name)

            def wrapped(*args, **kwargs):
                calls[name].append(args)
                return original(*args, **kwargs)
            monkeypatch.setattr(cli, name, wrapped)

        spy("sine")
        spy("sft_stream")
        cfg = write_config(tmp_path, {**BASE, "sft": {"frame_size": 24}})
        assert main(["sft-sweep", "--config", cfg, "--freqs", "50,500,100",
                     "--out-dir", str(tmp_path / "sweep")]) == 0
        assert sorted(spec.frequency for spec, _ in calls["sine"]) == [50.0, 100.0, 500.0]
        [(train, scfg)] = calls["sft_stream"]
        assert scfg.frame_size == 24 and len(train) == 3 * 24


class TestFailureModes:
    def test_invalid_encoder_names_the_violated_rule(self, tmp_path, capsys):
        bad = {"encoder": {**BASE["encoder"], "sample_period": 1.48e-4}}
        cfg = write_config(tmp_path, bad)
        rc = main(["encode", "--config", cfg, "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "slowest spike" in capsys.readouterr().err

    def test_unknown_signal_type(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"signal": {"type": "square", "windows": 4}})
        rc = main(["encode", "--config", cfg, "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "square" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, named", [
        ({"encoder": {**BASE["encoder"], "tua": 3e-3}}, ["'encoder'", "'tua'"]),
        ({"tuner": {"populaton": 30}}, ["'tuner'", "'populaton'"]),
        ({"tuner": {"rng_seed": 0}}, ["'tuner'", "'rng_seed'"]),
        ({"encodr": {}}, ["'encodr'"]),
    ])
    def test_unknown_config_key_is_named(self, tmp_path, capsys, doc, named):
        cfg = write_config(tmp_path, doc)
        rc = main(["tune", "--config", cfg, "--out", str(tmp_path / "t.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(word in err for word in named)

    def test_two_timing_keys_fix_the_third(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "encoder": {**BASE["encoder"], "resolution": 200}})
        assert main(["encode", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 0
        meta = json.loads((tmp_path / "t.json").read_text())["encoder"]
        assert meta["reader_period"] == BASE["encoder"]["sample_period"] / 200

    def test_two_timing_keys_that_leave_too_short_a_window(self, tmp_path, capsys):
        # a window of 50 bins of 1/300000 s is shorter than the slowest
        # spike; the resolution must not stretch it
        cfg = write_config(tmp_path, {"encoder": {"sample_period": 50 / 300000.0,
                                                  "resolution": 50}})
        rc = main(["tune", "--config", cfg, "--out", str(tmp_path / "t.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: slowest spike")

    def test_inconsistent_timing_keys_are_rejected(self, tmp_path, capsys):
        # reader_period is sample_period / resolution, so a config
        # cannot give a third timing key that disagrees with the two
        cfg = write_config(tmp_path, {"encoder": {**BASE["encoder"],
                                                  "reader_period": 1.0 / 300000.0,
                                                  "resolution": 50}})
        rc = main(["tune", "--config", cfg, "--out", str(tmp_path / "t.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: config section 'encoder' has unknown key(s): 'reader_period'\n")
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("argv, bins", [
        (["encode", "--out", "t.csv"], 100),
        (["sweep-constant", "--points", "16", "--out-dir", "."], 5000),
    ], ids=["encode", "sweep-constant"])
    def test_sample_period_keeps_the_commands_resolution(self, tmp_path, monkeypatch, argv, bins):
        # sweep-constant used to keep its reader period instead, and
        # read the doubled window in 10,000 bins
        outputs = []
        for i, encoder in enumerate([{"sample_period": 0.0148},
                                     {"sample_period": 0.0148, "resolution": bins}]):
            cfg = write_config(tmp_path, {"encoder": encoder})
            run = tmp_path / str(i)
            run.mkdir()
            monkeypatch.chdir(run)
            assert main([*argv, "--config", cfg]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(run.iterdir())})
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("keep", [slice(0, 5), slice(1, None)])
    def test_truncated_train_is_rejected(self, tmp_path, capsys, keep):
        cfg = write_config(tmp_path, BASE)
        train = tmp_path / "train.csv"
        main(["encode", "--config", cfg, "--out", str(train)])
        lines = train.read_text().splitlines(keepends=True)
        train.write_text(lines[0] + "".join(lines[1:][keep]))
        out = tmp_path / "decoded.csv"
        rc = main(["decode", "--train", str(train), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_non_finite_signal_is_rejected(self, tmp_path, capsys):
        # a NaN input used to encode as a train of silent windows
        cfg = write_config(tmp_path, {**BASE, "signal": {"type": "constant", "level": float("nan")}})
        out = tmp_path / "t.csv"
        rc = main(["encode", "--config", cfg, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: window 0 holds a non-finite input voltage")
        assert not out.exists() and not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("encoder", "tau", "abc"),
        ("noise", "delta_u", True),
        ("sft", "frame_size", [128]),
        ("signal", "amplitude", None),
    ])
    def test_wrongly_typed_config_value_is_named(self, tmp_path, capsys, section, key, value):
        doc = {**BASE, "noise": {"delta_u": 0.01}, "sft": {"frame_size": 4}}
        doc[section] = {**doc[section], key: value}
        cfg = write_config(tmp_path, doc)
        rc = main(["sft", "--config", cfg, "--out-prefix", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: config section {section!r} key {key!r} must be a number, got {value!r}\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    @pytest.mark.parametrize("doc, message", [
        ({"encoder": 5}, "config section 'encoder' must be a JSON object, got 5"),
        ({"signal": [1]}, "config section 'signal' must be a JSON object, got [1]"),
        (5, "config must be a JSON object, got 5"),
    ])
    def test_section_that_is_not_an_object_is_named(self, tmp_path, capsys, doc, message):
        out = tmp_path / "t.csv"
        rc = main(["encode", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # 2**49 elements of 8 bytes are past the 128 TiB user address space,
    # so the allocation fails whatever the overcommit setting
    @pytest.mark.parametrize("argv", [
        ["sweep-constant", "--config", "config.json", "--points", str(2**49), "--out-dir", "out"],
        ["encode", "--config", "config.json", "--out", "t.csv"],
    ])
    def test_oversized_allocation_is_named(self, tmp_path, capsys, monkeypatch, argv):
        # numpy's _ArrayMemoryError used to end the command in a traceback
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, {"signal": {"type": "constant", "level": 3.0, "windows": 2**49}})
        rc = main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_null_sections_read_as_empty(self, tmp_path):
        cfg = write_config(tmp_path, {"encoder": None})
        assert main(["encode", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 0
        cfg = write_config(tmp_path, {name: None for name in ("encoder", "noise", "tuner",
                                                               "sft", "signal")})
        assert main(["sft", "--config", cfg, "--out-prefix", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("noise, named", [
        ({"delta_u": 0.01, "mode": "per-window", "rng_seed": 1.5}, "rng_seed"),
        ({"delta_u": 0.01, "mode": "per-window", "rng_seed": -3}, "rng_seed"),
        ({"delta_u": float("nan"), "mode": "per-window"}, "delta_u"),
        ({"delta_u": float("nan"), "mode": "constant"}, "delta_u"),
        ({"delta_u": 0.0, "rng_seed": -3}, "rng_seed"),  # checked even when noiseless
    ])
    def test_invalid_noise_field_is_named(self, tmp_path, capsys, noise, named):
        # a NaN delta_u used to encode every window as silence
        cfg = write_config(tmp_path, {**BASE, "noise": noise})
        out = tmp_path / "t.csv"
        rc = main(["encode", "--config", cfg, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} must be") and err.count("\n") == 1
        assert not out.exists() and not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("argv, message", [
        (["sweep-constant", "--points", "0"], "error: --points must be at least 1, got 0\n"),
        (["sweep-constant", "--thresholds", ""],
         "error: --thresholds must be a comma-separated list of numbers, got ''\n"),
        (["sft-sweep", "--freqs", ""],
         "error: --freqs must be a comma-separated list of numbers, got ''\n"),
        # each point is one window: past 2**53 the count ended in numpy's
        # "Maximum allowed size exceeded", which named neither
        pytest.param(["sweep-constant", "--points", str(2**53 + 1)],
                     f"error: --points must be at most {2**53}, got {2**53 + 1}\n", id="points-2**53+1"),
        pytest.param(["sweep-constant", "--points", str(HUGE)],
                     f"error: --points must be at most {2**53}, got {HUGE}\n", id="points-10**400"),
    ])
    def test_bad_list_or_count_argument_is_named(self, tmp_path, capsys, argv, message):
        out_dir = tmp_path / "out"
        rc = main(argv + ["--out-dir", str(out_dir)])
        assert rc == 1
        assert capsys.readouterr().err == message
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv", [
        ["encode", "--out", "t.csv"],
        ["sweep-constant", "--points", "4", "--out-dir", "out"],
        ["tune", "--out", "tuning.json"],
        ["sft", "--out-prefix", "run"],
        ["sft-sweep", "--out-dir", "out"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_refused(self, tmp_path, capsys, monkeypatch, argv):
        # tune recorded "seed": -5, and encode without noise exited 0
        monkeypatch.chdir(tmp_path)
        rc = main(argv + ["--config", write_config(tmp_path, BASE), "--seed", "-5"])
        assert rc == 1
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -5\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("argv, doc, message", [
        (["sweep-constant", "--thresholds", "0.1,0.9", "--points", "16"],
         {"encoder": {"sample_period": 1e-3, "resolution": 1000}},
         "error: slowest spike exceeds sample_period"),
        (["sft-sweep", "--freqs", "50,nan"], {**BASE, "sft": {"frame_size": 24}},
         "error: frequency must be finite"),
        # 2*pi*nu overflowed, and the NaN samples were blamed on window 0
        (["sft-sweep", "--freqs", "50,1.7e308"], {**BASE, "sft": {"frame_size": 24}},
         "error: frequency 1.7e+308 Hz over 0.008 s overflows the sine's phase 2*pi*nu*t"),
    ], ids=["sweep-constant", "sft-sweep", "sft-sweep-phase"])
    def test_failed_sweep_writes_nothing(self, tmp_path, capsys, argv, doc, message):
        # the first entry succeeds and the second fails
        out_dir = tmp_path / "out"
        rc = main(argv + ["--config", write_config(tmp_path, doc), "--out-dir", str(out_dir)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv, message", [
        (["sft-sweep", "--freqs", "1000.0001,1000.0004"],
         "error: --freqs entries 1000.0001 and 1000.0004 would both write spectrum_1000hz.csv\n"),
        (["sft-sweep", "--freqs", "50,100,50"],
         "error: --freqs entries 50.0 and 50.0 would both write spectrum_50hz.csv\n"),
        (["sweep-constant", "--thresholds", "0.1,0.1"],
         "error: --thresholds entries 0.1 and 0.1 would both write sweep_uth_0.1.csv\n"),
        (["sweep-constant", "--thresholds", "0.5,0.50000001"],
         "error: --thresholds entries 0.5 and 0.50000001 would both write sweep_uth_0.5.csv\n"),
    ], ids=["freqs-close", "freqs-repeated", "thresholds-repeated", "thresholds-close"])
    def test_colliding_sweep_entries_are_named(self, tmp_path, capsys, argv, message):
        # The config file does not exist: the entries are checked before
        # it is read.
        out_dir = tmp_path / "out"
        rc = main(argv + ["--config", str(tmp_path / "missing.json"), "--out-dir", str(out_dir)])
        assert rc == 1
        assert capsys.readouterr().err == message
        assert not out_dir.exists()

    @staticmethod
    def _three_window_train(tmp_path, text, encoder=None):
        """A train.csv holding text, with the sidecar of a 3-window train
        (its encoder replaced by encoder when given)."""
        cfg = write_config(tmp_path, BASE)
        train = tmp_path / "train.csv"
        main(["encode", "--config", cfg, "--out", str(train)])
        meta = json.loads((tmp_path / "train.json").read_text())
        meta["windows"] = 3
        if encoder is not None:
            meta["encoder"] = encoder
        (tmp_path / "train.json").write_text(json.dumps(meta))
        train.write_bytes(text.encode())
        return train

    @pytest.mark.parametrize("text, encoder, name, message", [
        ("window,bin\n0,31\n1\n2,19\n", None, "train.csv", "row 2 should hold 2 cells, holds 1"),
        ("window,bin\n0,31\n1,2,3\n2,19\n", None, "train.csv", "row 2 should hold 2 cells, holds 3"),
        ("window,bin\n0,31\n1,x\n2,19\n", None, "train.csv", "row 2 has bin 'x', not an integer"),
        ("bin,window\n31,0\n,1\n19,2\n", None, "train.csv",
         "header is 'bin,window', expected 'window,bin'"),
        ("window,bin,note\n0,31,a\n1,,b\n2,19,c\n", None, "train.csv",
         "header is 'window,bin,note', expected 'window,bin'"),
        ("window,bin\n0,31\n1,\n2,19\n", {"u_th": 0.1}, "train.json",
         "bad sidecar encoder (EncoderConfig.__init__() missing"),
        ("window,bin\n0,31\n1,\n2,19\n", 5, "train.json", "sidecar has no encoder object"),
        ("window,bin\n0,31\n1,101\n2,19\n", None, "train.csv", "row 2 has bin 101, outside 0..100"),
        ("window,bin\n0,31\n1,-3\n2,19\n", None, "train.csv", "row 2 has bin -3, outside 0..100"),
    ])
    def test_malformed_train_is_named(self, tmp_path, capsys, text, encoder, name, message):
        # a row without a comma used to end decode in an AttributeError,
        # a sidecar encoder without its keys in a TypeError
        train = self._three_window_train(tmp_path, text, encoder)
        capsys.readouterr()
        out = tmp_path / "decoded.csv"
        rc = main(["decode", "--train", str(train), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / name}: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text, edit, message", [
        # the encoder's own check used to print without the file
        ("window,bin\n0,31\n1,\n2,19\n", lambda m: m["encoder"].update(tau=-1.0),
         "bad sidecar encoder (tau must be positive)"),
        # a sidecar from before u_rest was deleted; encoding the train again mends it
        ("window,bin\n0,31\n1,\n2,19\n", lambda m: m["encoder"].update(u_rest=0.0),
         "bad sidecar encoder (EncoderConfig.__init__() got an unexpected keyword argument "
         "'u_rest')"),
        # true decoded a one-window train, 3.0 passed as 3, and a missing
        # count was named as the train's "its sidecar records None"
        ("window,bin\n0,31\n", lambda m: m.update(windows=True),
         "sidecar key 'windows' must be a non-negative integer, got True"),
        ("window,bin\n0,31\n1,\n2,19\n", lambda m: m.update(windows=3.0),
         "sidecar key 'windows' must be a non-negative integer, got 3.0"),
        ("window,bin\n0,31\n1,\n2,19\n", lambda m: m.update(windows=-3),
         "sidecar key 'windows' must be a non-negative integer, got -3"),
        ("window,bin\n0,31\n1,\n2,19\n", lambda m: m.pop("windows"),
         "sidecar key 'windows' must be a non-negative integer, got None"),
        # decode exited 0 and read_spike_train returned the seed 'x'
        ("window,bin\n0,31\n1,\n2,19\n", lambda m: m.update(seed="x"),
         "sidecar key 'seed' must be null or a non-negative integer, got 'x'"),
        # true passed as the number 1
        ("window,bin\n0,31\n1,\n2,19\n", lambda m: m["encoder"].update(u_th=True),
         "bad sidecar encoder (u_th must be a finite number, got True)"),
        # ended in "OverflowError: int too large to convert to float"
        ("window,bin\n0,31\n1,\n2,19\n", lambda m: m["encoder"].update(tau=HUGE),
         f"bad sidecar encoder (tau must be a finite number, got {HUGE})"),
    ], ids=["encoder-check", "older-u_rest", "windows-bool", "windows-float", "windows-negative",
            "windows-missing", "seed-string", "encoder-bool", "encoder-huge"])
    def test_malformed_sidecar_is_named(self, tmp_path, capsys, text, edit, message):
        train = self._three_window_train(tmp_path, text)
        sidecar = tmp_path / "train.json"
        meta = json.loads(sidecar.read_text())
        edit(meta)
        sidecar.write_text(json.dumps(meta))
        capsys.readouterr()
        out = tmp_path / "decoded.csv"
        assert main(["decode", "--train", str(train), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {sidecar}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "window,bin\n0,31\n1,\n2,19",  # no newline after the last row
        "window,bin\r\n0,31\r\n1,\r\n2,19\r\n",
        " window , bin \n 0 , 31 \n1, \n2,19\n",
    ])
    def test_train_layouts_that_still_read(self, tmp_path, text):
        train = self._three_window_train(tmp_path, "window,bin\n0,31\n1,\n2,19\n")
        assert main(["decode", "--train", str(train), "--out", str(tmp_path / "want.csv")]) == 0
        train.write_bytes(text.encode())
        out = tmp_path / "decoded.csv"
        assert main(["decode", "--train", str(train), "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert out.read_text().splitlines()[2] == "1,"

    @pytest.mark.parametrize("doc, message", [
        # each used to end decode in KeyError, TypeError or a numpy
        # ufunc error, without naming the file
        ({"t_lin_min": 5e-5, "y_min": 1.0, "y_max": 5.0}, "tuning file lacks 't_lin_max'"),
        ([5e-5, 3e-4, 1.0, 5.0], "tuning file is not a JSON object"),
        ({"t_lin_min": "a", "t_lin_max": "b", "y_min": 1.0, "y_max": 5.0},
         "tuning file 't_lin_min' must be a finite number, got 'a'"),
        ({"t_lin_min": 3e-4, "t_lin_max": 5e-5, "y_min": 1.0, "y_max": 5.0},
         "need t_lin_max > t_lin_min"),
        # ended in "OverflowError: int too large to convert to float"
        ({"t_lin_min": HUGE, "t_lin_max": 3e-4, "y_min": 1.0, "y_max": 5.0},
         f"tuning file 't_lin_min' must be a finite number, got {HUGE}"),
        # a span past float range wrote -inf after a RuntimeWarning, or
        # y_max, in every row, and a slope past float range -inf
        ({"t_lin_min": 0.0, "t_lin_max": 1e-3, "y_min": -1.7e308, "y_max": 1.7e308},
         f"need t_lin_max - t_lin_min = 0.001, y_max - y_min = inf, {SPAN_RULE}"),
        ({"t_lin_min": -1.7e308, "t_lin_max": 1.7e308, "y_min": 1.0, "y_max": 5.0},
         f"need t_lin_max - t_lin_min = inf, y_max - y_min = 4.0, {SPAN_RULE}"),
        ({"t_lin_min": 0.0, "t_lin_max": 1e-10, "y_min": 0.0, "y_max": 1e300},
         f"need t_lin_max - t_lin_min = 1e-10, y_max - y_min = 1e+300, {SPAN_RULE}"),
    ])
    def test_malformed_tuning_file_is_named(self, tmp_path, capsys, doc, message):
        train = tmp_path / "train.csv"
        main(["encode", "--config", write_config(tmp_path, BASE), "--out", str(train)])
        tuning = tmp_path / "tuning.json"
        tuning.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "decoded.csv"
        rc = main(["decode", "--train", str(train), "--mode", "linear",
                   "--tuning", str(tuning), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {tuning}: {message}\n"
        assert not out.exists()

    # (command, its output files): decode reads the train's encoder, sft
    # the config's; both are the defaults here
    TUNED_RUNS = {
        "decode": (["decode", "--train", "train.csv", "--mode", "linear", "--tuning", "tuning.json",
                    "--out", "out.csv"], ["out.csv"]),
        "sft": (["sft", "--config", "sft.json", "--out-prefix", "out"],
                ["out_spectrum.csv", "out_ideal.csv", "out.json"]),
    }

    @pytest.mark.parametrize("command", sorted(TUNED_RUNS))
    def test_tuning_file_of_another_encoder_is_refused(self, tmp_path, monkeypatch, capsys, command):
        # a file fitted for u_th = 0.2 V and tau = 1 ms used to be applied
        # to the default encoder with exit 0: sft printed rmse_mag=19.4376,
        # against 6.47398 with a fresh fit
        argv, outputs = self.TUNED_RUNS[command]
        self._tuned_inputs(tmp_path, monkeypatch, {"u_th": 0.2, "tau": 1e-3})
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: tuning.json: tuning file was fitted for encoder tau = 0.001, not the 0.003 in use\n")
        assert not any(map(Path.exists, map(Path, outputs)))

    @pytest.mark.parametrize("signal, command", EARLY_DECODER_RUNS,
                             ids=["sft", "sft-some-silent", "sft-sweep-some-silent"])
    def test_tuning_file_that_ends_before_the_window_is_refused(self, tmp_path, monkeypatch, capsys,
                                                                 signal, command):
        monkeypatch.chdir(tmp_path)
        Path("tuning.json").write_text(json.dumps(EARLY_DECODER))
        write_config(tmp_path, {"sft": {"decoder": "tuning.json"}, "signal": signal})
        out = {"sft": ["--out-prefix", "run"], "sft-sweep": ["--out-dir", "sweep"]}[command]
        assert main([command, "--config", "config.json", *out]) == 1
        assert capsys.readouterr().err == f"error: tuning.json: {EARLY_DECODER_RULE}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "tuning.json"]

    def test_tuning_file_that_ends_before_the_window_is_named_by_its_path(self, tmp_path, capsys):
        # the path as the config gives it, as read_decoder's own rules do
        fits = tmp_path / "fits"
        fits.mkdir()
        tuning = fits / "early.json"
        tuning.write_text(json.dumps(EARLY_DECODER))
        config = write_config(tmp_path, {"sft": {"decoder": str(tuning)}})
        assert main(["sft", "--config", config, "--out-prefix", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {tuning}: {EARLY_DECODER_RULE}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "fits"]

    @pytest.mark.parametrize("command", sorted(TUNED_RUNS))
    def test_tuning_file_of_another_resolution_loads(self, tmp_path, monkeypatch, command):
        # the reader's timing does not move a fit, so a file fitted at 50
        # bins per window gives the bytes of one fitted at the 100 in use
        argv, outputs = self.TUNED_RUNS[command]
        self._tuned_inputs(tmp_path, monkeypatch, {})
        assert main(argv) == 0
        want = [Path(name).read_bytes() for name in outputs]
        self._tuned_inputs(tmp_path, monkeypatch, {"resolution": 50})
        assert main(argv) == 0
        assert [Path(name).read_bytes() for name in outputs] == want

    @staticmethod
    def _tuned_inputs(tmp_path, monkeypatch, encoder):
        """In tmp_path as the working directory: a default-encoder
        train, a tuning file fitted for encoder over the defaults, and
        an sft config that reads it."""
        monkeypatch.chdir(tmp_path)
        Path("tune.json").write_text(json.dumps({"encoder": encoder}))
        Path("sft.json").write_text(json.dumps({"sft": {"decoder": "tuning.json"}}))
        assert main(["encode", "--out", "train.csv"]) == 0
        assert main(["tune", "--config", "tune.json", "--out", "tuning.json"]) == 0

    def test_ideal_mode_refuses_a_tuning_file(self, tmp_path, capsys):
        # the file used to be read and checked, then left out of the decode
        train = tmp_path / "train.csv"
        main(["encode", "--config", write_config(tmp_path, BASE), "--out", str(train)])
        tuning = tmp_path / "tuning.json"
        tuning.write_text(json.dumps({"t_lin_min": 5e-5, "t_lin_max": 3e-4, "y_min": 1.0, "y_max": 5.0}))
        capsys.readouterr()
        out = tmp_path / "decoded.csv"
        rc = main(["decode", "--train", str(train), "--mode", "ideal",
                   "--tuning", str(tuning), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: ideal mode takes no --tuning: it decodes with the train's own encoder\n")
        assert not out.exists()

    @pytest.mark.parametrize("doc, command, message", [
        # each of these used to end in a traceback, run on with a wrong
        # value, or name the missing key alone
        # the fit's box and quadrature are constants; a key that set them is refused
        ({"tuner": {"grid_points": 2.5}}, "tune", "config section 'tuner' has unknown key(s): 'grid_points'"),
        ({"encoder": {"resolution": 0}}, "encode",
         "config section 'encoder' key 'resolution' must be an integer of at least 1, got 0"),
        # windows is the one length key
        ({"signal": {"duration": float("inf")}}, "encode",
         "config section 'signal' has unknown key(s): 'duration'"),
        ({"signal": {"windows": 10.5}}, "encode",
         "config section 'signal' key 'windows' must be an integer of at least 1, got 10.5"),
        ({"sft": {"frame_size": 128.5}}, "sft",
         "config section 'sft' key 'frame_size' must be an integer of at least 2, got 128.5"),
        # the ideal readout is exact, so its length used to be accepted and change nothing
        ({"sft": {"readout_phase_steps": 16}}, "sft",
         "config section 'sft' has unknown key(s): 'readout_phase_steps'"),
        # the charge phase lasts one window, the length every caller set
        ({"sft": {"charge_phase_steps": 100}}, "sft",
         "config section 'sft' has unknown key(s): 'charge_phase_steps'"),
        ({"signal": {"type": "constant"}}, "encode",
         "config section 'signal' needs key 'level' for type 'constant'"),
        ({"signal": {"type": "constant", "level": 3}}, "sft",
         "sft needs signal type 'sine', got 'constant'"),
        ({"signal": {"type": "constant", "level": 3}}, "sft-sweep",
         "sft-sweep needs signal type 'sine', got 'constant'"),
        ({"noise": {"delta_u": 0.01, "mode": "per window"}}, "encode",
         "config section 'noise' key 'mode' must be one of 'constant', 'per-window', "
         "got 'per window'"),
        ({"tuner": {"generations": "many"}}, "tune",
         "config section 'tuner' key 'generations' must be a number or null, got 'many'"),
        # tune wrote "eps_lin": Infinity and sft printed rmse_mag=inf, both exiting 0
        ({"encoder": {"u_max": 1e300}}, "tune",
         "decoder fit error eps_lin is inf: the working range 1..1e+300 V overflows its quadrature"),
        ({"encoder": {"u_max": 1e300}}, "sft",
         "decoder fit error eps_lin is inf: the working range 1..1e+300 V overflows its quadrature"),
        # a duration of any size is refused before it is read
        ({"signal": {"duration": 1e300}}, "encode",
         "config section 'signal' has unknown key(s): 'duration'"),
        # t_min came out 0.0 and TimingSummary ended in ZeroDivisionError
        ({"encoder": {"u_th": 1e-300, "u_max": 1e300}}, "tune",
         "fastest spike underflows: crossing_time(u_max = 1e+300 V) = 0.0 s, not > 0"),
        ({"encoder": {"u_th": 1e-300, "u_max": 1e300}}, "sft",
         "fastest spike underflows: crossing_time(u_max = 1e+300 V) = 0.0 s, not > 0"),
        # each wrote an RMSE of Infinity into its JSON and exited 0
        *[({section: {key: value}}, command,
           "spectrum error rmse_mag is inf and rmse_complex is inf: "
           "the S-FT is too far from the ideal converter to square its error")
          for section, key, value in (("signal", "offset", 1e300),
                                      ("encoder", "sample_period", 1e300),
                                      ("encoder", "u_th", 1e-300))
          for command in ("sft", "sft-sweep")],
        ({"encoder": {"u_max": 1e300}}, "sweep-constant",
         "decoding error rmse is inf: the largest voltage error, 1e+300 V, "
         "overflows when squared"),
        # every sample came out NaN, after two RuntimeWarnings
        ({"signal": {"frequency": float("inf")}}, "encode", "frequency must be finite, got inf"),
        ({"signal": {"frequency": float("inf")}}, "sft", "frequency must be finite, got inf"),
        # duration won and windows was dropped without a word
        ({"signal": {"windows": 100, "duration": 0.5}}, "encode",
         "config section 'signal' has unknown key(s): 'duration'"),
        # the closed form charges from 0 V, the one rest potential it can encode
        ({"encoder": {"u_rest": 0}}, "encode",
         "config section 'encoder' has unknown key(s): 'u_rest'"),
        # numpy's "Maximum allowed size exceeded" named neither key nor count
        ({"signal": {"windows": 2**60}}, "encode",
         "signal duration 384307168202282.3 s spans 1.15292e+18 windows of 0.000333333 s, more than "
         "the 9007199254740992 that float64 counts exactly"),
        # sample_period / resolution is the reader period; a third key
        # could only disagree with them
        ({"encoder": {"reader_period": 1e-6}}, "encode",
         "config section 'encoder' has unknown key(s): 'reader_period'"),
        ({"encoder": {"reader_period": 1.48e-6}}, "sweep-constant",
         "config section 'encoder' has unknown key(s): 'reader_period'"),
        # the other type's keys used to be accepted and ignored
        ({"signal": {"level": 9.0}}, "encode",
         "config section 'signal' of type 'sine' has unknown key(s): 'level'"),
        ({"signal": {"level": 9.0}}, "sft",
         "config section 'signal' of type 'sine' has unknown key(s): 'level'"),
        *[({"signal": {"type": "constant", "level": 3.0, key: 1.0}}, "encode",
           f"config section 'signal' of type 'constant' has unknown key(s): {key!r}")
          for key in ("amplitude", "frequency", "offset")],
        # alpha weighted only a loss figure derived from eps_lin and mu
        ({"tuner": {"alpha": 1.0}}, "tune", "config section 'tuner' has unknown key(s): 'alpha'"),
        # each ended in "OverflowError: int too large to convert to float",
        # the decoder even in encode, which does not use it
        *[({section: {key: HUGE}}, "encode",
           f"config section {section!r} key {key!r} must be a number within float range, got {HUGE}")
          for section, key in (("encoder", "tau"), ("encoder", "resolution"), ("noise", "delta_u"),
                               ("signal", "amplitude"), ("signal", "windows"))],
        ({"sft": {"decoder": {"t_lin_min": HUGE, "t_lin_max": 3e-4, "y_min": 1.0, "y_max": 5.0}}},
         "encode", "config section 'sft' key 'decoder' must be a path string or an object of finite "
                   f"numbers, got {{'t_lin_min': {HUGE}, 't_lin_max': 0.0003, 'y_min': 1.0, 'y_max': 5.0}}"),
        # a seed past float range encoded; it is refused like any other number key
        ({"noise": {"delta_u": 0.01, "mode": "per-window", "rng_seed": HUGE}}, "encode",
         f"config section 'noise' key 'rng_seed' must be a number within float range, got {HUGE}"),
        # each of these near float max ended in RuntimeWarnings and an error
        # that blamed the encoder's input, the S-FT or a key configs lost
        ({"signal": {"frequency": 1.7e308}}, "encode",
         "frequency 1.7e+308 Hz over 0.042666666666666665 s overflows the sine's phase 2*pi*nu*t"),
        ({"signal": {"frequency": 1e300}, "encoder": {"sample_period": 1e300}}, "encode",
         "frequency 1e+300 Hz over 1.28e+302 s overflows the sine's phase 2*pi*nu*t"),
        ({"signal": {"amplitude": 1.7e308, "offset": 1.7e308}}, "encode",
         "offset + amplitude, the peak voltage, must be finite, got 1.7e+308 + 1.7e+308"),
        ({"signal": {"offset": 1.7e308}}, "sft",
         "the reference spectrum at 500.0 Hz overflows: the FFT of 128 held voltages "
         "up to 1.7e+308 V leaves float range"),
        ({"encoder": {"u_min": 1e300, "u_max": 1.7e308}}, "tune",
         "decoder fit error eps_lin is nan: the working range 1e+300..1.7e+308 V overflows its quadrature"),
        ({"encoder": {"sample_period": 1e307, "tau": 1e306}}, "encode",
         "signal.windows = 128 windows of encoder.sample_period = 1e+307 s last longer than float range"),
        ({"encoder": {"sample_period": 1e307, "tau": 1e306}}, "sft",
         "sft.frame_size = 128 windows of encoder.sample_period = 1e+307 s last longer than float range"),
        # named neither value, so a threshold list did not say which one failed
        ({"noise": {"delta_u": 0.2}}, "sweep-constant",
         "delta_u must stay below u_th, got delta_u = 0.2 and u_th = 0.1"),
        # the values that once moved sft's spectrum (see KEY_CASES), now
        # refused with the keys
        *[({"tuner": {key: value}}, "sft", f"config section 'tuner' has unknown key(s): {key!r}")
          for key, value in [("k1_bounds", [-0.5, 0.5]), ("k2_bounds", [0.0, 0.5]),
                             ("grid_points", 16)]],
        ({"signal": {"amplitude": -1}}, "encode", "amplitude must be >= 0"),
        # a decoder whose code times all fall before the window: sft
        # printed rmse_mag=65.5223 when every window fired, and ended in
        # "spike times must be finite and non-negative" when one was silent
        *[({"sft": {"decoder": EARLY_DECODER}, "signal": signal}, command,
           f"config section 'sft' key 'decoder': {EARLY_DECODER_RULE}")
          for signal, command in EARLY_DECODER_RUNS],
    ])
    def test_config_hole_is_named(self, tmp_path, capsys, doc, command, message):
        out = {"encode": ["--out", str(tmp_path / "t.csv")],
               "tune": ["--out", str(tmp_path / "t.json")],
               "sft": ["--out-prefix", str(tmp_path / "run")],
               "sft-sweep": ["--out-dir", str(tmp_path / "sweep")],
               "sweep-constant": ["--out-dir", str(tmp_path / "sweep")]}[command]
        rc = main([command, "--config", write_config(tmp_path, doc), *out])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    # a frame needs 2 windows: 1 was refused as "frame_size must be at
    # least 2", without the key's name, and 128.5 as an integer of at least 1
    @pytest.mark.parametrize("size", [1, 0, 128.5, 1.0])
    @pytest.mark.parametrize("command", ["sft", "sft-sweep"])
    def test_frame_size_below_two_is_named(self, tmp_path, capsys, command, size):
        out = {"sft": ["--out-prefix", str(tmp_path / "run")],
               "sft-sweep": ["--out-dir", str(tmp_path / "sweep")]}[command]
        rc = main([command, "--config", write_config(tmp_path, {"sft": {"frame_size": size}}), *out])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: config section 'sft' key 'frame_size' must be an integer of at least 2, got {size!r}\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    @pytest.mark.parametrize("spec, message", [
        # a number used to fit a fresh decoder and exit 0
        (5, "must be a path string or an object of finite numbers, got 5"),
        ({"t_lin_min": "a", "t_lin_max": "b", "y_min": "c", "y_max": "d"},
         "must be a path string or an object of finite numbers, got {'t_lin_min': 'a'"),
        ({"t_lin_min": 1e-4}, "LinearDecoderParams.__init__() missing 3 required"),
        # the decoder's own rule came without the key that broke it
        ({"t_lin_min": 5e-5, "t_lin_max": 3e-4, "y_min": 5.0, "y_max": 1.0}, "need y_max > y_min"),
        # ended in a ZeroDivisionError traceback, or in a RuntimeWarning
        # and an error that blamed the S-FT
        ({"t_lin_min": 0.0, "t_lin_max": 1e-3, "y_min": -1.7e308, "y_max": 1.7e308},
         f"need t_lin_max - t_lin_min = 0.001, y_max - y_min = inf, {SPAN_RULE}"),
        ({"t_lin_min": -1.7e308, "t_lin_max": 1.7e308, "y_min": 1.0, "y_max": 5.0},
         f"need t_lin_max - t_lin_min = inf, y_max - y_min = 4.0, {SPAN_RULE}"),
        ({"t_lin_min": 0.0, "t_lin_max": 1e300, "y_min": 0.0, "y_max": 1e-10},
         f"need t_lin_max - t_lin_min = 1e+300, y_max - y_min = 1e-10, {SPAN_RULE}"),
    ])
    def test_decoder_spec_must_be_a_path_or_an_object(self, tmp_path, capsys, spec, message):
        cfg = write_config(tmp_path, {"sft": {"decoder": spec}})
        rc = main(["sft", "--config", cfg, "--out-prefix", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config section 'sft' key 'decoder'") and message in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    @pytest.mark.parametrize("key, value", [
        ("k1_bounds", "ab"),
        ("k1_bounds", 5),
        ("k2_bounds", [0.0, float("inf")]),
        ("k2_bounds", [0.0, 1.0, 2.0]),
    ])
    def test_stretch_bounds_must_be_a_finite_pair(self, tmp_path, capsys, key, value):
        # "ab" and 5 used to end tune in a TypeError traceback; the box is
        # now fixed, so these values, like a finite pair, are refused as an
        # unknown key
        cfg = write_config(tmp_path, {"tuner": {key: value}})
        out = tmp_path / "t.json"
        rc = main(["tune", "--config", cfg, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: config section 'tuner' has unknown key(s): {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["encode", "--out", "{}/t.csv"],
                                      ["sft", "--out-prefix", "{}/x"]], ids=["encode", "sft"])
    def test_missing_output_directory_is_named(self, tmp_path, capsys, argv):
        # the error named the temporary file, 'nodir/t.csv.tmp.2395'
        cfg = write_config(tmp_path, BASE)
        target = argv[-1].format(tmp_path / "nodir")
        assert main([*argv[:-1], target, "--config", cfg]) == 1
        err = capsys.readouterr().err
        named = target if argv[0] == "encode" else f"{target}_spectrum.csv"
        assert err == f"error: [Errno 2] No such file or directory: {named!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("present, named", [([], "t.csv"), (["t.csv"], "t.json")])
    def test_missing_train_is_named(self, tmp_path, capsys, present, named):
        # a missing train used to be named by its sidecar, 't.json'
        for name in present:
            (tmp_path / name).write_text("window,bin\n")
        train = tmp_path / "t.csv"
        assert main(["decode", "--train", str(train), "--out", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {str(tmp_path / named)!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == present

    def test_output_path_that_is_a_directory_is_named(self, tmp_path, capsys):
        # the error named both files, 'out.tmp.2395' -> 'out'
        target = tmp_path / "out"
        target.mkdir()
        assert main(["encode", "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.endswith(f": {str(target)!r}\n")
        assert ".tmp." not in err
        assert [p.name for p in tmp_path.iterdir()] == ["out"] and not any(target.iterdir())

    def test_missing_train_file(self, tmp_path, capsys):
        rc = main(["decode", "--train", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 1


def file_bytes(directory) -> dict:
    """The bytes of each file in directory, by name; None for a directory."""
    return {p.name: None if p.is_dir() else p.read_bytes() for p in sorted(directory.iterdir())}


class TestOneCommit:
    """A command's CSVs and sidecars replace their paths together: a
    directory at a sidecar path fails the command and leaves every
    existing output with its bytes. Each command's CSVs used to be
    replaced before its sidecar failed."""

    def test_encode_leaves_the_train_when_its_sidecar_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        assert main(["encode", "--config", write_config(tmp_path, BASE), "--out", str(out / "t.csv")]) == 0
        (out / "t.json").unlink()
        (out / "t.json").mkdir()
        before = file_bytes(out)
        longer = {**BASE, "signal": {**BASE["signal"], "windows": 20}}
        assert main(["encode", "--config", write_config(tmp_path, longer), "--out", str(out / "t.csv")]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(out / 't.json')!r}\n"
        assert file_bytes(out) == before

    def test_sweep_constant_leaves_every_report_when_a_later_sidecar_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["sweep-constant", "--thresholds", "0.1,0.5", "--out-dir", str(out)]
        assert main([*argv, "--points", "8"]) == 0
        (out / "sweep_uth_0.5.json").unlink()
        (out / "sweep_uth_0.5.json").mkdir()
        before = file_bytes(out)
        assert main([*argv, "--points", "16"]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 21] Is a directory: {str(out / 'sweep_uth_0.5.json')!r}\n")
        assert file_bytes(out) == before

    def test_sft_leaves_both_spectra_when_its_json_is_a_directory(self, tmp_path, capsys):
        prefix = tmp_path / "out" / "p"
        prefix.parent.mkdir()
        assert main(["sft", "--out-prefix", str(prefix)]) == 0
        (prefix.parent / "p.json").unlink()
        (prefix.parent / "p.json").mkdir()
        before = file_bytes(prefix.parent)
        config = write_config(tmp_path, {"signal": {"type": "sine", "frequency": 250.0}})
        assert main(["sft", "--config", config, "--out-prefix", str(prefix)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(prefix) + '.json'!r}\n"
        assert file_bytes(prefix.parent) == before


# Values of every kind. The one large integer lies past float range,
# where every key refuses it; a smaller one would be taken as given by a
# size key, which allocates in proportion to it.
FUZZ_VALUES = [None, True, 0, -1, 2.5, float("nan"), float("inf"), float("-inf"), 1e300,
               1e-300, HUGE, "", "x", [], [1.0], [1.0, 2.0], ["a", "b"], {}, {"a": 1},
               {"t_lin_min": 1e-4}]
CONFIG_KEYS = [(name, key) for name, keys in SCHEMA.items() for key in keys]


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from(CONFIG_KEYS), st.sampled_from(FUZZ_VALUES),
                           min_size=1, max_size=2))
    def test_every_run_exits_cleanly_or_names_one_error(self, entries):
        # tuner.grid_points 2.5, a key since removed, used to end tune in a
        # TypeError traceback
        doc = {}
        for (name, key), value in entries.items():
            doc.setdefault(name, {})[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "config.json"
            cfg.write_text(json.dumps(doc))
            for argv in (["encode", "--out", f"{tmp}/t.csv"], ["tune", "--out", f"{tmp}/t.json"],
                         ["sft", "--out-prefix", f"{tmp}/run"],
                         ["sweep-constant", "--points", "16", "--thresholds", "0.5",
                          "--out-dir", f"{tmp}/sweep"],
                         ["sft-sweep", "--freqs", "100,500", "--out-dir", f"{tmp}/sft"]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(argv + ["--config", str(cfg)])
                out, err = out.getvalue(), err.getvalue()
                assert rc == 0 or (rc == 1 and err.startswith("error: ")
                                   and err.count("\n") == 1), (argv[0], doc, err)
                # a run that succeeds reports only finite figures
                figures = re.findall(r"(\w+)=([^\s:,]+)", out)
                assert rc == 1 or all(math.isfinite(float(v)) for _, v in figures), \
                    (argv[0], doc, out)


# One small base config per key, one other valid value for the key and
# the command whose data files it should move.
SMALL = {"signal": {"windows": 32}, "sft": {"frame_size": 8}}
KEY_CASES = {
    ("encoder", "tau"): ("encode", SMALL, 2.5e-3),
    ("encoder", "u_th"): ("encode", SMALL, 0.09),
    ("encoder", "u_min"): ("sft", SMALL, 1.5),
    ("encoder", "u_max"): ("sft", SMALL, 4.5),
    ("encoder", "sample_period"): ("encode", SMALL, 1.0 / 2500.0),
    ("encoder", "resolution"): ("encode", SMALL, 50),
    ("noise", "delta_u"): ("encode", SMALL, 0.05),
    ("noise", "mode"): ("encode", {**SMALL, "noise": {"delta_u": 0.05}}, "per-window"),
    ("noise", "rng_seed"): ("encode", {**SMALL, "noise": {"delta_u": 0.05, "mode": "per-window"}}, 1),
    ("sft", "frame_size"): ("sft", SMALL, 16),
    ("sft", "decoder"): ("sft", SMALL, {"t_lin_min": 5e-5, "t_lin_max": 3e-4,
                                        "y_min": 1.0, "y_max": 5.0}),
    ("signal", "type"): ("encode", SMALL, "constant"),
    ("signal", "amplitude"): ("encode", SMALL, 1.5),
    ("signal", "frequency"): ("encode", SMALL, 250.0),
    ("signal", "offset"): ("encode", SMALL, 3.5),
    ("signal", "level"): ("encode", {"signal": {"type": "constant", "level": 3.0, "windows": 32}}, 3.5),
    ("signal", "windows"): ("encode", SMALL, 16),
}
# Keys that the other value of a key needs beside it: a constant reads
# its level, and a sine refuses one.
OTHER_NEEDS = {("signal", "type"): {"level": 3.0}}
# Keys that are accepted and move no output, each with the reason it stays.
IGNORED_KEYS = {
    ("tuner", "generations"): "configs written for the earlier evolutionary search still load, "
                              "acceptance criterion 9's among them, and criterion 6 sets the "
                              "TunerConfig field",
}


class TestEveryKeyMatters:
    """A config key that no output depends on reads as a setting that
    works: each key must move a data file of some command, or be
    refused where its value would be ignored."""

    def test_every_key_has_a_case(self):
        missing = [k for k in CONFIG_KEYS if k not in KEY_CASES and k not in IGNORED_KEYS]
        assert not missing, f"config keys with no case: {missing}"
        assert set(KEY_CASES) | set(IGNORED_KEYS) <= set(CONFIG_KEYS)

    @staticmethod
    def data_files(tmp_path, name, doc, command):
        """Exit code, stderr and the bytes of each result file that
        command writes from config doc. The sidecars of encode and sft,
        which echo the config, are left out, so a key must move a
        result; tune's file echoes the encoder section alone."""
        run = tmp_path / name
        run.mkdir()
        cfg = run / "config.json"
        cfg.write_text(json.dumps(doc))
        out, results = {"encode": (["--out", str(run / "t.csv")], "*.csv"),
                        "sft": (["--out-prefix", str(run / "r")], "*.csv"),
                        "tune": (["--out", str(run / "t.json")], "t.json")}[command]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([command, "--config", str(cfg), *out])
        return rc, err.getvalue(), {p.name: p.read_bytes() for p in run.glob(results)}

    @pytest.mark.parametrize("section, key", sorted(KEY_CASES))
    def test_another_value_moves_an_output(self, tmp_path, section, key):
        command, base, value = KEY_CASES[section, key]
        other = {**base, section: {**base.get(section, {}), key: value,
                                   **OTHER_NEEDS.get((section, key), {})}}
        rc, err, want = self.data_files(tmp_path, "base", base, command)
        assert rc == 0 and want, err
        rc, err, got = self.data_files(tmp_path, "other", other, command)
        assert rc == 0 and got.keys() == want.keys(), err
        assert got != want, f"{section}.{key} = {value!r} moved no output of {command}"


class TestDeterminism:
    def test_noisy_encode_reruns_byte_identical(self, tmp_path):
        doc = {**BASE, "noise": {"delta_u": 0.05, "mode": "per-window", "rng_seed": 0}}
        cfg = write_config(tmp_path, doc)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["encode", "--config", cfg, "--out", str(a), "--seed", "11"])
        main(["encode", "--config", cfg, "--out", str(b), "--seed", "11"])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.skipif(shutil.which("spikecodec") is None,
                        reason="no spikecodec executable on PATH (package not installed)")
    def test_console_script_installed(self):
        out = subprocess.run([shutil.which("spikecodec"), "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "sft-sweep" in out.stdout

    def test_console_script_entry_point(self):
        """The declared console script works without an install: run its
        entry point the way the generated wrapper does."""
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["spikecodec"] == "spikecodec.cli:main"
        module, func = scripts["spikecodec"].split(":")
        wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
        out = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert "sft-sweep" in out.stdout
