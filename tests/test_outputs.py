"""Output paths that name an input file, and the parser main reuses.

A command whose output (or the sidecar next to it) is one of the files
it reads would replace that input: `encode --config clean.json --out
clean.csv` used to overwrite the config with the train sidecar, after
which `tune --config clean.json` stopped on the sidecar's keys. Every
such run is a named error that writes nothing.
"""

import json

import pytest

from spikecodec import cli
from spikecodec.cli import main

ENCODER = {"tau": 3e-3, "u_th": 0.1, "u_min": 1.0, "u_max": 5.0,
           "sample_period": 1.0 / 3000.0, "resolution": 100}
CONFIG = {"encoder": ENCODER, "signal": {"windows": 16}, "sft": {"frame_size": 8}}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """tmp_path as the working directory, holding clean.json and a
    train encoded from it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "clean.json").write_text(json.dumps(CONFIG))
    assert main(["encode", "--config", "clean.json", "--out", "train.csv"]) == 0
    assert main(["tune", "--config", "clean.json", "--out", "tuning.json"]) == 0
    return tmp_path


def snapshot(directory) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("argv, out, name, path", [
    (["encode", "--config", "clean.json", "--out", "clean.csv"],
     "clean.json", "--config", "clean.json"),
    # the same file under another name
    (["encode", "--config", "./clean.json", "--out", "sub/../clean.csv"],
     "sub/../clean.json", "--config", "./clean.json"),
    (["tune", "--config", "clean.json", "--out", "clean.json"], "clean.json", "--config", "clean.json"),
    (["decode", "--train", "train.csv", "--out", "train.csv"], "train.csv", "--train", "train.csv"),
    (["decode", "--train", "train.csv", "--out", "train.json"],
     "train.json", "--train sidecar", "train.json"),
    (["decode", "--train", "train.csv", "--mode", "linear", "--tuning", "tuning.json",
      "--out", "tuning.json"], "tuning.json", "--tuning", "tuning.json"),
    (["sft", "--config", "clean.json", "--out-prefix", "clean"], "clean.json", "--config", "clean.json"),
    (["sweep-constant", "--config", "clean.json", "--thresholds", "0.5", "--points", "8",
      "--out-dir", "."], "./sweep_uth_0.5.json", "--config", "sweep_uth_0.5.json"),
])
def test_output_naming_an_input_is_refused(workdir, capsys, argv, out, name, path):
    if argv[0] == "sweep-constant":
        (workdir / "clean.json").rename(workdir / path)
        argv = [path if a == "clean.json" else a for a in argv]
    (workdir / "sub").mkdir()
    before = snapshot(workdir)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: output {out} would replace the {name} file {path}\n"
    assert captured.out == ""
    assert snapshot(workdir) == before


def test_sft_decoder_file_is_an_input(workdir, capsys):
    (workdir / "sweep.json").write_text(json.dumps({**CONFIG, "sft": {"frame_size": 8,
                                                                     "decoder": "out/summary.csv"}}))
    (workdir / "out").mkdir()
    (workdir / "out" / "summary.csv").write_text(json.dumps(json.loads(
        (workdir / "tuning.json").read_text())))
    before = snapshot(workdir)
    assert main(["sft-sweep", "--config", "sweep.json", "--freqs", "100", "--out-dir", "out"]) == 1
    assert capsys.readouterr().err == ("error: output out/summary.csv would replace the "
                                       "sft decoder file out/summary.csv\n")
    assert snapshot(workdir) == before


def test_config_survives_encode_for_the_next_command(workdir, capsys):
    # the run that used to replace clean.json now stops, so the
    # config still loads
    assert main(["encode", "--config", "clean.json", "--out", "clean.csv"]) == 1
    assert main(["tune", "--config", "clean.json", "--out", "tuned.json"]) == 0
    assert json.loads((workdir / "clean.json").read_text()) == CONFIG


def test_main_builds_one_parser_per_process(tmp_path):
    cli._parser.cache_clear()
    for _ in range(3):
        assert main(["tune", "--out", str(tmp_path / "tuning.json")]) == 0
    assert cli._parser.cache_info().misses == 1
    assert cli.build_parser() is not cli.build_parser()
