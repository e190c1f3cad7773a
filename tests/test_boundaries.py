"""Rules at the package boundary, each stated once: the public names,
how a JSON input is read, where a CSV's sidecar lives, and how a
hand-edited train is read as text.

Before, a malformed JSON input stopped a command with `error:
Expecting value: line 1 column 1 (char 0)`, naming no file;
`encode --out t.json` exited 0 and left only the sidecar, which had
replaced the train; and the text reader of trains named the first row
with a bad cell count even when an earlier row had a bad window.
"""

import ast
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

import spikecodec
from spikecodec import (
    ErrorReport,
    SpikeTrain,
    codec,
    errors,
    read_spike_train,
    sft,
    signals,
    simulate,
    tuning,
    write_error_report,
    write_spike_train,
)
from spikecodec.cli import main

SUBMODULES = (codec, errors, sft, signals, simulate, tuning)
PACKAGE = Path(spikecodec.__file__).parent

CONFIG = {
    "encoder": {"tau": 3e-3, "u_th": 0.1, "u_min": 1.0, "u_max": 5.0,
                "sample_period": 1.0 / 3000.0, "resolution": 100},
    "signal": {"windows": 3},
}

MALFORMED = {
    "empty": b"",
    "truncated": b'{"encoder": {',
    "not-utf8": b"\xff\xfe{}",
}


class TestPublicNames:
    def test_all_is_the_sorted_union_of_the_submodules(self):
        names = [name for module in SUBMODULES for name in module.__all__]
        assert spikecodec.__all__ == sorted(names)
        assert len(set(names)) == len(names), "a name is exported by two submodules"

    def test_every_name_resolves_to_its_submodule_object(self):
        for module in SUBMODULES:
            for name in module.__all__:
                assert getattr(spikecodec, name) is getattr(module, name)

    def test_init_names_no_public_symbol_itself(self):
        tree = ast.parse((PACKAGE / "__init__.py").read_text())
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names]
        assert set(imported) <= {"*", *(m.__name__.rsplit(".", 1)[1] for m in SUBMODULES)}
        strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        assert not strings & set(spikecodec.__all__)


# The callers that make a public function part of the program: the
# commands, the acceptance criteria and the benchmark.
ROOT = Path(__file__).resolve().parents[1]
CALLERS = [PACKAGE / "cli.py", ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "perfbench").glob("*.py"))]


def named_in(path: Path) -> set:
    """Every identifier, attribute, imported name or alias and string
    constant in a source file: a name the code uses, or one the
    benchmark's tracer patches by string. Prose never matches."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_function_is_reached():
    """A public function or constant that no command, criterion or
    benchmark uses is code kept for its own unit tests; it goes, with no
    exceptions. Classes are exempt: a reached function returns them."""
    assert len(CALLERS) > 2, CALLERS
    named = set().union(*map(named_in, CALLERS))
    values = [name for name in spikecodec.__all__ if not inspect.isclass(getattr(spikecodec, name))]
    assert values
    unreached = [name for name in values if name not in named]
    assert not unreached, f"{unreached} reached from none of {[p.name for p in CALLERS]}"


@pytest.mark.parametrize("pattern, what", [
    (r"\bsplitext\b", "the sidecar rule (_atomic.sidecar_path)"),
    (r"\bjson\.loads?\b", "the JSON reader (_atomic.read_json)"),
    (r"\{\*\*DEFAULT_SIGNAL\b", "the signal defaults merge (cli._signal_keys)"),
    (r"\brepr\b[,(]", "the cell text rule (_rows._texts)"),
    (r"np\.sin\(", "the biased sine (signals.sine)"),
], ids=["sidecar", "json-load", "signal-merge", "cell-text", "sine"])
def test_boundary_rule_is_stated_once(pattern, what):
    where = [f"{path.name}:{i}" for path in sorted(PACKAGE.rglob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), start=1)
             if re.search(pattern, line)]
    assert len(where) == 1, f"{what} is written out at {where}"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """tmp_path as the working directory, holding config.json, a
    3-window train encoded from it and a tuning file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    assert main(["encode", "--config", "config.json", "--out", "train.csv"]) == 0
    assert main(["tune", "--config", "config.json", "--out", "tuning.json"]) == 0
    return tmp_path


@pytest.mark.parametrize("content", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("path, argv", [
    ("config.json", ["tune", "--config", "config.json", "--out", "out.json"]),
    ("train.json", ["decode", "--train", "train.csv", "--out", "out.csv"]),
    ("tuning.json", ["decode", "--train", "train.csv", "--mode", "linear",
                     "--tuning", "tuning.json", "--out", "out.csv"]),
], ids=["config", "train-sidecar", "tuning"])
def test_malformed_json_input_is_named(workdir, capsys, path, argv, content):
    (workdir / path).write_bytes(content)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a JSON file (") and err.count("\n") == 1
    assert not any(workdir.glob("out.*"))


class TestOwnSidecar:
    def test_encode_to_a_json_path_writes_nothing(self, workdir, capsys):
        before = sorted(p.name for p in workdir.iterdir())
        assert main(["encode", "--config", "config.json", "--out", "t.json"]) == 1
        err = capsys.readouterr().err
        assert err == "error: t.json would be its own JSON sidecar; name the CSV with another extension\n"
        assert sorted(p.name for p in workdir.iterdir()) == before

    def test_decode_of_a_json_train_is_named(self, workdir, capsys):
        assert main(["decode", "--train", "tuning.json", "--out", "out.csv"]) == 1
        assert capsys.readouterr().err.startswith("error: tuning.json would be its own JSON sidecar")
        assert not (workdir / "out.csv").exists()

    def test_library_writers_refuse_before_writing(self, tmp_path, cfg3k):
        train = SpikeTrain(bins=np.array([31, 0, 19]), config=cfg3k)
        report = ErrorReport(u_in=np.ones(2), eps_u=np.zeros(2), eps_ts=np.zeros(2), rmse=0.0)
        with pytest.raises(ValueError, match="own JSON sidecar"):
            write_spike_train(train, str(tmp_path / "t.json"))
        with pytest.raises(ValueError, match="own JSON sidecar"):
            write_error_report(report, str(tmp_path / "r.json"))
        # an explicit sidecar path used to replace its own CSV unseen
        with pytest.raises(ValueError, match="own JSON sidecar"):
            write_error_report(report, str(tmp_path / "r.csv"), str(tmp_path / "." / "r.csv"))
        assert list(tmp_path.iterdir()) == []


class TestTextTrainReader:
    @staticmethod
    def three_window_train(tmp_path, cfg3k, text):
        path = tmp_path / "train.csv"
        write_spike_train(SpikeTrain(bins=np.array([31, 0, 19]), config=cfg3k), str(path))
        path.write_bytes(text.encode("latin-1"))  # "\xff" is the byte 0xff
        return str(path)

    @pytest.mark.parametrize("text, message", [
        ("window,bin\n7,31\n1,\n2,19,5\n", "row 1 has window '7', expected 0"),
        ("window,bin\n0,x\n1,2,3\n2,19\n", "row 1 has bin 'x', not an integer"),
        ("window,bin\n0,31\n1,101\n2\n", "row 2 has bin 101, outside 0..100"),
        ("window,bin\n 0 ,31\n1 ,\n 3 ,19\n", "row 3 has window ' 3 ', expected 2"),
        # a byte that is not UTF-8 used to be named by neither file nor row
        ("window,bin\n0,31\n1,\xff\n2,19\n", "row 2 has byte 0xff, not UTF-8 text"),
        ("window,b\xffin\n0,31\n1,\n2,19\n", "header has byte 0xff, not UTF-8 text"),
    ], ids=["window-before-cells", "bin-before-cells", "range-before-cells", "padded-window",
            "non-utf8-row", "non-utf8-header"])
    def test_first_bad_row_is_named(self, tmp_path, cfg3k, text, message):
        path = self.three_window_train(tmp_path, cfg3k, text)
        with pytest.raises(ValueError) as exc:
            read_spike_train(path)
        assert str(exc.value) == f"{path}: {message}"
