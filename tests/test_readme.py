"""The README's examples and config table stay true to the program: its
example config runs through every command it shows, its python blocks
run, and its table of config kinds names exactly the keys of cli.SCHEMA."""

import json
import re
import shlex
from pathlib import Path

from spikecodec.cli import SCHEMA, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def test_example_config_runs_every_readme_command(tmp_path, monkeypatch, capsys):
    config = re.search(r"Example config:\s*```json\n(.*?)```", README, flags=re.S).group(1)
    (tmp_path / "config.json").write_text(json.dumps(json.loads(config)))
    commands = [shlex.split(line)[1:] for block in fenced_blocks("sh")
                for line in block.splitlines() if line.startswith("spikecodec ")]
    assert {argv[0] for argv in commands} == {"encode", "decode", "sweep-constant", "tune",
                                              "sft", "sft-sweep"}
    monkeypatch.chdir(tmp_path)
    # A command that reads a tuning file runs after tune has written it.
    for argv in sorted(commands, key=lambda argv: "--tuning" in argv):
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_python_blocks_run(capsys):
    """Every python block of the README, the library quick start among
    them, runs as written."""
    blocks = fenced_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def table_keys() -> list:
    """The keys column of the README's table of config kinds."""
    table = re.search(r"^\| kind \| keys \|.*?\n\|[-|]+\|\n(.*?)\n\n", README,
                      flags=re.M | re.S).group(1)
    return [row.split("|")[2] for row in table.splitlines()]


def test_config_table_names_exactly_the_schema_keys():
    named, other = set(), set()
    for cell in table_keys():
        for token in re.findall(r"`([^`]+)`", cell):
            (named if "." in token else other).add(token)
    assert named == {f"{name}.{key}" for name, keys in SCHEMA.items() for key in keys}
    # Besides full section.key names, the column holds only choice values.
    choices = {value for keys in SCHEMA.values() for kind in keys.values()
               if isinstance(kind, tuple) for value in kind}
    assert other <= choices, f"table entries that are not section.key: {other - choices}"
