"""Smoke test of the benchmark: every workload at tiny sizes.

    python3 -m pytest perfbench

Runs each workload timed and traced on the default seed and on a seed
held out from tuning, and checks the output schema, that every metric
BENCHMARK.json names is reported with its unit, and that no operation
failed. It never asserts a time.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
HELD_OUT_SEED = 20231003
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
MANIFEST_KEYS = {"nproc", "python", "numpy", "spikecodec", "git_commit", "seed", "sizes",
                 "sft_sweep_pool_threads"}


def run_bench(root, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, seed, trace):
    proc = run_bench(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    report, result = json.loads(report_line), json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["fail_ratio"] == 0
    assert MANIFEST_KEYS <= set(report["manifest"])
    assert report["manifest"]["seed"] == seed

    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        if kind == "end_to_end":
            assert m["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], DEFAULT_SEED, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
