"""spikecodec benchmark: one workload, repeated passes, medians.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each pass runs worker.py in a
fresh interpreter, so every pass pays and reports its own import and
set-up, its own peak RSS, and starts from the same state. Passes repeat
until --seconds have gone by (at least MIN_PASSES). Times are read on
each pass's reference clock (hostspeed.py): seconds at the reference
host's speed, so that the shared host's drift does not show as a
change of the program. With --trace 0 the last stdout line carries the
end-to-end metrics, each the median over passes. With --trace 1, timed
and traced passes alternate; the last line carries the per-layer
metrics (medians over traced passes) and trace.overhead_s, the traced
minus the timed median wall time. The line before it is the full
report: run manifest, per-pass figures as measured and on the
reference clock, failures.

Only the first pass checks every output against the references; each
later pass must reproduce its output digest byte for byte. Exit status
is 0 when a result was printed, 1 when the first pass failed or no pass
ran the workload through, 2 when the checkout holds no spikecodec source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream_noisy", "sliding_sft", "design_sweep")
MIN_PASSES = 3  # a traced run needs 4: two timed, two traced
DEADLINE_S = 170.0  # the whole run, checks included, ends within 180 s


def git_commit(root: str):
    """HEAD of the checkout, read from .git without running git, or None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def run_pass(args, index: int, traced: bool, work: str, timeout: float):
    """Run one worker pass; return its result dict, or None if it died.
    Only the first pass checks outputs against the references."""
    pass_dir = os.path.join(work, f"pass{index}")
    os.makedirs(pass_dir)
    out = os.path.join(work, f"pass{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--trace", str(int(traced)),
           "--check", str(int(index == 0)), "--workdir", pass_dir, "--out", out]
    if traced:
        cmd += ["--spans", os.path.join(work, "spans.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        print(f"pass {index}: timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    if proc.returncode != 0 or not os.path.exists(out):
        print(f"pass {index}: worker exited with {proc.returncode}", file=sys.stderr)
        return None
    with open(out) as fh:
        result = json.load(fh)
    os.remove(out)
    return result


def e2e_metrics(passes, accuracy: dict, units: dict) -> dict:
    m = {
        "setup_s": statistics.median(p["setup_ref_s"] for p in passes),
        "wall_s": statistics.median(p["wall_ref_s"] for p in passes),
        "windows_per_s": statistics.median(p["windows"] / p["wall_ref_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    for key in ("decode_rmse_v", "sft_rmse_mag", "eps_lin"):
        m[key] = accuracy[key]
    return {k: {"value": v, "unit": units[k]} for k, v in m.items()}


def layer_metrics(traced, timed, accuracy: dict, units: dict) -> dict:
    """Medians over traced passes; counts take an observed value, since
    they repeat exactly from pass to pass."""
    m = {}
    for name in traced[0]["layers"]:
        pick = statistics.median_low if units[name] in ("count", "B") else statistics.median
        m[name] = pick(p["layers"][name] for p in traced)
    m["sft.oracle_dev_max"] = accuracy["sft.oracle_dev_max"]
    m["trace.overhead_s"] = (statistics.median(p["wall_ref_s"] for p in traced)
                             - statistics.median(p["wall_ref_s"] for p in timed))
    return {k: {"value": v, "unit": units[k]} for k, v in sorted(m.items())}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the smoke test")
    args = p.parse_args(argv)

    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "spikecodec", "__init__.py")):
        print(f"error: no spikecodec source under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    work = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    timed, traced, results = [], [], []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        enough = len(results) >= (4 if args.trace else MIN_PASSES)
        if (enough and elapsed >= args.seconds) or elapsed + 1.5 * longest > DEADLINE_S:
            break
        traced_pass = bool(args.trace) and len(results) % 2 == 1
        t0 = time.monotonic()
        result = run_pass(args, len(results), traced_pass, work, DEADLINE_S - elapsed)
        longest = max(longest, time.monotonic() - t0)
        if result is None:  # counts as one failed operation
            results.append({"attempted": 1, "failed": 1, "failures": {"worker": ["died"]}})
            break
        if results and result["ok"] and result["digest"] != results[0]["digest"]:
            result["ok"] = False
            result["failed"] = result["attempted"]
            result["failures"] = {"digest": ["outputs differ from the checked first pass"]}
        results.append(result)
        if not results[0]["ok"]:  # the checked pass failed: nothing to measure
            break
        if result["ok"]:
            (traced if traced_pass else timed).append(result)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if not timed or timed[0] is not results[0] or (args.trace and not traced):
        print("error: the checked pass failed or no pass ran the workload through",
              file=sys.stderr)
        for r in results:
            print(json.dumps(r["failures"]), file=sys.stderr)
        return 1
    first = timed[0]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fail_ratio": failed / attempted,
        "manifest": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": first["versions"]["python"],
            "numpy": first["versions"]["numpy"],
            "spikecodec": first["versions"]["spikecodec"],
            "git_commit": git_commit(ROOT),
            "seed": args.seed,
            "sizes": first["sizes"],
            "sft_sweep_pool_threads": first["pool_threads"],
            "passes": {"timed": len(timed), "traced": len(traced), "run": len(results)},
            "seconds": args.seconds,
        },
        "unscaled_median": {key: statistics.median(p[key] for p in timed)
                            for key in ("setup_s", "wall_s", "host_factor")},
        "passes": [{k: r.get(k) for k in ("trace", "ok", "setup_s", "wall_s", "setup_ref_s",
                                          "wall_ref_s", "host_factor", "ticks", "check_s",
                                          "peak_rss_mb")}
                   for r in results],
        "failures": [r["failures"] for r in results if r["failures"]],
    }
    if args.trace:
        report["spans_csv"] = os.path.relpath(os.path.join(work, "spans.csv"), ROOT)
        metrics = layer_metrics(traced, timed, first["accuracy"], units)
    else:
        metrics = e2e_metrics(timed, first["accuracy"], units)
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
