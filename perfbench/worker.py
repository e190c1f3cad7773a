"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --scale full
        --trace 0|1 --check 0|1 --workdir DIR --out RESULT.json [--spans SPANS.csv]

Times the import of numpy and spikecodec plus the workload's input
generation (set-up), then each program call of the workload (wall), and
reads the peak resident set size before anything else runs. A
hostspeed.Sampler ticks all along; every time is reported both as
measured, ticks left out (setup_s, wall_s), and on the sampler's
reference clock, in seconds at the reference host's speed (setup_ref_s,
wall_ref_s). Then the pass takes a digest of every output and, with
--check 1, checks every output against the references and computes the
accuracy metrics. With --trace 1 the spikecodec functions are wrapped
for the duration of the workload, their spans are put on the reference
clock and the per-layer metrics are added. The result goes to --out as
JSON; the program's own console output goes wherever this process's
stdout does.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--check", type=int, choices=(0, 1), default=1)
    p.add_argument("--spans")
    args = p.parse_args()

    import hostspeed  # plain Python: sampling can start before numpy loads

    sampler = hostspeed.Sampler()
    sampler.start()
    setup_start = time.perf_counter()
    import numpy
    import spikecodec
    import spikecodec.cli

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, args.workdir)
    setup_end = time.perf_counter()

    tracer = None
    if args.trace:
        import tracing  # a timed pass never loads the wrappers
        tracer = tracing.Tracer()
        tracer.install()
    ops = workloads.Ops()
    error = None
    try:
        wl.run(ops)
    except Exception as exc:  # any program failure fails the remaining ops
        error = f"{type(exc).__name__}: {exc}"
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sampler.stop()
    if tracer is not None:
        tracer.uninstall()
        tracer.spans = [(sid, name, sampler.ref(start), sampler.ref(end), parent, tid)
                        for sid, name, start, end, parent, tid in tracer.spans]
    setup_s = setup_end - setup_start
    wall_s = sum(end - start for start, end in ops.intervals)

    failures, accuracy, digest = {}, {}, None
    t0 = time.perf_counter()
    if error is not None:
        failed_op = wl.ops[len(ops.done)]
        failures = {op: ["not run"] for op in wl.ops[len(ops.done) + 1:]}
        failures[failed_op] = [error]
    else:
        digest = wl.digest()
        if args.check:
            failures = wl.verify()
            if not failures:
                accuracy = wl.accuracy()
    check_s = time.perf_counter() - t0

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "ok": not failures,
        "setup_s": setup_s - sampler.tick_time(setup_start, setup_end),
        "wall_s": wall_s - sum(sampler.tick_time(*i) for i in ops.intervals),
        "setup_ref_s": sampler.scaled(setup_start, setup_end),
        "wall_ref_s": sum(sampler.scaled(*i) for i in ops.intervals),
        "host_factor": sampler.factor(),
        "ticks": len(sampler.ticks),
        "check_s": check_s,
        "peak_rss_mb": peak_rss_mb,
        "windows": wl.windows,
        "attempted": len(wl.ops),
        "failed": len(failures),
        "failures": failures,
        "accuracy": accuracy,
        "digest": digest,
        "sizes": wl.size,
        "pool_threads": wl.pool_threads,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "spikecodec": spikecodec.__version__,
        },
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, workloads.FRAME)
        if args.spans:
            tracing.write_spans(tracer.spans, args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
