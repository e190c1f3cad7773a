"""Thread-safety of the span tracer, which the sft-sweep pool calls
from several threads at once.

    python3 -m pytest perfbench
"""

import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import tracing  # noqa: E402


def test_no_span_or_count_lost_across_threads():
    tracer = tracing.Tracer()
    leaf = tracer.wrap(lambda: tracer.add("calls", 1), "test.leaf")
    threads, calls = 8, 2000

    started = threading.Barrier(threads)

    def worker():
        started.wait()  # all alive at once, so no thread id is reused
        for _ in range(calls):
            leaf()

    pool = [threading.Thread(target=worker) for _ in range(threads)]

    def run_pool():
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)

    root = tracer.wrap(run_pool, "test.root")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        root()
    finally:
        sys.setswitchinterval(old)

    assert not any(t.is_alive() for t in pool)
    assert tracer.counts["calls"] == threads * calls
    leaves = [s for s in tracer.spans if s[1] == "test.leaf"]
    assert len(leaves) == threads * calls
    assert len({s[0] for s in tracer.spans}) == len(tracer.spans)
    (root_span,) = [s for s in tracer.spans if s[1] == "test.root"]
    assert all(s[4] == root_span[0] for s in leaves)
    assert len({s[5] for s in leaves}) == threads


def test_self_time_counts_overlapping_children_once():
    spans = [(0, "a.root", 0.0, 10.0, None, 1),
             (1, "b.child", 1.0, 5.0, 0, 2),
             (2, "b.child", 3.0, 7.0, 0, 3),
             (3, "b.child", 8.0, 9.0, 0, 2)]
    own = tracing.self_times(spans)
    assert own[0] == 10.0 - (6.0 + 1.0)
    assert own[1] == 4.0
