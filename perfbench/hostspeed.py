"""Host speed sampler: a tiny fixed job run on a timer while a pass runs.

On a shared host the same work runs 15-80 % slower or faster from one
second to the next (CPU time equals wall time throughout, so it is the
machine's speed, not scheduling). Probes before and after a program
call miss most of that, so a pass samples the speed all along: a
SIGALRM timer runs tick(), about a millisecond of work, every
INTERVAL_S in the pass's own thread, between bytecodes of whatever runs
then. From the ticks, Sampler builds a reference clock: it stands
still while a tick runs, and otherwise advances at the reference
host's speed, that is by elapsed time divided by how much slower than
REFERENCE_TICK_S the ticks around that moment ran. Intervals measured
on it are seconds at the reference host's speed, ticks left out.

tick() is plain Python, so sampling can start before numpy and
spikecodec are imported, and nothing the program computes can change
how long a tick takes on a given host; like the workloads it is
interpreter-bound (float arithmetic, calls, dict and list updates,
string formatting).
"""

from __future__ import annotations

import bisect
import math
import signal
import time

INTERVAL_S = 0.02
# Mean tick() time on the host the benchmark was tuned on (2 vCPUs,
# Python 3.11.7), taken while that host ran at its usual speed. Scaled
# times are seconds at that speed; the constant only scales them.
REFERENCE_TICK_S = 0.0010
SMOOTH = 5  # ticks on either side averaged for the speed at a moment


def tick() -> float:
    """The fixed job; deterministic, about a millisecond."""
    acc, table, text = 0.0, {}, []
    for i in range(800):
        x = (i * 0.6180339887) % 1.0
        acc += math.exp(-x) * (i % 7) + math.sqrt(x + acc % 3.0)
        table[i % 37] = acc
        text.append(f"{acc:.9g}")
    return acc + len("".join(text)) + len(table)


class Sampler:
    """Runs tick() every INTERVAL_S on SIGALRM between start() and stop(),
    recording the start, wall time and thread CPU time of each; then
    ref() maps perf_counter() readings onto the reference clock. Main
    thread only. A tick's speed is read from its thread CPU time, which
    waiting for the GIL (the sft-sweep pool) or for a core does not
    lengthen; its wall time is what it took from the interval it ran in."""

    def __init__(self) -> None:
        self.ticks = []  # (start, wall s, cpu s), in time order
        self._previous = None
        self._points = self._ref = self._rate = None

    def _on_alarm(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        tick()
        self.ticks.append((t0, time.perf_counter() - t0, time.thread_time() - c0))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop ticking and build the reference clock."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.ticks:  # shorter than one interval: one tick now
            self._on_alarm(None, None)
        self.build()

    def build(self) -> None:
        """Build the reference clock from self.ticks."""
        cpu = [c for _, _, c in self.ticks]
        total = [0.0]
        for c in cpu:
            total.append(total[-1] + c)
        # rate[i]: reference seconds per second in the gap after tick i,
        # from the mean tick around that gap
        self._rate = []
        for i in range(len(cpu)):
            lo, hi = max(0, i - SMOOTH), min(len(cpu), i + SMOOTH + 2)
            self._rate.append(REFERENCE_TICK_S * (hi - lo) / (total[hi] - total[lo]))
        # points[2i], points[2i + 1]: start and end of tick i, where the
        # reference clock reads ref[2i] == ref[2i + 1]
        self._points, self._ref, now = [], [], 0.0
        for i, (t0, wall, _) in enumerate(self.ticks):
            if i:
                now += (t0 - self._points[-1]) * self._rate[i - 1]
            self._points += [t0, t0 + wall]
            self._ref += [now, now]

    def ref(self, t: float) -> float:
        """The reference clock at perf_counter() reading t."""
        points, ref = self._points, self._ref
        i = bisect.bisect_right(points, t)
        if i == 0:
            return ref[0] - (points[0] - t) * self._rate[0]
        if i % 2 == 1:  # inside tick i // 2
            return ref[i - 1]
        return ref[i - 1] + (t - points[i - 1]) * self._rate[i // 2 - 1]  # after tick i // 2 - 1

    def scaled(self, start: float, end: float) -> float:
        """Seconds from start to end at the reference host's speed."""
        return self.ref(end) - self.ref(start)

    def tick_time(self, start: float, end: float) -> float:
        """Wall time the ticks took from start to end."""
        return sum(min(t + w, end) - max(t, start) for t, w, _ in self.ticks
                   if t < end and t + w > start)

    def factor(self) -> float:
        """How much slower than the reference host the ticks ran (>1: slower)."""
        return sum(c for _, _, c in self.ticks) / len(self.ticks) / REFERENCE_TICK_S
