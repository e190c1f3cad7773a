"""The host speed sampler's reference clock, on made-up ticks and on a
real timer.

    python3 -m pytest perfbench
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402

REF = hostspeed.REFERENCE_TICK_S


def frozen(ticks):
    """A sampler holding the given (start, wall, cpu) ticks, clock built."""
    sampler = hostspeed.Sampler()
    sampler.ticks = list(ticks)
    sampler.build()
    return sampler


def test_clock_stands_still_in_ticks_and_runs_at_reference_speed_between():
    # the host runs at half the reference speed: every tick takes 2 * REF
    ticks = [(i * 0.02, 2 * REF, 2 * REF) for i in range(50)]
    s = frozen(ticks)
    start, wall, _ = ticks[10]
    assert s.ref(start) == s.ref(start + wall / 2) == s.ref(start + wall)
    gap = 0.02 - 2 * REF
    assert abs(s.scaled(start, start + 0.02) - gap / 2) < 1e-12
    # over whole tick periods, ticks are left out and the rest is halved
    assert abs(s.scaled(0.1, 0.5) - (0.4 - 20 * 2 * REF) / 2) < 1e-12
    assert abs(s.tick_time(0.1, 0.5) - 20 * 2 * REF) < 1e-12
    assert abs(s.factor() - 2.0) < 1e-12


def test_clock_follows_a_change_of_speed_and_extrapolates_at_the_ends():
    fast = [(i * 0.02, REF, REF) for i in range(50)]
    slow = [(1.0 + i * 0.02, 3 * REF, 3 * REF) for i in range(50)]
    s = frozen(fast + slow)
    assert abs(s.scaled(0.3, 0.5) - (0.2 - 10 * REF)) < 1e-12
    assert abs(s.scaled(1.3, 1.5) - (0.2 - 10 * 3 * REF) / 3) < 1e-12
    assert abs(s.scaled(-0.5, 0.0) - 0.5) < 1e-12
    assert abs(s.scaled(2.0, 2.6) - 0.6 / 3) < 1e-12
    points = [i * 0.001 - 0.1 for i in range(2200)]
    readings = [s.ref(t) for t in points]
    assert all(b >= a for a, b in zip(readings, readings[1:]))


def test_timer_ticks_while_python_runs():
    s = hostspeed.Sampler()
    s.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.5:
        sum(range(1000))
    end = time.perf_counter()
    s.stop()
    assert len(s.ticks) >= 10
    assert 0 < s.tick_time(start, end) < end - start
    assert s.scaled(start, end) > 0
