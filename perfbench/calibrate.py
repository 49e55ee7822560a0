"""Machine-speed calibration for the latency metrics.

The machines this benchmark was built on share their cores with other
tenants, and pure-Python code runs up to 1.6× slower for stretches from a
second to over a minute.  A fixed loop shaped like the profile kernel
(running sums compared against per-length maxima, in plain Python, never
touching ``prefixnorm``) slows down by nearly the same factor, so the
runner times it between calls and reports each latency scaled to the speed
at which this loop takes ``REFERENCE_S``::

    reported = measured * REFERENCE_S / loop time around the call

The loop is sampled at most every ``INTERVAL_S`` between calls, and a call
uses the median of the five samples nearest to it.

Measured side by side for a minute, the raw time of an n=1000 profile
varied by 55 % while its ratio to this loop varied by 6 %.  The raw
timings are printed next to the result line.
"""

from __future__ import annotations

import random
import statistics
from bisect import bisect_right
from time import perf_counter

# The loop's time on an idle 2-CPU x86_64 container at 2.1 GHz, Python 3.11.
REFERENCE_S = 0.42e-3
INTERVAL_S = 0.2

_WEIGHTS = tuple(random.Random(0).randrange(1, 5) for _ in range(120))


def _loop() -> list[int]:
    weights = _WEIGHTS
    n = len(weights)
    best = [0] * (n + 1)
    for start in range(n):
        acc = 0
        for end in range(start, n):
            acc += weights[end]
            if best[end - start + 1] < acc:
                best[end - start + 1] = acc
    return best


def loop_s() -> float:
    """One timed run of the calibration loop."""
    start = perf_counter()
    _loop()
    return perf_counter() - start


class Clock:
    """Calibration loop samples, taken at most every ``INTERVAL_S``.

    Sampling before every call would run the loop right before each short
    call and leave it a cold processor cache, which slows calls of tens of
    microseconds; sampling by time leaves most short calls undisturbed.
    """

    def __init__(self):
        self.times: list[float] = []
        self.loops: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = perf_counter()
        if force or not self.times or now - self.times[-1] >= INTERVAL_S:
            self.loops.append(loop_s())
            self.times.append(now)

    def loop_at(self, moment: float) -> float:
        """Median of the five samples nearest before and after ``moment``."""
        i = bisect_right(self.times, moment)
        return statistics.median(self.loops[max(0, i - 3): i + 2])

    def scale_at(self, moment: float) -> float:
        return REFERENCE_S / self.loop_at(moment)
