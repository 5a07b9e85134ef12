"""Times at a reference speed.

On a shared machine a core's speed changes by a quarter within seconds,
and every pure-Python loop slows with it.  While a sweep runs, a profiling
timer interrupts it every PERIOD_S of CPU time to time a fixed reference
loop.  A duration measured over [start, end] is reported twice: as
measured, without the samples taken inside it, and scaled by NOMINAL_S over
the mean reference time around it.
"""

from __future__ import annotations

import bisect
import signal
import time

NOMINAL_S = 0.002
PERIOD_S = 0.1
NAMES = [f"e{i}" for i in range(64)]


def reference_s() -> float:
    """Time of a fixed loop shaped like cohext's own work: frozensets of
    short names stored under tuple keys.  It tracks the machine's speed on
    that work much better than integer arithmetic does."""
    start = time.monotonic()
    table = {}
    for i in range(400):
        a, b = NAMES[i % 64], NAMES[i * 7 % 64]
        s = frozenset(NAMES[j] for j in range(i % 64) if j % 3)
        table[a, b] = s
        table[b, a] = frozenset(x for x in s if x != a)
    return time.monotonic() - start


class Speed:
    """Reference samples in time order, taken by a SIGPROF handler."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.total = [0.0]  # total[i]: summed time of the first i samples

    def sample(self, *_signal) -> None:
        start = time.monotonic()
        took = reference_s()
        self.starts.append(start)
        self.times.append(took)
        self.total.append(self.total[-1] + took)

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.sample()

    def measured(self, start: float, end: float) -> float:
        """end - start, less the samples that started inside."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        return end - start - (self.total[j] - self.total[i])

    def scaled(self, start: float, end: float) -> float:
        """`measured` at the speed where the reference loop takes NOMINAL_S:
        scaled by the mean of the last sample before `start`, the samples
        inside and the first sample after `end`."""
        lo = max(bisect.bisect_right(self.starts, start) - 1, 0)
        near = self.times[lo:bisect.bisect_left(self.starts, end) + 1]
        return self.measured(start, end) * NOMINAL_S * len(near) / sum(near)
