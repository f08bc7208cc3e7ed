"""A fixed reference loop that measures how fast the machine is right now.

On a shared machine the same Python code runs at speeds that differ by
40 % for stretches of seconds to minutes, so raw times of two 20-second
runs can differ by 20 % or more without any change to the program.  The
benchmark times this loop around and during every job and reports each
time in calibrated seconds:

    calibrated = raw * mean(REFERENCE_S / loop time)   over the job

that is, seconds on a machine where the loop takes REFERENCE_S.  The
loop is part of the benchmark, never of operadkit, so a change to the
program moves calibrated times exactly as it moves raw ones.  Raw times
are kept next to them in each run's result file.

Changing the loop or REFERENCE_S rescales every time metric: it needs a
new baseline like any other change to the benchmark.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# The loop's median time on a 2-vCPU Intel Xeon (2.0 GHz) shared
# sandbox under CPython 3.11.7.
REFERENCE_S = 0.0006

# While a job runs it is sampled every METER_INTERVAL_S of wall time;
# each sample costs about REFERENCE_S, 3 to 5 % of the job.
METER_INTERVAL_S = 0.02


def reference_loop() -> int:
    """Dict, tuple, integer and Fraction work, like operadkit's inner
    loops (sparse rows, tree shapes, exact coefficients)."""
    acc: dict = {}
    total = Fraction(0)
    for i in range(1500):
        key = (i % 97, (i * 31) % 89)
        acc[key] = acc.get(key, 0) + i * i
        if acc[key] % 5 == 0:
            del acc[key]
        if i % 50 == 0:
            total += Fraction(i + 1, (i % 7) + 2)
    return len(acc) + total.numerator % 7


def speed() -> float:
    """REFERENCE_S over the loop's time now (median of five runs)."""
    times = []
    for _ in range(5):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return REFERENCE_S / statistics.median(times)


class Meter:
    """Samples the loop from a SIGALRM interval timer while a job runs,
    so that a long job is calibrated by its middle, not only by its ends.
    Main thread only.  The time spent sampling is in ``cost``; take it out
    of the job's time."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.speeds: list[float] = []
        self.cost = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference_loop()
        elapsed = perf_counter() - start
        self.speeds.append(REFERENCE_S / elapsed)
        self.cost += elapsed

    def __enter__(self) -> "Meter":
        if self.enabled:
            self.previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, METER_INTERVAL_S, METER_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.previous)
