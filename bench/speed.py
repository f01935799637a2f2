"""Machine-speed normalisation of measured times.

The benchmark runs on shared virtual machines, where two things disturb a
timing. The process is taken off its CPU now and then, for many
milliseconds at a time; and the effective CPU speed drifts by 20% and more
over a few seconds. Every interval is therefore measured on ``clock``, the
CPU time of the process, which leaves out the time the process was not
running (the benchmark is one thread that does no waiting I/O). The drift
shows in CPU time as much as in wall time: a fixed reference kernel of exact
rational linear algebra and dictionary building, which uses nothing from
crnrelay, is timed every ``EVERY_S`` seconds between ops, and each measured
interval is scaled by ``REFERENCE_S`` over the median duration of the kernel
runs nearest to it. Reported times are therefore seconds at reference speed,
the speed at which the kernel takes ``REFERENCE_S``: that of an idle 2-vCPU
x86-64 virtual machine under CPython 3.11, so reported times read close to
wall times there. A change to crnrelay moves op times and leaves the kernel
alone, so the ratio keeps the change and drops the drift.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0027    # kernel duration that defines reference speed
EVERY_S = 0.1           # kernel runs at most this often between ops
NEAREST = 3             # kernel runs whose median sets the speed at a moment

clock = time.process_time

_MATRIX = [[Fraction((7 * i + 3 * j) % 11 + 1, (i + 2 * j) % 5 + 1)
            for j in range(5)] for i in range(5)]


def reference_kernel() -> int:
    """Characteristic polynomial of a fixed 5x5 rational matrix
    (Faddeev-LeVerrier) plus some dictionary building: the instruction mix
    of the exact linear algebra the workloads spend their time in."""
    n = len(_MATRIX)
    work = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    coeffs = []
    for k in range(1, n + 1):
        work = [[sum((_MATRIX[i][t] * work[t][j] for t in range(n)), Fraction(0))
                 for j in range(n)] for i in range(n)]
        c = -sum(work[i][i] for i in range(n)) / k
        coeffs.append(c)
        for i in range(n):
            work[i][i] += c
    table = {}
    for i in range(1500):
        table[(i, i % 7)] = [i] * 3
    return coeffs[-1].denominator % 7 + len(table)


class SpeedLog:
    """Kernel timings taken through a run, and the scale they give."""

    def __init__(self):
        self.mids: list[float] = []
        self.durations: list[float] = []
        self._last = float("-inf")
        reference_kernel()   # the first run is slow and unrepresentative

    def sample(self) -> None:
        t0 = clock()
        reference_kernel()
        t1 = clock()
        self.mids.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self._last = t1

    def maybe_sample(self) -> None:
        if clock() - self._last >= EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Seconds at reference speed for the interval [t0, t1] of ``clock``."""
        mid = (t0 + t1) / 2
        i = bisect.bisect(self.mids, mid)
        lo = max(0, min(i - NEAREST // 2, len(self.mids) - NEAREST))
        near = self.durations[lo:lo + NEAREST]
        return (t1 - t0) * REFERENCE_S / statistics.median(near)
