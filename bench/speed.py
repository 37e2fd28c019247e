"""Correction of measured times for the speed of a shared machine.

On the shared 2-core machine this benchmark was built on, the same work
took up to 25 % more or less time from one minute to the next, in spells
lasting minutes (wall and CPU time alike, so the process was slowed, not
descheduled). A fixed kernel that never touches privwalk is timed right
before and right after each measured interval, and the interval is
scaled by the kernel's time in a quiet spell over its time then. A
change to privwalk moves the corrected figure as it moves the raw one; a
slow spell of the machine moves the interval and the kernel together.
"""

from __future__ import annotations

import statistics
import time

# the kernel's time in a quiet spell of the reference machine (2-core KVM
# guest, Python 3.11.7, numpy 2.4.6); it sets only the scale of corrected
# figures, which then read close to raw ones when the machine is quiet
QUIET_KERNEL_S = 0.008


class SpeedProbe:
    """Times the kernel: a pure-Python loop and a numpy sort, ~8 ms together."""

    def __init__(self):
        import numpy as np  # here, so that callers can limit BLAS threads first

        self._sort = np.sort
        self._array = np.random.default_rng(0).integers(0, 1 << 40, 200_000)

    def sample(self) -> float:
        """Median of three kernel timings, in seconds."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            total = 0
            for i in range(150_000):
                total += i
            self._sort(self._array)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def corrected(seconds: float, before: float, after: float) -> float:
    """An interval timed between two kernel samples, at the quiet machine's speed."""
    return seconds * QUIET_KERNEL_S / ((before + after) / 2)
