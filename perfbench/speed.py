"""The machine's speed, measured alongside the program, and timings scaled
to the reference speed.

The reference machine is a share of a busy host: the same pure-Python work
takes anywhere from 1x to 2x its fastest time, changing within a second and
from one minute to the next, as other tenants load the host.  A timing taken
once is mostly a reading of that load.  So the measuring process times a
fixed calibration kernel (Fraction arithmetic and dict updates, the
library's own kind of work, on fixed inputs) just before every point and
once after the last, and every point's time is multiplied by
``REFERENCE_KERNEL_S`` / (the slower of the two kernel times around it).
A timing so scaled reads what it would on the reference machine with its
core to itself; the program under test cannot change the kernel's work.

The garbage collector is paused while the kernel runs, so a collection the
program's allocations have made due does not land in a calibration.  Of the
scalings tried on repeated runs of one sample (the kernel warm or as the
program leaves the caches, the nearest one to twenty calibrations around a
point, their median or mean), this one left the least spread between runs:
the spread of the points' total time fell from 0.14 to 0.03 of its median.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# The kernel's time on the reference machine (2-vCPU virtual machine, Intel
# Xeon, Python 3.11.7) when its core is not shared: calibrations there
# cluster at 145-170 us then, and at 250-300 us when it is.
REFERENCE_KERNEL_S = 160e-6


def kernel():
    acc, table = Fraction(0), {}
    for i in range(1, 60):
        acc += Fraction(i, i * i + 1)
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i * i
    return acc, table


def calibrate() -> float:
    """The kernel's time, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale_points(times: list[float], kernel_times: list[float]) -> list[float]:
    """Each point's time at reference speed; kernel_times[i] was taken just
    before point i and kernel_times[i + 1] just after it."""
    return [t * REFERENCE_KERNEL_S / max(before, after)
            for t, before, after in zip(times, kernel_times, kernel_times[1:])]
