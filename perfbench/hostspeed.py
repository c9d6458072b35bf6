"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by up to
1.8x over tens of seconds and flips between fast and slow states at
sub-second intervals.  A fixed reference unit of work, independent of the
library, runs between the checks; each check's latency is scaled by
REF_UNIT_S over the local median time of that unit.  The timing metrics
are therefore seconds at the reference host speed: a change to the
library moves them, a change in the speed of the host mostly does not.

The unit mixes what the library spends its time on: a Python float loop,
scipy quadrature with a Python callback, and small numpy array arithmetic.
It touches no library code.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy import integrate

# typical time of one unit on the host the bounds were set on (Intel Xeon,
# 2.1 GHz, shared 2-vCPU VM: 0.6 ms fast, 0.9 ms slow); it only sets the
# scale of the normalised times
REF_UNIT_S = 0.7e-3
# a check is normalised by the median of this many units on each side of it
WINDOW = 3


def _integrand(x: float) -> float:
    return math.exp(-x * x) * math.cos(3.0 * x)


def _work() -> float:
    s = 0.0
    for i in range(4500):
        s += math.sin(i * 1e-3)
    s += integrate.quad(_integrand, 0.0, 4.0, limit=200)[0]
    s += integrate.quad(_integrand, -2.0, 6.0, limit=200)[0]
    a = np.linspace(0.0, 1.0, 256)
    for _ in range(60):
        a = np.sqrt(a * a + 0.1)
    return s + float(a[-1])


def unit() -> float:
    """Run one reference unit; returns its wall time in seconds."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def units(count: int) -> list:
    return [unit() for _ in range(count)]


def factor(unit_times) -> float:
    """Scale from measured seconds to seconds at the reference speed."""
    return REF_UNIT_S / statistics.median(unit_times)


def local_factors(unit_times) -> list:
    """Per-check scales for a pass in which unit_times[i] ran just before
    check i and unit_times[i + 1] just after it."""
    n = len(unit_times) - 1
    return [factor(unit_times[max(0, i - WINDOW + 1): i + WINDOW + 1]) for i in range(n)]
