"""Host-speed calibration for the tablang benchmark.

The benchmark runs on shared machines whose speed drifts by up to 2x over
tens of seconds as other tenants load the host. ``calibrate()`` times a fixed
kernel, shaped like tablang's hot code (small numpy rasters built from
rotated coordinates, plus Python dict and list work). It lives here, not in
``src/``, so a change to tablang never changes it. The benchmark times the
kernel just before each episode and scales that episode's times by
``REFERENCE_S / calibrate()``: a time then reads as it would at the
reference host speed, and drift that slows the kernel and tablang alike
cancels out. On the 2-core Xeon guest the benchmark was tuned on, the kernel
and the episodes of all three workloads slowed alike (within about 5%) as
the host got busy.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# The kernel's best time on a quiet 2-core Intel Xeon guest (Python 3.11,
# numpy 2.4), where the benchmark was tuned. Corrected times are in seconds
# at that speed. Changing it rescales every corrected time, so it is fixed.
REFERENCE_S = 0.00036
REPEATS = 3
# Set-up (imports, reading files) slows less than the kernel: between the
# quietest and the busiest 30% of samples on that guest, the kernel and
# tablang episodes slowed 1.5-1.6x but set-up only 1.3-1.35x, about the
# square root. So set-up is corrected by the square root of the factor.
SETUP_EXPONENT = 0.5

_XS = np.arange(64.0)
_YS = np.arange(32.0)


def _kernel() -> int:
    acc = 0
    for i in range(12):
        x = _XS[None, :] - 3.0 * i
        y = _YS[:, None] - 1.5 * i
        c, s = math.cos(0.3 * i), math.sin(0.3 * i)
        ux = (x * c + y * s) / 5.0
        uy = (-x * s + y * c) / 5.0
        acc += int(((np.abs(ux) <= 1.0) & (np.abs(uy) <= 1.0)).sum())
    table = {}
    for i in range(400):
        table[(i, i % 7)] = [i, str(i)]
    return acc + sum(len(v[1]) for v in table.values())


def calibrate() -> float:
    """Best of a few kernel timings, in seconds; a short preemption in one
    repeat does not count."""
    best = math.inf
    for _ in range(REPEATS):
        t = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t)
    return best
