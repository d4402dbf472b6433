"""Host-speed probe: a fixed piece of pure-Python work, timed between jobs.

The CPU speed of a shared host drifts by tens of percent within a minute
and by up to a factor of two over an hour, in CPU time as well as wall
time, so raw job times from different runs are not comparable. The
benchmark therefore times this probe right before and right after every
timed job and reports the job's time scaled to a host on which the probe
takes REFERENCE_S:

    normalised = job seconds * REFERENCE_S / probe

where probe is the mean of the median probe time before the job and the
median probe time after it (run.SpeedGauge). perfbench/README.md gives
the spread of ten runs in raw and in normalised time.

The probe does the kinds of work sspkit does (exact Fraction arithmetic,
bit operations on Python ints, dict and set traffic, list sorting), so
a slower or faster host moves it by about as much as it moves a job. The
probe is benchmark code: a change to sspkit cannot make it faster or
slower, so a change that makes a job slower raises the normalised time
in proportion.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# A typical probe time on the 2-core Intel Xeon VM (CPython 3.11.7) on
# which the benchmark was written; it spans about 0.025 to 0.05 s there.
# Normalised times are seconds on that host at that speed. Changing this
# constant rescales every time metric, so it is fixed once.
REFERENCE_S = 0.040


def _work() -> int:
    acc = 0
    # Fraction Gaussian elimination on a fixed 14x14 matrix.
    n = 14
    m = [[Fraction((i * j + 3) % 11, (i + j) % 5 + 1) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    acc += sum(1 for row in m for x in row if x)
    # Bitset walks over Python ints.
    masks = [(k * 2654435761) & ((1 << 40) - 1) for k in range(600)]
    for a in masks[:200]:
        for b in masks[:200]:
            acc += bin(a ^ b).count("1") <= 18
    # Dict and set traffic, then a sort.
    seen: dict[int, int] = {}
    for k in range(40000):
        key = (k * 7919) % 2003
        seen[key] = seen.get(key, 0) + 1
    acc += len(set(seen.values()))
    acc += sorted(masks)[len(masks) // 2] & 1
    return acc


def probe() -> float:
    """Seconds one run of the probe work takes now. The garbage collector
    is off meanwhile, so the size of the caller's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
