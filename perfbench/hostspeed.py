"""Host-speed reference for the benchmark's timings.

The benchmark runs on a shared host whose speed swings by a third within
minutes, as other tenants come and go.  A swing slows every op of a run
alike, so it moves medians of wall time as much as a real change would.

To take it out, the run times a fixed reference kernel after every op: a
pure-Python integer loop and a loop of small numpy calls (eigendecomposition
and product of 6x6 matrices), the two kinds of work orbitkit does.  Each op's
time is then scaled by REF_MS over the median reference time of the ops around
it (`scales`), so it reads as milliseconds on a host where the kernel takes
REF_MS.  A set-up time is scaled the same way by reference passes run right
after it (`factor`).  The kernel is part of the benchmark, so no change to
orbitkit can change its time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The reference kernel's time on a quiet host (2-core Intel Xeon VM, Python
#: 3.11, numpy with OpenBLAS on one thread): the unit the timings are scaled to.
REF_MS = 4.2
#: Reference passes at the end of each set-up, whose median scales `setup_s`.
SETUP_PASSES = 51
#: An op is scaled by the reference passes of the ops up to this many places
#: before and after it: enough passes for a steady median, few enough to follow
#: the host's speed from second to second.
NEIGHBOURS = 4

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((6, 6))
_S = _A + _A.T


def reference_ms() -> float:
    """Time one pass of the reference kernel, in ms."""
    t = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    for _ in range(200):
        np.linalg.eigh(_S)[1] @ _A
    return (time.perf_counter() - t) * 1e3


def factor(reference_times) -> float:
    """Scale that turns a wall time measured alongside `reference_times` into
    time on the reference host."""
    return REF_MS / statistics.median(reference_times)


def scales(reference_times) -> list:
    """Per-op scales: entry i comes from the reference passes of ops
    i - NEIGHBOURS to i + NEIGHBOURS (fewer at the ends of the run)."""
    n = len(reference_times)
    return [factor(reference_times[max(0, i - NEIGHBOURS):min(n, i + NEIGHBOURS + 1)])
            for i in range(n)]
