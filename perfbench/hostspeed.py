"""Host speed, measured by timing a fixed reference kernel.

On the shared 2-core x86_64 VM this benchmark was tuned on, the host's speed
moved by up to 1.6x within minutes, sometimes as a step in the middle of a
set of runs, and every job of a workload slowed by the same factor (1.48 to
1.66 for all 14 jobs of ``lattice-solve``: sparse LU, NumPy and pure Python
alike).  Timing this kernel next to the jobs measures that factor, and
``at_reference_speed`` divides it out.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on that VM in its fast state.  It sets the scale of the
# converted times only: a converted time reads as seconds on that host.
REFERENCE_PROBE_S = 0.005

_SORTED = np.random.default_rng(0).random(20_000)


def probe() -> float:
    """Seconds one run of the reference kernel takes now: a pure-Python
    loop and NumPy sorts, CPU-bound like the jobs."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    for _ in range(5):
        np.sort(_SORTED)
    return time.perf_counter() - start


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the kernel took ``probe_s``, converted to
    seconds at the reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s
