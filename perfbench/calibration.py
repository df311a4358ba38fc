"""Machine-speed calibration for the benchmark's timed metrics.

On a shared host the speed of a core drifts with the neighbours' load: the
same gupjc iteration took from 1.4 s to 2.4 s within minutes, in phases of
tens of seconds.  No run is long enough to average such phases away, so
every timed iteration is scaled by how fast the machine ran at that moment.

``kernel()`` times a fixed piece of work that uses no gupjc code: an
interpreter-bound Python loop.  Recorded next to every iteration of the
verify and wigner-fig1 workloads for minutes, it followed the drift of both
best among the kernels tried; adding a complex matrix product, small numpy
or LAPACK calls, a memory-bound array sum or cache-missing list reads made
the scaled times of one workload or the other less steady.  The loop runs
three times and the median is kept, so that one preemption does not rescale
a whole block of iterations.

The harness runs the kernel between iterations; an iteration's wall and CPU
times are multiplied by ``REFERENCE_S / c``, where ``c`` is the mean of the
kernel times just before and just after it.  The scaled times read as
seconds on the reference host below at the speed it had when the kernel took
``REFERENCE_S``.  A change to gupjc cannot change the kernel, so the ratio
between two versions' times is kept.
"""

from __future__ import annotations

import statistics
import time

# median kernel time on the reference host: 2-vCPU Intel Xeon, CPython 3.11
REFERENCE_S = 0.015

REPEATS = 3
LOOP = 200_000


def _work() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def kernel() -> float:
    """Median wall time of REPEATS runs of the calibration loop, in seconds."""
    return statistics.median(_work() for _ in range(REPEATS))
