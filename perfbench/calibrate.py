"""Host-speed calibration: a fixed pure-Python loop timed next to the answers.

The shared host this benchmark was built on changes speed by up to 1.8x,
on each vCPU almost independently of the other, in spells that last from
a fraction of a second to minutes, so two runs of the same code can
differ by more than any useful bound.  Each round therefore times the whole loop once before lenswall is
imported (run.py scales set-up time by it), and one PROBE_PARTS-th of it
before the first answer and after every answer (run.py scales each
answer's time by the two probes around it).  The loop does the kind of
work lenswall does (Fraction sums with growing integers, 3x3 integer
matrix products, dict updates) and imports nothing from it, so no change
to the program can move it.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

# About the loop's time, in seconds, on the host the baseline in README.md
# was measured on; a scaled time reads as seconds on a host where the loop
# takes this long.  Changing it rescales every timed end-to-end metric.
REFERENCE_S = 0.080
PROBE_PARTS = 8


def _loop(parts: int) -> int:
    total = Fraction(0)
    for k in range(1, 3000 // parts):
        total += Fraction(k % 7 - 3, k)
    m = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    f = ((3, 2, 2), (2, 1, 2), (2, 2, 1))
    for _ in range(2500 // parts):
        m = tuple(tuple(sum(m[i][k] * f[k][j] for k in range(3)) % 1000003 for j in range(3)) for i in range(3))
    counts: dict[int, int] = {}
    for i in range(150000 // parts):
        counts[i % 211] = counts.get(i % 211, 0) + i
    return total.numerator % 97 + m[0][0] + len(counts)


def calibrate() -> float:
    """Seconds one run of the whole loop takes."""
    t0 = time.perf_counter()
    _loop(1)
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds one run of the whole loop would take, estimated from one
    PROBE_PARTS-th of it (about 10 ms on the reference host) on each CPU
    this process may use, pinned to one at a time, and averaged over them.
    The CPUs of the host this benchmark was built on change speed almost
    independently of each other, and an answer, or the child process that
    gives it, may run on any of them."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            _loop(PROBE_PARTS)
            times.append((time.perf_counter() - t0) * PROBE_PARTS)
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)
