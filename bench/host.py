"""Host speed probe: scales the benchmark's timings to a reference host speed.

The cores this benchmark runs on are shared with other work on the host.
Measured on a 2-core Xeon host, the same deck of series_algebra requests
ran up to 1.8x slower in some spells than in others, and spells lasted from
seconds to minutes, so that two 30 s runs of one seed differed by 50%.  A
fixed pure-Python kernel, run between requests, slowed in step with the
requests: over 146 decks the correlation of deck throughput with kernel speed
was 0.88, and dividing by the kernel's slowdown cut the spread of 10-deck
medians from +-30% to +-8%.

So every timed interval is bracketed by kernel timings and divided by its
slowdown, the mean of the two kernel timings over REFERENCE_S.  A scaled time
is what the interval would have taken on a host where the kernel takes
REFERENCE_S, the quiet speed of the host above.  The kernel touches no part
of the program, so a change to the program moves the scaled times as much as
the raw ones.
"""

from __future__ import annotations

import cmath
from time import perf_counter

#: best kernel time on the quiet 2-core Xeon host the benchmark was tuned on
REFERENCE_S = 1.25e-4
KERNEL_STEPS = 600
REPEATS = 3


def _kernel() -> complex:
    acc = 0j
    z = complex(0.3, 0.7)
    for i in range(KERNEL_STEPS):
        acc += cmath.exp(-z * (i * 1e-3)) * (i & 7)
    return acc


def kernel_time() -> float:
    """Best of REPEATS kernel runs, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


class HostClock:
    """Scales each timed interval by the kernel timings on either side of it.

    Consecutive intervals share the kernel timing between them.
    """

    def __init__(self):
        self._last = kernel_time()
        self.slowdowns: list[float] = []

    def scale(self, raw_s: float) -> float:
        now = kernel_time()
        slowdown = 0.5 * (self._last + now) / REFERENCE_S
        self._last = now
        self.slowdowns.append(slowdown)
        return raw_s / slowdown
