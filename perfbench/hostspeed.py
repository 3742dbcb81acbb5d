"""A fixed NumPy probe of the host's speed, to take host drift out of
the benchmark's times.

On a host shared with other work, speed can drift by 10-40% over minutes
while the program stays the same (seen on a two-core x86_64 VM).  The
probe is a plain NumPy unsharp mask over one plane.  It is not the
program's code, so no change to the program moves it; only the host
does.  A run samples the probe between its timed calls, for about 5% of
their time, and every time it reports is scaled by ``REFERENCE_S /
median sample``: the figure the run would have given on a host where a
sample takes ``REFERENCE_S``.  Counts, ratios and memory are not scaled.

The plane is 512x512 on every workload.  Over five minutes of
``single_2048``, whose working set is about 4x the L3, frames per second
varied by +-10% from one 30-second window to the next, and their product
with this probe's median by +-4%; with a 2048x2048 plane, which samples
16 times less often, by +-5%.

The probe runs on one thread, between the program's calls, so it tracks
a slower machine (clock, memory bandwidth, busy neighbours) but not a
second busy process on the benchmark's own cores.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Share of the timed wall time spent on probe samples.
SHARE = 0.05

#: Side of the probe's plane (2 MB of float64).
SIDE = 512

#: Median sample (s) on the two-core x86_64 VM (105 MB L3) the benchmark
#: was sized on.
REFERENCE_S = 2.2e-3


def _mask(x: np.ndarray, rows: np.ndarray, blur: np.ndarray) -> None:
    """A 3x3 unsharp mask of ``x`` into ``blur``, with no allocation."""
    np.add(x[:-2], x[1:-1], out=rows)
    rows += x[2:]
    np.add(rows[:, :-2], rows[:, 1:-1], out=blur)
    blur += rows[:, 2:]
    blur *= 1.0 / 9.0
    np.subtract(x[1:-1, 1:-1], blur, out=blur)
    blur *= 0.5
    blur += x[1:-1, 1:-1]
    np.clip(blur, 0.0, 255.0, out=blur)


class HostProbe:
    """Times the unsharp mask over a ``SIDE`` x ``SIDE`` plane."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def keep_up(self, timed_s: float) -> None:
        """Sample until the samples have taken ``SHARE`` of ``timed_s``
        seconds of timed calls, and at least once."""
        if self.samples and self.spent >= SHARE * timed_s:
            return
        # Made for each round of samples and freed after it, so that the
        # probe holds no memory during the timed calls and a sample never
        # allocates: the process's allocator cannot move it.
        x = np.random.default_rng(0).random((SIDE, SIDE)) * 255.0
        rows = np.empty((SIDE - 2, SIDE))
        blur = np.empty((SIDE - 2, SIDE - 2))
        _mask(x, rows, blur)  # touches every page once, untimed
        while not self.samples or self.spent < SHARE * timed_s:
            start = time.perf_counter()
            _mask(x, rows, blur)
            self.samples.append(time.perf_counter() - start)
            self.spent += self.samples[-1]

    def slowdown(self) -> float:
        """How much slower than the reference the host ran: the median
        sample over ``REFERENCE_S`` (1.0 before any sample)."""
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / REFERENCE_S
