"""CPU-speed reference, sampled through the run.

The benchmark shares its cores with other tenants, and the speed they
leave it drifts by tens of percent within a minute (a fixed Python loop
measured in 10 s blocks on a 2-core Intel Xeon host ran between 8.9 and
15.3 ms).  So that runs taken minutes apart compare, every wall time the
benchmark reports is rescaled to a fixed speed: it is multiplied by
``REFERENCE_S`` over the median time of a fixed reference kernel sampled
around it.  The kernel does what srloc spends most of its time on, 6x6
complex numpy linear algebra called from Python, and shares no code with
srloc, so a change to srloc cannot move it.  (On that host its 0.2 s
medians tracked those of an ``eval`` command with a log-correlation of
0.93, and dividing by them cut the command's spread from 12% to 3.5%.)
The raw times are kept in the run report.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# Median reference-kernel time on an idle core of the 2-core Intel Xeon
# host the benchmark was defined on; only sets the scale of the numbers.
REFERENCE_S = 2.0e-3
WINDOW_S = 0.1      # samples within this distance of a measured interval count
MIN_SAMPLES = 3

_B = np.array([[complex(math.cos(3 * i + j), math.sin(i - 2 * j)) for j in range(6)]
               for i in range(6)])
_A = _B @ _B.conj().T + 6.0 * np.eye(6)
# Bound now, so that the traced run's counting proxies never see the kernel.
_cholesky, _eigh, _inv = np.linalg.cholesky, np.linalg.eigh, np.linalg.inv


def reference_kernel(loops: int = 60) -> float:
    total = 0.0
    for _ in range(loops):
        lower = _cholesky(_A)
        eigs, vecs = _eigh(_A)
        m = lower @ _inv(lower) @ vecs
        total += float(np.trace(m).real) + math.exp(-float(eigs[0]))
    return total


class Speed:
    """Timestamps and durations of reference-kernel samples."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.stamps.append((start + end) / 2.0)
        self.seconds.append(end - start)

    def scale(self, start: float, end: float) -> float:
        """Factor that rescales a wall time measured over [start, end]."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:  # widen to the nearest samples
            mid = bisect.bisect_left(self.stamps, (start + end) / 2.0)
            lo = max(0, mid - MIN_SAMPLES)
            hi = min(len(self.stamps), mid + MIN_SAMPLES)
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])
