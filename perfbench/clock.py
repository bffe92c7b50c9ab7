"""Timing at a reference machine speed.

The benchmark runs on shared virtual machines whose speed drifts by 20-30%
over a few seconds (wall and CPU time alike), which is wider than any useful
regression bound.  So while calls are timed, an interval timer interrupts
the program every REF_EVERY_S to run a fixed reference kernel, and each
call's duration (less the kernel runs inside it) is scaled by
REF_NOMINAL_S / (median of the kernel times during and next to the call).
The kernel mixes interpreted Python with small numpy operations, as poalab's
solvers do, with whole-grid numpy expressions, as its sup-distance checks
do; it never calls poalab, so a change to the program cannot move it.  Raw
wall-clock figures are reported next to the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# median duration of reference_kernel() on the 2-core VM (Python 3.11,
# numpy 2.4) where the benchmark was calibrated; it only sets the scale in
# which scaled durations are reported
REF_NOMINAL_S = 7.0e-4
# one reference sample per this much wall time while calls are timed
REF_EVERY_S = 0.025
# a call's scale is the median of the samples taken during it or up to this
# long before its start or after its end; in trials on the 2-core VM 0.1 s
# gave steadier figures than 0.03 s or 0.25 s
WINDOW_S = 0.1

_M = np.ones((6, 6))
_V = np.arange(6.0)
_GRID = np.linspace(0.0, 2.0, 4097)


def reference_kernel() -> float:
    total = 0.0
    for i in range(60):
        a = np.array([float(i), 1.0, 2.0, 3.0, 4.0, 5.0])
        total += float(_M.T @ a @ _V) + float(np.min(a))
    for _ in range(3):
        total += float(np.max(np.abs(1.3 * _GRID**2 + 0.5 * _GRID - np.log1p(_GRID) * _GRID)))
    return total


class SpeedClock:
    """Reference samples taken on a timer, and the scale they imply.

    Use as a context manager around the timed calls; ``elapsed`` gives a
    call's duration without the kernel runs that interrupted it.
    """

    def __init__(self):
        self.samples: list[float] = []  # kernel durations
        self.times: list[float] = []    # when each sample ended
        self.kernel_s = 0.0             # total time spent in the kernel
        self._previous = None

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            reference_kernel()
            end = time.perf_counter()
            self.samples.append(end - start)
            self.times.append(end)
            self.kernel_s += end - start

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample(4)  # samples after the last call, for its window

    def mark(self) -> tuple[float, float]:
        """(wall time, kernel time so far), to bracket a call with."""
        kernel = self.kernel_s
        return time.perf_counter(), kernel

    def elapsed(self, begin: tuple[float, float], end: tuple[float, float]) -> float:
        return (end[0] - begin[0]) - (end[1] - begin[1])

    def scale(self, start: float, end: float) -> float:
        """Factor turning a duration measured in [start, end] into reference time."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return REF_NOMINAL_S / statistics.median(self.samples[lo:hi])
