"""Wall times normalised by the machine's speed while they were taken.

On a shared machine the speed of one core drifts by a third within a second
or two, because other tenants load the same cores. A fixed stdlib-only
reference loop measures that speed: it runs right before and right after
every timed call and, from a SIGALRM timer, every TICK_SECONDS during it. A
call's normalised time is its wall time (less the time spent in ticks) times
the mean of REFERENCE_SECONDS / loop time over those samples. That estimates
how long the call would take at the speed at which the loop takes
REFERENCE_SECONDS.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from typing import Any, Callable

# The reference loop takes about this long on a 2-core x86-64 machine running
# CPython 3.11.7 when no other tenant loads its cores.
REFERENCE_SECONDS = 0.0015
TICK_SECONDS = 0.025


def reference() -> float:
    """Seconds for a fixed loop of Fraction and int arithmetic."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(1, i % 13 + 1)
    return time.perf_counter() - start


class Gauge:
    """Times calls; ``ticks=False`` samples the speed only around each call,
    which keeps the loop out of profiles and spans."""

    def __init__(self, ticks: bool = True) -> None:
        self.ticks = ticks
        self._samples: list[float] = []
        self._ticking = 0.0
        if ticks:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(reference())
        self._ticking += time.perf_counter() - start

    def time(self, call: Callable[[], Any]) -> tuple[Any, Exception | None, float, float]:
        """(result, exception raised or None, wall seconds, normalised seconds)."""
        self._samples = [reference()]
        self._ticking = 0.0
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, TICK_SECONDS, TICK_SECONDS)
        start = time.perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:
            result, error = None, exc
        finally:
            if self.ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start - self._ticking
        self._samples.append(reference())
        speed = statistics.fmean(REFERENCE_SECONDS / sample for sample in self._samples)
        return result, error, wall, wall * speed
