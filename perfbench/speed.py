"""Machine-speed calibration against a fixed reference loop.

On a shared host, other tenants slow whole stretches of a run down: by up
to 1.8x, for tens of seconds at a time, on the 2-core machine this benchmark
was built on.  The slowdown hits all pure-Python code alike (the ratio of
two different loops stayed within about 6% while each swung 1.8x), so the
harness runs a small reference loop, which never touches hopfrep, about every
0.05 s between jobs and around every subprocess it times.  Each time is then
reported scaled to the reference's nominal speed: raw time x REFERENCE_MS /
(the reference's time around it).  Raw times are kept in the report.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

# Nominal time of one reference loop: its uncontended time on the machine
# the baseline was measured on.  Only ratios to it matter, so a calibrated
# time reads as the time on that machine when nothing else was running.
REFERENCE_MS = 1.25
SAMPLE_EVERY_S = 0.05
BURST = 3  # loops per sample; the sample is their median
WINDOW_S = 0.25  # samples this close to an interval calibrate it


def reference_loop() -> float:
    """Seconds taken by a fixed mix of dict, tuple and Fraction work."""
    start = perf_counter()
    acc: dict = {}
    step = Fraction(1, 3)
    for i in range(400):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, Fraction(0)) + step * (i % 7)
    return perf_counter() - start


class SpeedLog:
    """Timestamped slowdown samples: measured reference time / nominal."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.slowdowns: list[float] = []

    def sample(self) -> None:
        at = perf_counter()
        loop = statistics.median(reference_loop() for _ in range(BURST))
        self.at.append(at)
        self.slowdowns.append(loop * 1000 / REFERENCE_MS)

    def sample_if_due(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """Median slowdown of the samples within WINDOW_S of [start, end]."""
        low = bisect.bisect_left(self.at, start - WINDOW_S)
        high = bisect.bisect_right(self.at, end + WINDOW_S)
        if low == high:  # no sample that close: take the nearest one
            nearest = min(
                (i for i in (low - 1, low) if 0 <= i < len(self.at)),
                key=lambda i: min(abs(self.at[i] - start), abs(self.at[i] - end)),
            )
            return self.slowdowns[nearest]
        return statistics.median(self.slowdowns[low:high])
