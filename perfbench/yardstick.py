"""A fixed piece of pure-Python exact arithmetic that measures machine speed.

The machines this benchmark runs on are shared.  The speed of a CPU switches
between a fast and a slow state (about 1.7x apart here), each lasting from a
fraction of a second to minutes, so the same pass can take 10-15 % longer
from one run to the next.  The run therefore stays on one CPU (run.py pins
it), times this yardstick between operations, and reports every time scaled
to the nominal speed:

    reported = measured * NOMINAL_S / mean(samples near the interval)

where the samples near an interval are the two that bracket it plus any
taken within half its length of either end.  Over ten 27-second runs per
workload on a 2-core VM, this brought the spread (interquartile range over
median) of ops_per_s from 9 % to 3 % on grid and from 15 % to 4 % on
families.  The unscaled times go to each run's result.json.

The yardstick shares no code with the program: it shifts a bivariate
polynomial stored as a dict of exponent pairs by a rational, the kind of
work that dominates the program's own time.  The collector is off while it
runs, so the program's heap cannot make it slower.
"""

from __future__ import annotations

import gc
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import comb, gcd

# Between the fast (0.85 ms) and slow (1.45 ms) state of a 2-core x86-64 VM
# running Python 3.11.7.
NOMINAL_S = 0.0010


def _shift(poly: dict, r: Fraction) -> dict:
    out: dict = {}
    for (i, j), c in poly.items():
        for k in range(j + 1):
            key = (i, k)
            out[key] = out.get(key, 0) + c * comb(j, k) * r ** (j - k)
    return out


def sample() -> float:
    """Seconds one yardstick takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        poly = {(i, j): (3 * i + 5 * j) % 13 - 6 for i in range(6) for j in range(7)}
        shifted = _shift(poly, Fraction(-2, 3))
        content = 0
        for value in shifted.values():
            content = gcd(content, Fraction(value).numerator)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Recorder:
    """Yardstick samples in time order, each with its time.monotonic() stamp."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []

    def add(self, at: float, seconds: float) -> None:
        self.times.append(at)
        self.seconds.append(seconds)

    def sample(self) -> float:
        seconds = sample()
        self.add(time.monotonic(), seconds)
        return seconds

    def factor(self, start: float, end: float) -> float:
        """Scale for a time measured over [start, end] of time.monotonic():
        the samples that bracket it, plus those within half its length of
        either end."""
        half = (end - start) / 2
        lo = min(bisect_left(self.times, start - half), bisect_left(self.times, start) - 1)
        hi = max(bisect_right(self.times, end + half), bisect_right(self.times, end) + 1)
        near = self.seconds[max(lo, 0):hi]
        return NOMINAL_S * len(near) / sum(near)
