"""Host-speed probes: a fixed, program-independent kernel timed next to
the measured work, so that wall-clock times can be rescaled to one host
speed.

The reference machine is a VM on a shared host whose speed drifts by up to
40% within seconds and between phases that last minutes (bench/README.md).
The kernel below uses only the standard library (big-integer Fraction
arithmetic, the same kind of work that dominates irrgeo's profile) and
never changes with the program.  On 1-second windows its time tracks the
time of a repeated irrgeo op with correlation 0.97, and the op's time
divided by the kernel's spreads 3% where the raw op time spreads 19%.

A scaled time is a measured time multiplied by NOMINAL_S over the kernel's
time at that moment: the time the work would take on a host where the
kernel takes NOMINAL_S.  A program change moves scaled times exactly as it
moves raw ones, because the kernel does not depend on the program.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from fractions import Fraction

NOMINAL_S = 0.002  # about the kernel's time on the reference machine
PROBE_EVERY_S = 0.05  # of measured work between two probes
WINDOW = 2  # probes on each side of a measured interval that scale it


def kernel() -> Fraction:
    """Fixed big-integer Fraction work, about 2 ms on the reference machine."""
    x = Fraction(3, 7)
    acc = Fraction(0)
    for i in range(1, 64):
        acc += x * Fraction(i * 1234567891011, i + 97) - Fraction(i, 3)
        x = (x * x + 1) / (x + 2)
        if x.denominator.bit_length() > 200:
            x = Fraction(i, i + 5)
    return acc


def probe() -> float:
    """Seconds that one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Probes:
    """Probes taken between measured intervals, at least every
    PROBE_EVERY_S of measured time and once after the last interval.  Each
    interval is scaled by the median of the WINDOW probes before it and the
    WINDOW probes after it."""

    def __init__(self, every: float = PROBE_EVERY_S) -> None:
        self.every = every
        self.times = array("d")
        self._before = array("l")  # per interval, probes taken before it
        self._since = math.inf

    def before(self) -> None:
        """Call right before a measured interval starts."""
        if self._since >= self.every:
            self.times.append(probe())
            self._since = 0.0
        self._before.append(len(self.times))

    def after(self, elapsed: float) -> float:
        """Call right after a measured interval of `elapsed` seconds;
        returns it scaled by the latest probe, an estimate good enough to
        decide when to stop."""
        self._since += elapsed
        return elapsed * NOMINAL_S / self.times[-1]

    def finish(self) -> None:
        self.times.append(probe())

    def scaled(self, elapsed: list[float]) -> list[float]:
        """The intervals, in order, scaled to the nominal host speed."""
        out = []
        for seconds, p in zip(elapsed, self._before):
            local = statistics.median(self.times[max(0, p - WINDOW) : p + WINDOW])
            out.append(seconds * NOMINAL_S / local)
        return out
