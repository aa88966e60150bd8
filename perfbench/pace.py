"""Host speed, read all through a run, and times scaled to a reference speed.

The benchmark was tuned on a 2-core share of a host whose speed drifts in
spells that slow every process running then: within one process, a fixed
piece of work read 6 ms and 12 ms a few hundred milliseconds apart, and
over minutes the medians of whole runs moved by a quarter.  A metric taken
as plain wall time moves from run to run by as much as the host does.

So a worker reads the host's speed all through its run: a ``SIGALRM``
handler in the worker's own process times a fixed piece of pure-Python
reference work (exact ``Fraction`` arithmetic, a small dict keyed by
tuples and a sort, the kind of work the program spends its time in) every
``INTERVAL_S``.  The readings' own time is left out of every measured time
(``Speedometer.clock``), and a time measured from ``t0`` to ``t1`` is
scaled by ``REFERENCE_S`` over the mean reading taken in that interval (or
the ``NEAREST`` readings nearest to it, for a short one): each metric reads
the time the operation would take on a host on which the reference work
takes ``REFERENCE_S``.

The reference work is the benchmark's own code and never calls the
program, so a change to the program moves the scaled times as it moves the
wall times measured at a steady host speed.  Wall times are printed next
to the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# A round figure for the reference work's time on the baseline machine
# (2-core Intel Xeon VM, Python 3.11.7) in a fast spell; the medians of the
# readings of whole runs there were 5.4-9.5 ms.
REFERENCE_S = 0.005
INTERVAL_S = 0.3
NEAREST = 2


def reference_work() -> int:
    # Few objects are alive at once, so the work allocates from the free
    # blocks any heap has, whatever the program's heap holds.
    acc = Fraction(0)
    table: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 750):
        q = Fraction(i % 97 + 1, 2 ** (i % 7) * 3)
        acc += q
        table[(i % 7, i % 5)] = q
        if i % 25 == 0:
            acc = Fraction(acc.numerator % 1009, acc.denominator % 1013 + 1)
            sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return len(table) + acc.denominator % 2


class Speedometer:
    """Readings of the reference work's time, taken every ``interval``
    seconds once started, and the clock they are left out of."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.times: list[float] = []  # when each reading started, on clock()
        self.readings: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent taking readings."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no reading was taken in between
                return now - spent

    def read(self, *_signal) -> None:
        """One reading, with the collector off so that the program's heap
        does not show in it."""
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            reference_work()
        finally:
            t1 = time.perf_counter()
            if enabled:
                gc.enable()
        self.times.append(t0 - self.spent)
        self.readings.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """The scale for a time measured from ``t0`` to ``t1`` on
        ``clock()``: ``REFERENCE_S`` over the mean of the readings taken
        in that interval, or of the ``NEAREST`` readings nearest to it
        when fewer were taken in it."""
        times = self.times
        lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
        mid = (t0 + t1) / 2
        while hi - lo < NEAREST and (lo > 0 or hi < len(times)):
            if hi == len(times) or (lo > 0 and mid - times[lo - 1] <= times[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.fmean(self.readings[lo:hi])

    def scale(self, intervals: list[tuple[float, float]]) -> float:
        """A sample made of the given ``(t0, t1)`` intervals, scaled."""
        return sum((t1 - t0) * self.factor(t0, t1) for t0, t1 in intervals)
