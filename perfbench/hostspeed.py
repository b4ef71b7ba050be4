"""Host-speed probe: time measured on a shared host, scaled to a reference speed.

The benchmark's host is a few virtual CPUs of a shared machine whose
throughput drifts by up to about 2x within a minute, and CPU time drifts
with it, so a raw timing says as much about the neighbours as about the
program. The probe samples the host's speed *during* a measured run: a
SIGALRM timer interrupts the program every PERIOD_S, and the handler times
one call of a fixed piece of pure-Python work (`ReferenceWork`, about
1.5 ms) that uses the same kinds of operation as the simulator: a heap of
tuples, dict updates and attribute access, partly on a table that does not
fit the core's caches.

A sample's speed is NOMINAL_S / its duration: 1.0 when the host runs at the
reference speed, 0.67 when it is 1.5x slower. Between two samples the speed
is the mean of the two; before the first and after the last it is that
sample's. Each sample's speed is the median of its SMOOTH neighbours, so
one interrupted sample does not count. A phase that ran from a to b then costs

    scaled(a, b) = integral over [a, b] of speed(t) dt

reference seconds: the time the same phase would have taken on the host at
its reference speed. The probe's own time is left out of both the raw and
the scaled figure. A program that gets 2x faster halves both figures; a host
that gets 1.5x slower changes only the raw one.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
from array import array
from bisect import bisect_left
from time import perf_counter

PERIOD_S = 0.04
# Median duration of one ReferenceWork call on the host the baseline was
# measured on (2-vCPU virtualized Xeon, 2.0 GHz, CPython 3.11) at its usual
# speed; it sets the scale of every scaled time, not its stability.
NOMINAL_S = 0.00125
# One sample is noisy; each speed is the median of this many neighbours.
SMOOTH = 9


class _Item:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0


class ReferenceWork:
    """Fixed pure-Python work whose speed stands for the host's.

    Two parts, about 70/30 by time on the reference host. The first churns a
    small heap of tuples and a small dict of objects: it stays in the core's
    caches and slows down with the core. The second touches objects of a
    16 k-entry table in a fixed random order, so part of its time waits on
    memory, which a slower core does not stretch; the simulator's own time
    has such a part, and without it the probe overstates how much a slow
    host slows the program.
    """

    TABLE = 16_000
    TOUCHES = 600

    def __init__(self) -> None:
        keys = [(i * 2654435761) % (1 << 32) for i in range(self.TABLE)]
        self.table = {k: _Item(k) for k in keys}
        random.Random(1).shuffle(keys)
        self.order = keys[:self.TOUCHES]

    def __call__(self) -> int:
        heap: list[tuple[int, int]] = []
        small: dict[int, _Item] = {}
        total = 0
        for i in range(800):
            heapq.heappush(heap, ((i * 7919) % 1009, i))
            item = small.get(i % 97)
            if item is None:
                item = small[i % 97] = _Item(i % 97)
            item.hits += 1
            if len(heap) > 64:
                t, j = heapq.heappop(heap)
                total += t ^ j
        table = self.table
        for k in self.order:
            item = table[k]
            item.hits += 1
            total += item.key & 7
        return total


class SpeedProbe:
    """Samples host speed while running; converts intervals to reference seconds."""

    def __init__(self, period_s: float = PERIOD_S, nominal_s: float = NOMINAL_S) -> None:
        self.period_s = period_s
        self.nominal_s = nominal_s
        self.work = ReferenceWork()
        self.start = array("d")
        self.end = array("d")
        self._previous = None

    def sample(self) -> None:
        # A collection triggered inside the probe would be the program's work.
        was_enabled = gc.isenabled()
        gc.disable()
        t = perf_counter()
        self.work()
        e = perf_counter()
        if was_enabled:
            gc.enable()
        self.start.append(t)
        self.end.append(e)

    def _on_alarm(self, _signum: int, _frame: object) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *_exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def busy_s(self) -> float:
        """Time spent in the probe itself."""
        return sum(e - s for s, e in zip(self.start, self.end))

    def speeds(self) -> list[float]:
        """Speed at each sample: the median over the SMOOTH samples around it."""
        raw = [self.nominal_s / (e - s) for s, e in zip(self.start, self.end)]
        half = SMOOTH // 2
        return [statistics.median(raw[max(0, i - half):i + half + 1]) for i in range(len(raw))]

    def _gaps(self) -> list[tuple[float, float, float]]:
        """(from, to, speed) for every stretch of program time, probe time excluded."""
        speed = self.speeds()
        n = len(speed)
        gaps = [(float("-inf"), self.start[0], speed[0])]
        for i in range(n - 1):
            gaps.append((self.end[i], self.start[i + 1], (speed[i] + speed[i + 1]) / 2))
        gaps.append((self.end[n - 1], float("inf"), speed[n - 1]))
        return gaps

    def split(self, intervals: list[tuple[float, float]]) -> tuple[float, float]:
        """(raw seconds, reference seconds) of program time inside the intervals."""
        gaps = self._gaps()
        starts = [g[0] for g in gaps]
        raw = scaled = 0.0
        for a, b in intervals:
            i = max(0, bisect_left(starts, a) - 1)
            while i < len(gaps) and gaps[i][0] < b:
                lo, hi, speed = gaps[i]
                overlap = min(b, hi) - max(a, lo)
                if overlap > 0:
                    raw += overlap
                    scaled += overlap * speed
                i += 1
        return raw, scaled
