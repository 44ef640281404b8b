"""A speedometer: how fast the processor ran while a child solved.

On a shared host the same single-threaded child runs up to 1.6x slower
while a neighbour is busy, in CPU time as much as in wall time.  Slow and
fast spells alternate within a second, and their mix drifts from minute to
minute, so two runs of the same code can differ by a third.

While the solve runs, a timer signal every `INTERVAL_S` runs a fixed ~2 ms
reference job (`job`) in the child's own thread and times it.  Each sample
gives the speed of the processor at that moment, as `NOMINAL_S` over the
job's time.  The solve's wall time less the samples' time, times the mean
speed, is its work in seconds at the nominal speed: the time the solve
would have taken on a processor that runs the job in `NOMINAL_S`.

The job is pure Python, like toricres: exact elimination over `Fraction`
and products of dict-of-monomial polynomials over `int`.  It uses nothing
from toricres, so a change to the library cannot change the yardstick.
"""
from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

# seconds between samples, and seconds one job is taken to last
INTERVAL_S = 0.05
NOMINAL_S = 0.002


def _rank(n: int) -> int:
    """Rank of a fixed n x n matrix over Q, by fraction elimination."""
    rows = [[Fraction((3 * i + 5 * j * j + i * j) % 11 - 5, 1 + (i + 2 * j) % 4)
             for j in range(n)] for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        for r in range(rank + 1, n):
            f = rows[r][col] * inv
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _poly_power(k: int) -> int:
    """Number of terms of (x + 2y + 3z + 1)^k, multiplied out term by term."""
    base = {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3, (0, 0, 0): 1}
    acc = {(0, 0, 0): 1}
    for _ in range(k):
        out: dict = {}
        for ea, ca in acc.items():
            for eb, cb in base.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                out[e] = out.get(e, 0) + ca * cb
        acc = out
    return len(acc)


def job() -> int:
    return _rank(8) + _poly_power(8)


class Speedometer:
    """Times what runs between `start` and `stop`, sampling the job's time
    on a wall-clock timer meanwhile."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.wall_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        job()
        self.samples.append(perf_counter() - start)

    def start(self) -> None:
        self.samples = []
        job()                       # first run outside the timed region
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = perf_counter()
        self._tick(None, None)      # at least one sample, even for short solves
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._old)

    def speed(self) -> float:
        """Mean speed over the samples, relative to the nominal job time."""
        return sum(NOMINAL_S / t for t in self.samples) / len(self.samples)

    def work_s(self) -> float:
        """Seconds the timed code took, less the samples, at nominal speed."""
        return (self.wall_s - sum(self.samples)) * self.speed()
