"""Machine-speed calibration for the benchmark's times.

On a machine shared with other tenants the same work can take 20-30 %
longer from one minute to the next, which moves every wall-clock time as
much.  So while ops run, a Sampler interrupts them every INTERVAL_S of wall
time with a SIGALRM handler that times one short chunk of fixed
pure-Python work, which calls nothing in ellcover.  The chunks measure the
machine's speed during the ops themselves; the worker also samples its
own setup.  Times are taken on a clock that leaves out the time spent in
the handler, and are reported at reference speed: divided by the speed
factor, the mean chunk time over REFERENCE_S.  A program change moves the
measured times and not the chunks; a change of machine speed moves both.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from statistics import mean
from time import perf_counter

REFERENCE_S = 0.002  # one chunk at reference speed
CHUNK_ITERATIONS = 4_000
INTERVAL_S = 0.05


def _work(n: int) -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        t = (i, i * 7 % 13, i ^ 0x55)
        table[t[1]] = table.get(t[1], 0) + t[2]
        acc = (acc * 31 + t[0] % 97) % 1000003
    return acc + len(table)


class Sampler:
    """Times one chunk every `interval_s` of wall time while `sampling`."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.chunks: list[float] = []
        self.handler_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        _work(CHUNK_ITERATIONS)
        t1 = perf_counter()
        self.chunks.append(t1 - t0)
        self.handler_s += perf_counter() - t0

    def clock(self) -> float:
        """Wall time less the time spent in the handler so far."""
        return perf_counter() - self.handler_s

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if not self.chunks:  # shorter than one interval
                self._tick(signal.SIGALRM, None)

    def speed(self) -> float:
        """Mean chunk time over the reference: 1.25 means 25 % slower."""
        return mean(self.chunks) / REFERENCE_S
