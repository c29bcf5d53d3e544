"""How fast the shared host runs right now, read off a fixed computation.

On a host whose vCPUs are shared with other tenants, the same pure-Python
work takes from 1x to 1.5x its best time, in phases lasting seconds to
minutes.  That swings a run's times by more than any bound worth setting.
The benchmark therefore times this fixed computation beside every job, and
during long jobs, and scales the job's time to the reference speed at which
the computation takes REFERENCE_S.  The computation mixes what the engines
do (integer bit masks, list indexing, dict and string work) and never calls
the package.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

REFERENCE_S = 0.002
TICK_S = 0.1   # period of the samples taken inside a running job
# After a job this long, one sample's own jitter would matter more than its
# cost, so the speed after it is read as the median of three.
LONG_JOB_S = 0.05
_N = 11


def _work() -> int:
    adj = [((v * 0x9E3779B1) >> 7) & ((1 << _N) - 1) & ~(1 << v) for v in range(_N)]
    ends = [0] * (1 << _N)
    for v in range(_N):
        ends[1 << v] = 1 << v
    for mask in range(3, 1 << _N):
        rest = mask & (mask - 1)
        res = 0
        while rest:
            bit = rest & -rest
            rest ^= bit
            if ends[mask ^ bit] & adj[bit.bit_length() - 1]:
                res |= bit
        ends[mask] = res
    seen: dict[str, int] = {}
    for i in range(600):
        seen[str(i)] = seen.get(str(i >> 1), 0) + i
    return ends[-1] + len(seen)


def sample(repeats: int = 1) -> float:
    """Seconds the fixed computation takes now (the median of `repeats`)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sample_after(elapsed: float) -> float:
    """A speed sample to take after a job that ran for `elapsed` seconds."""
    return sample(3 if elapsed > LONG_JOB_S else 1)


def scale(elapsed: float, speed_samples) -> float:
    """`elapsed`, converted to the reference speed using the median of the
    speed samples taken around and during it."""
    return elapsed * REFERENCE_S / statistics.median(speed_samples)


class Meter:
    """Samples the host speed every TICK_S while a job runs.

    A SIGALRM interrupts the job between bytecodes for one sample; the time
    spent sampling is recorded so that it can be taken off the job's time,
    and passed to `on_tick` so that it can be taken off a span's.
    """

    def __init__(self, on_tick=None):
        self.samples: list[float] = []
        self.spent = 0.0
        self.on_tick = on_tick

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(sample())
        spent = time.perf_counter() - t0
        self.spent += spent
        if self.on_tick is not None:
            self.on_tick(spent)

    @contextmanager
    def during(self):
        self.samples, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
