"""Host-speed calibration for the benchmark's timings.

The 2-vCPU host this benchmark was built on switches between speed states
every few seconds, the slow one about 1.7 times slower than the fast one,
with CPU time tracking wall time: the process keeps its CPU and the CPU runs
slower. A wall time is then mostly a measure of the share of time the host
spent in each state, and two sets of runs of the same code disagree by more
than any useful bound.

`Speedometer` samples the speed the program actually gets, at the moments it
runs: a wall-clock interval timer (SIGALRM, every `INTERVAL_S`) interrupts
the main thread, and the handler times one `unit()` of fixed pure-Python work
shaped like stratlab's inner loops (softmax over lists with `math.exp`, a
power-iteration step over nested lists). Python runs the handler between two
bytecodes, also while the main thread waits for pool workers; processes
forked meanwhile (the pool workers) time units of their own. A measured span
is then reported as

    scaled = (span - time spent in units) * REFERENCE_UNIT_S / (mean unit time)

that is, in seconds at the speed at which one unit takes `REFERENCE_UNIT_S`.
The mean counts every process's units; the time taken out is the main
thread's, about 8% of the span (the workers' units stay inside it). The unit
imports nothing from stratlab, so a change to the program never changes it;
it must not change either, since every scaled figure depends on it.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import struct
from time import perf_counter

INTERVAL_S = 0.005
# Seconds one unit took at the median speed of the reference host (2-vCPU
# Intel Xeon, Python 3.11.7).
REFERENCE_UNIT_S = 0.0004

MAX_FORKS = 4096  # shared slots; slot numbers wrap around beyond this
_SLOT = struct.Struct("dq")  # a worker's sum of unit times and their count

_N = 4
_ROUNDS = 25


def unit() -> list[float]:
    """One unit of fixed work: hedge-style softmax and a power-iteration step
    over a 4 x 4 recommendation matrix, `_ROUNDS` times."""
    lw = [[0.1 * (a + e) for a in range(_N)] for e in range(_N)]
    p = [1.0 / _N] * _N
    for t in range(1, _ROUNDS + 1):
        q = []
        for w in lw:
            m = max(w)
            es = [math.exp(v - m) for v in w]
            s = sum(es)
            q.append([x / s for x in es])
        nxt = [0.0] * _N
        for e in range(_N):
            pe = p[e]
            row = q[e]
            for j in range(_N):
                nxt[j] += pe * row[j]
        s = sum(nxt)
        p = [v / s for v in nxt]
        for e in range(_N):
            lw[e][t % _N] += 0.01 * p[e]
    return p


class Speedometer:
    """Times one unit on every timer tick while installed (as a context
    manager, in the main thread); `samples` holds the unit times in order.

    Processes forked while it is installed (stratlab's pool workers) start
    their own timer and publish the sum and count of their unit times in a
    shared slot, one slot per fork; `worker_totals(first)` adds up the slots
    of the forks made since `forks` was `first`.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.forks = 0
        self._active = False
        self._previous = None
        self._shared = mmap.mmap(-1, _SLOT.size * MAX_FORKS)
        self._slot: int | None = None  # set in a forked worker
        self._sum = 0.0
        os.register_at_fork(before=self._before_fork, after_in_child=self._after_fork)

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        unit()
        dt = perf_counter() - t0
        self.samples.append(dt)
        if self._slot is not None:
            self._sum += dt
            _SLOT.pack_into(self._shared, _SLOT.size * self._slot, self._sum, len(self.samples))

    def _before_fork(self) -> None:
        if self._active:
            self.forks += 1

    def _after_fork(self) -> None:
        if self._active:
            self._slot = (self.forks - 1) % MAX_FORKS
            self.samples, self._sum = [], 0.0
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def worker_totals(self, first: int) -> tuple[float, int]:
        """(sum, count) of the unit times of the workers forked since `first`."""
        total, count = 0.0, 0
        for k in range(first, self.forks):
            s, n = _SLOT.unpack_from(self._shared, _SLOT.size * (k % MAX_FORKS))
            total, count = total + s, count + n
        return total, count

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._active = False
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, span: float, first_sample: int, first_fork: int) -> float:
        """A span of the main thread that began when `len(samples)` and
        `forks` were `first_sample` and `first_fork`, and has just ended."""
        return scale(span, self.samples[first_sample:], *self.worker_totals(first_fork))


def scale(span: float, own: list[float], other_sum: float = 0.0, other_count: int = 0) -> float:
    """`span` in seconds at the reference speed. `own` are the unit times
    sampled in the span's own process, which the span includes and which are
    taken out; the mean unit time also counts units timed meanwhile in other
    processes (pool workers, whose units stay inside the span, about 8% of
    it on their side; or the benchmark's parent process during a set-up)."""
    count = len(own) + other_count
    if not count:
        raise ValueError("no calibration sample fell inside the span")
    mean = (sum(own) + other_sum) / count
    return (span - sum(own)) * REFERENCE_UNIT_S / mean
