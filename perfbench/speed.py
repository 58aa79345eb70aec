"""The host's speed, sampled with a fixed reference routine while ops run.

On a shared host the same op's wall time drifts by a third or more within
a minute, for every op at once: other tenants take caches, memory bandwidth
and turbo headroom, and a process can neither see nor stop that.  So while
the end-to-end passes run, a ``Speedometer`` times a fixed pure-Python
routine (``reference``: Gram-Schmidt over the rationals on a fixed integer
matrix, the interpreter work knapcrack's LLL, sweeps and Bareiss do) every
``PERIOD_S`` seconds from a SIGALRM handler, and the benchmark reports each
op at reference speed: its wall time, less the handler's time inside it,
times ``REF_MS`` over the median reference time within ``WINDOW_S`` of the
op.  ``reference`` does not call knapcrack, so a change to the program
moves only the op times.

``REF_MS`` is the routine's median time on the 2-core x86 VM the benchmark
was sized on (Python 3.11.7), so there reference-speed times and wall times
agree on average.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

REF_MS = 4.5
PERIOD_S = 0.1
WINDOW_S = 0.25
_rng = random.Random(20220218)
_MATRIX = [[_rng.randrange(-10**6, 10**6) for _ in range(8)] for _ in range(8)]


def reference() -> Fraction:
    """Gram-Schmidt over the rationals on ``_MATRIX``; returns the last squared norm."""
    done: list[list[Fraction]] = []
    norms: list[Fraction] = []
    for row in _MATRIX:
        u = [Fraction(v) for v in row]
        for w, nw in zip(done, norms):
            mu = sum(Fraction(a) * b for a, b in zip(row, w)) / nw
            u = [a - mu * b for a, b in zip(u, w)]
        done.append(u)
        norms.append(sum(a * a for a in u))
    return norms[-1]


class Speedometer:
    """Samples ``reference`` every ``PERIOD_S`` of wall time inside ``with``.

    ``samples`` holds each timing's (start, end) on the ``perf_counter``
    clock, in order; one is taken on entry and one on exit, so there is
    always one to scale by.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        reference()
        self.samples.append((t0, time.perf_counter()))
        self._starts.append(t0)

    def __enter__(self) -> Speedometer:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _near(self, t0: float, t1: float) -> list[tuple[float, float]]:
        lo = bisect.bisect_left(self._starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self._starts, t1 + WINDOW_S)
        return self.samples[max(0, min(lo, len(self.samples) - 1)):max(hi, lo + 1)]

    def busy(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent timing the reference."""
        return sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in self._near(t0, t1))

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds, seconds at reference speed) of the interval [t0, t1].

        Both leave out the reference timings inside the interval.
        """
        wall = t1 - t0 - self.busy(t0, t1)
        ref_ms = statistics.median((e - s) * 1000.0 for s, e in self._near(t0, t1))
        return wall, wall * REF_MS / ref_ms
