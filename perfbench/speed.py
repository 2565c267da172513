"""Correction of timings for the host's changing speed.

On a shared host the same pure-Python work can take 1.8x longer from one
few-second stretch to the next.  CPU time moves with wall time, so the cause
is the processor's speed (clock and contention), not waiting.  Raw times from
two runs then differ by more than any change worth detecting.

``SpeedProbe`` samples the speed while the benchmark works.  Every
``INTERVAL_S`` seconds a SIGALRM handler, in the main thread, times a fixed
piece of work made of what the engine spends its time on: tuple sums looked
up in a frozenset, ``Fraction`` arithmetic and tuple-keyed dict stores.  On a
2-core shared host, the time of a fixed batch of ``build_report`` calls
divided by this probe's time varied by 2.9 % (quartile spread over 1-s
windows), against 30 % for the raw time and 12.6 % for a plain integer loop.

A timing window [t0, t1] is corrected piece by piece.  The probe samples cut
it into pieces, and the probe's own time is taken out of each piece.  Each
piece is then divided by the slowdown of the sample that opens it (the median
of that sample and its two neighbours on each side, over ``REF_PROBE_S``).
The result is seconds at a fixed reference speed: the speed at which one
probe takes ``REF_PROBE_S``.  A long operation thus has each stretch corrected
by that stretch's speed.  Raw times are printed beside the corrected ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
REF_PROBE_S = 3.5e-4  # one probe at the reference speed
SMOOTH = 2  # neighbours on each side in a sample's slowdown

_VECTORS = [tuple((i * j) % 3 - 1 for j in range(8)) for i in range(240)]
_VECTOR_SET = frozenset(_VECTORS)


def _probe() -> float:
    start = time.perf_counter()
    for a in _VECTORS[:24]:
        for b in _VECTORS[:8]:
            _ = tuple(x + y for x, y in zip(a, b)) in _VECTOR_SET
    acc = Fraction(0)
    for i in range(1, 20):
        acc += Fraction(i, 7) * i
    table = {}
    for i in range(100):
        table[(i, i % 7)] = i
    return time.perf_counter() - start


class SpeedProbe:
    """Speed samples (start, duration) taken while the probe is active."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy: list[float] = [0.0]  # running total of probe time

    def _sample(self, *_):
        start = time.perf_counter()
        duration = _probe()
        self.starts.append(start)
        self.durations.append(duration)
        self._busy.append(self._busy[-1] + time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def burst(self, n: int = 10) -> None:
        """Take ``n`` samples now (for work done in another process)."""
        for _ in range(n):
            self._sample()

    def own_s(self, t0: float, t1: float) -> float:
        """Length of [t0, t1] without the probe samples that started inside it."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return (t1 - t0) - (self._busy[j] - self._busy[i])

    def slowdown(self, k: int) -> float:
        """Smoothed slowdown of sample ``k`` against the reference speed."""
        return statistics.median(self.durations[max(k - SMOOTH, 0):k + SMOOTH + 1]) / REF_PROBE_S

    def corrected_s(self, t0: float, t1: float) -> float:
        """Own time of [t0, t1], each piece divided by its sample's slowdown."""
        if not self.starts:
            raise ValueError("no speed sample taken")
        k = max(bisect.bisect_right(self.starts, t0) - 1, 0)
        total, t = 0.0, t0
        while t < t1:
            end = min(self.starts[k + 1], t1) if k + 1 < len(self.starts) else t1
            total += self.own_s(t, end) / self.slowdown(k)
            t, k = end, k + 1
        return total
