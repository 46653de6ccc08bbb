"""Host-speed calibration for the benchmark's timings.

On a shared host the same work can take from 1x to more than 2x as long,
and the speed changes within seconds.  Every duration the benchmark
reports is therefore scaled to a reference speed.  While a `Meter` is
active, a timer signal runs a short pure-Python probe, which shares no
code with ringsweep, three times every PERIOD_S seconds and keeps the
fastest; a stretch that took d seconds while those probes took c seconds
on average is reported as d * REFERENCE_S / c.  The time spent in the
probes is subtracted from the stretch.
"""
from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
# The probe's time on an idle core of the reference box (2 vCPUs,
# Python 3.11.7).
REFERENCE_S = 0.00026


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y


def _probe() -> int:
    acc = 0
    table = list(range(64))
    for i in range(800):
        j = (i * 7) & 63
        table[i & 63] = (table[j] + i) & 0xFFFF
        acc += table[j]
    seen = {}
    for i in range(300):
        p = _Pair(i, i & 3)
        seen[(p.y, i & 15)] = p
        acc += len(seen) + (p.x if p.y else 1)
    return acc


class Meter:
    """Times a job in stretches, each scaled by the probes run during it.

    Use as a context manager around the timed loop.  `start()` opens a
    stretch and `split()` closes it and opens the next; a long job calls
    `split()` between its steps.  `region` opens a named span in a traced
    run and does nothing otherwise.
    """

    def __init__(self, region):
        self.region = region
        self._probes: list[float] = []
        self._probe_s = 0.0
        self._start = 0.0
        self._mark = (0, 0.0)
        self.host_s = 0.0
        self.scaled_s = 0.0

    def _on_timer(self, signum, frame) -> None:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _probe()
            took = time.perf_counter() - start
            best = min(best, took)
            self._probe_s += took
        self._probes.append(best)

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        # Two probes up front, so that every stretch has one before it.
        for _ in range(2):
            self._on_timer(None, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> None:
        self.host_s = self.scaled_s = 0.0
        self._begin()

    def _begin(self) -> None:
        self._mark = (len(self._probes), self._probe_s)
        self._start = time.perf_counter()

    def split(self) -> None:
        end = time.perf_counter()
        first, probe_s = self._mark
        # The probe that ran last before the stretch counts as well.
        probes = self._probes[first - 1:]
        elapsed = end - self._start - (self._probe_s - probe_s)
        self.host_s += elapsed
        self.scaled_s += elapsed * REFERENCE_S * len(probes) / sum(probes)
        self._begin()
