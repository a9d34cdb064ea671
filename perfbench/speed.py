"""Machine-speed probe for timed regions on a shared machine.

The processor speed one process gets on a shared machine drifts by tens of
percent over seconds to minutes, so that two runs of identical work can
differ by a third.  While a `SpeedProbe` is active, a SIGALRM handler times
a fixed standard-library reference loop every `TICK_S` seconds of wall
time.  The loop does what the kernel spends its time on, exact `Fraction`
arithmetic and tuple-keyed dict stores, and shares no code with the
package, so its time tracks the machine, never the code under test.

`SpeedProbe.normalised(a, b)` rescales the wall interval [a, b] to the
reference speed: the interval minus the probe's own time, times the mean
over the ticks around it of `NOMINAL_S` / (reference seconds).  Ticks are
evenly spaced in wall time, so over a long interval that mean is the
interval's mean speed.
"""
from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction
from statistics import fmean, median

TICK_S = 0.2
WINDOW_S = 0.5
NOMINAL_S = 0.001   # reference-loop seconds at the reference speed


def reference_loop() -> Fraction:
    """About 1 ms of work; the cyclic collector is off so that its cost,
    which grows with the measured program's heap, stays out of the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = Fraction(0)
        seen = {}
        for i in range(1, 240):
            acc += Fraction(i % 97, i % 89 + 1)
            seen[(i, i % 7)] = acc
        return acc
    finally:
        if enabled:
            gc.enable()


def reference_seconds(repeats: int = 7) -> float:
    """Median time of the reference loop, run back to back."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return median(times)


class SpeedProbe:
    """Samples the reference loop while the `with` block runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.speeds: list[float] = []    # NOMINAL_S / measured loop seconds

    def _tick(self, *_):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.speeds.append(NOMINAL_S / (t1 - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        return False

    def normalised(self, a: float, b: float) -> float:
        """Seconds the wall interval [a, b] would take at the reference speed.

        The speed is the mean over the ticks within `WINDOW_S` of the
        interval, so a short operation is not judged by one tick alone.
        """
        inside = range(bisect.bisect_left(self.starts, a), bisect.bisect_right(self.ends, b))
        probe_s = sum(self.ends[i] - self.starts[i] for i in inside)
        near = self.speeds[bisect.bisect_left(self.starts, a - WINDOW_S):
                           bisect.bisect_right(self.ends, b + WINDOW_S)]
        return (b - a - probe_s) * fmean(near or self.speeds)
