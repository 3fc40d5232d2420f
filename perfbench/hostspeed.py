"""Host-speed probe that scales the benchmark's wall times to a nominal host.

On a machine shared with other tenants the same single-threaded Python work
can take twice as long from one half-minute to the next, and CPU time slows
with wall time, so neither reading alone repeats from run to run.  While a
window is open, a SIGALRM handler in the benchmark's own process runs a fixed
pure-Python loop (the probe) every PERIOD_S and records how long it took; a
few probes also run just before and after the timed call, so that a call
spending its time in native code without reaching the handler still has
samples.  A window's scaled time is its wall time without the probes' own
time, multiplied by NOMINAL_S over the mean probe time: the seconds the call
would have taken on a host where the probe takes NOMINAL_S.  The probe is
benchmark code, so a change to rulex moves the scaled time exactly as it
moves the wall time.

Measured on a 2-core shared host over 120 s of repeated 3.4-s EM iterations
of the train-wide shape: the interquartile spread was 0.245 of the median for
wall time and 0.058 for scaled time, and the mean probe time correlated 0.95
with the wall time.  Probes cost about 1% of a window.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.025
EDGE_PROBES = 5
NOMINAL_S = 0.00025  # probe time on the host above when no other tenant slowed it

_KEYS = tuple(range(64))


def probe_work() -> float:
    """A fixed mix of dict, float and branch work, like rulex's grounding loops."""
    table: dict[int, float] = {}
    x = 0.5
    for i in range(1500):
        key = _KEYS[i & 63]
        value = table.get(key, 0.25) * 0.999 + x
        if value > table.get(key, 0.0):
            table[key] = value
        x = x * 0.5 + 0.25
    return x


class Window:
    """One timed call: the seconds a clock read, the probes' share, the samples."""

    def __init__(self):
        self.samples: list[float] = []
        self.elapsed_s = 0.0  # probes inside the call included
        self.probe_s = 0.0

    @property
    def wall_s(self) -> float:
        """Seconds the call itself took."""
        return self.elapsed_s - self.probe_s

    @property
    def scaled_s(self) -> float:
        return self.wall_s * NOMINAL_S / statistics.fmean(self.samples)


class HostSpeed:
    """Opens probe windows around timed calls; only one window at a time."""

    def __init__(self):
        self._window: Window | None = None

    def _probe(self) -> float:
        start = time.perf_counter()
        probe_work()
        elapsed = time.perf_counter() - start
        self._window.samples.append(elapsed)
        return elapsed

    def _on_alarm(self, signum, frame) -> None:
        if self._window is not None:
            self._window.probe_s += self._probe()

    def measure(self, fn):
        """Run ``fn()``; return (its result, the Window that timed it)."""
        window = self._window = Window()
        try:
            for _ in range(EDGE_PROBES):
                self._probe()
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            try:
                start = time.perf_counter()
                result = fn()
                end = time.perf_counter()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
            window.elapsed_s = end - start
            for _ in range(EDGE_PROBES):
                self._probe()
        finally:
            self._window = None
        return result, window
