"""Host-speed probe: rescales wall times to the speed of a fixed reference loop.

The shared two-core host this benchmark was built on changes speed in
phases of one to several seconds: a fixed operation takes anywhere from
1.0x to 2.0x its best time, and CPU time moves with wall time, so neither
clock alone gives a steady figure.  A SIGALRM timer therefore runs a small
fixed loop of the same kind of work the program does (big-integer row ORs
over bit masks) every ``INTERVAL_S`` seconds, in the main thread, and
records how long it took.  An operation's wall time is multiplied by
``REFERENCE_MS / (median loop time around the operation)``: the result is
the operation's time at the speed at which the loop takes ``REFERENCE_MS``
(about this host's best speed).  The loop does not touch the program, so a
change to the program moves the rescaled time exactly as it moves the wall
time.  The loop's own time inside an operation is subtracted first.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.025
# Median loop time on the 2-vCPU Xeon host of README.md's figures, at its full speed.
REFERENCE_MS = 0.11
# The host's speed over an interval is the median of the samples taken in
# it, or of the MIN_SAMPLES samples nearest to its middle if it holds fewer.
MIN_SAMPLES = 9
# Runs of the loop before the first sample, so that it is timed warm.
_WARMUP = 20

_MASK = (1 << 128) - 1
_ROWS = [((i + 1) * 0x9E3779B97F4A7C15) & _MASK | 1 for i in range(128)]


def reference_work() -> int:
    acc = 0
    rows = _ROWS
    for r in rows[:20]:
        m = r
        while m:
            low = m & -m
            acc |= rows[(low.bit_length() - 1) & 127]
            m ^= low
    return acc


class SpeedProbe:
    """Samples the reference loop on a timer; answers 'how fast was the host then'."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def sample(self, *_args) -> None:
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def burst(self, count: int = MIN_SAMPLES) -> None:
        for _ in range(count):
            self.sample()

    def start(self) -> None:
        for _ in range(_WARMUP):
            reference_work()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.burst()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t_start: float, t_end: float) -> float:
        """REFERENCE_MS over the median loop time seen around [t_start, t_end]."""
        starts = self.starts
        lo = bisect.bisect_left(starts, t_start)
        hi = bisect.bisect_right(starts, t_end)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(starts, (t_start + t_end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(starts) - MIN_SAMPLES))
            hi = min(len(starts), lo + MIN_SAMPLES)
        ref = statistics.median(self.durations[lo:hi])
        return REFERENCE_MS / 1000.0 / ref

    def own_time(self, t_start: float, t_end: float) -> float:
        """Seconds the probe itself ran inside [t_start, t_end]."""
        lo = bisect.bisect_left(self.starts, t_start)
        hi = bisect.bisect_left(self.starts, t_end)
        return sum(self.durations[lo:hi])

    def rescaled(self, t_start: float, t_end: float) -> float:
        """Wall seconds of [t_start, t_end], minus the probe, at reference speed."""
        raw = t_end - t_start - self.own_time(t_start, t_end)
        return raw * self.scale(t_start, t_end)
