"""The machine's speed, sampled while the program runs, and times scaled by it.

The benchmark's box shares its cores with other jobs. Its speed changes by
up to 2x for a minute or more at a time, and every check of a round slows
by the same factor. Raw wall times of runs made minutes apart are
therefore not comparable. A `Speedometer` samples the speed during the
timed work itself. A timer signal interrupts the interpreter every
`PERIOD` seconds. The handler then runs a fixed pure-Python workload for
`BURST` seconds and counts the chunks of it that it finished. The workload
is dual-number-like arithmetic that does not use the package, so a change
to the program does not change it. Chunks per second of probing give the
interpreter's speed at that moment.

`scaled` turns a measured time into seconds at `REFERENCE_SPEED`: it takes
the net time (probing excluded) times the measured speed over the
reference speed.
"""

from __future__ import annotations

import signal
import time

PERIOD = 0.05
BURST = 0.0025
# chunks per second; a fixed constant near the 21,000-27,000 measured on
# the 2-vCPU box the first reference figures come from
REFERENCE_SPEED = 25000.0


class _Dual:
    __slots__ = ("v", "t")

    def __init__(self, v, t):
        self.v = v
        self.t = t

    def __add__(self, o):
        return _Dual(self.v + o.v, tuple(a + b for a, b in zip(self.t, o.t)))

    def __mul__(self, o):
        return _Dual(self.v * o.v, tuple(a * o.v + self.v * b for a, b in zip(self.t, o.t)))


class Speedometer:
    """Probes the interpreter's speed from a timer signal while it runs."""

    def __init__(self):
        self.chunks = 0
        self.seconds = 0.0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reading(self) -> tuple[int, float]:
        """(chunks, seconds) probed since `start`."""
        return self.chunks, self.seconds

    def _tick(self, _signum, _frame) -> None:
        x = _Dual(1.0001, (0.1,) * 7)
        y = _Dual(0.9999, (0.2,) * 7)
        start = time.perf_counter()
        n = 0
        while True:
            for _ in range(4):
                z = x * y + x
                z = z * y + y
            n += 1
            elapsed = time.perf_counter() - start
            if elapsed >= BURST:
                break
        self.chunks += n
        self.seconds += elapsed


def scaled(seconds: float, chunks: int, probe_seconds: float,
           speed: float | None = None) -> float:
    """`seconds` of wall time, holding `probe_seconds` of probing that did
    `chunks` chunks, as seconds at the reference speed.  With no probe in
    the interval, `speed` (chunks per second) stands in; with neither, the
    time is returned unscaled.
    """
    if probe_seconds > 0:
        speed = chunks / probe_seconds
    if speed is None:
        return seconds
    # a probe that fires between the clock read and the meter read counts
    # against a neighbouring interval: at most one BURST, so clamp at 0
    return max(seconds - probe_seconds, 0.0) * speed / REFERENCE_SPEED
