"""Reference-speed sampling, to take the box's speed swings out of wall times.

On the shared 2-core VM this benchmark was built on, the CPU changes speed,
for tenths of a second or for whole minutes, by up to 2.2x; process CPU
time swings with wall time.  How much of a run falls in a slow spell
dominates its wall time (run-to-run spreads of 25-40% over ten runs).

While a unit runs, a ``SIGALRM`` handler times a fixed reference loop every
``PERIOD_S`` of wall time (in the main thread, between bytecodes).  Each
tenth of a second then counts in proportion to the loop's speed in it,
``REFERENCE_LOOP_S / loop time``: the reported time is the unit's work at
the reference speed.  Set-up, too short to sample this way, is rescaled by
bursts of the loop run just after the imports and just after it.  On a box that holds the reference speed it is the
plain wall time less the sampling (about 1%).  The loop uses no wihmplan
code, so a change to the package moves this time as it moves wall time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.1
LOOP_ITERATIONS = 400
# The loop's time on that VM at full speed (0.93-1.31 ms; 1.8-2.5 ms when slowed).
REFERENCE_LOOP_S = 0.0011


def reference_loop() -> float:
    """Fixed work, about 1 ms: small numpy operations and Python objects."""
    a = np.arange(6.0)
    s = 0.0
    for i in range(LOOP_ITERATIONS):
        b = a * (i % 5) + 1.0
        s += float(b @ a) + len(str(i))
    return s


class SpeedSampler:
    """Times ``reference_loop`` every ``PERIOD_S`` of wall time while active."""

    def __init__(self) -> None:
        self.loop_s: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.loop_s.append(time.perf_counter() - t0)

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def timed(fn, *args, **kwargs):
    """Call ``fn`` under a sampler.

    Returns its result, the wall seconds, those seconds less the sampling at
    the reference speed, and the loop samples.
    """
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall_s = time.perf_counter() - t0
    work_s = wall_s - sum(sampler.loop_s)
    return result, wall_s, at_reference_speed(work_s, sampler.loop_s), sampler.loop_s


def burst(count: int = 15) -> list[float]:
    """Times of ``count`` back-to-back reference loops, for spans too short to sample."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - t0)
    return out


def at_reference_speed(seconds: float, loop_s: list[float]) -> float:
    """``seconds`` of work rescaled by the mean loop speed over its samples.

    Samples taken at even steps of wall time give the time-weighted speed.
    With no sample the time is returned as it is.
    """
    if not loop_s:
        return seconds
    return seconds * sum(REFERENCE_LOOP_S / s for s in loop_s) / len(loop_s)
