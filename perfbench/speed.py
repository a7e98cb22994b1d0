"""Timing at a reference machine speed.

The machines this benchmark runs on are shared, and the speed one thread
gets swings by up to 2x over seconds to minutes. Process CPU time swings
with wall time, so neither longer runs nor CPU clocks steady the figures.
Timed therefore also times a fixed calibration loop of Python big-integer
shifts and masks (the same kind of work as the program's kernels, none of
its code) before and after the block it times and every PROBE_PERIOD_S
while the block runs, and gives the block's time scaled to the speed at
which that loop takes REFERENCE_CALIBRATION_S. Sampling inside the block
matters: a sample only at its ends misses the swings during a block of a
few seconds.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REFERENCE_CALIBRATION_S = 0.004
PROBE_PERIOD_S = 0.2
_CALIBRATION_LOOPS = 4000


def calibration_s() -> float:
    """Seconds the fixed calibration loop takes now."""
    start = perf_counter()
    wide, wide_mask = (1 << 4095) | 0x123456789, (1 << 4096) - 1
    narrow, narrow_mask = (1 << 255) | 0x63, (1 << 256) - 1
    acc = 0
    for _ in range(_CALIBRATION_LOOPS):
        acc ^= (((wide << 1) & wide_mask) | (wide >> 4095)) & (wide >> 7)
        acc ^= ((narrow << 1) & narrow_mask) | (narrow >> 255)
    return perf_counter() - start


class Timed:
    """Context manager timing its block in this (main) thread.

    The calibration samples run from a SIGALRM handler between the
    block's bytecodes. `seconds` is the block's wall time without the
    handler's; `scaled` is `seconds` at the reference speed.
    """

    def __enter__(self) -> "Timed":
        self.calibration = [calibration_s()]
        self._paused = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self._start = perf_counter()
        return self

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.calibration.append(calibration_s())
        self._paused += perf_counter() - start

    def __exit__(self, *exc) -> None:
        # Stop the timer first: a sample still pending runs before the
        # clock is read, so it counts both in the elapsed and the paused time.
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = perf_counter() - self._start - self._paused
        signal.signal(signal.SIGALRM, self._previous)
        self.calibration.append(calibration_s())
        self.scaled = (self.seconds * REFERENCE_CALIBRATION_S
                       / statistics.fmean(self.calibration))
