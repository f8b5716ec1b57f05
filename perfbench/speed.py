"""Wall times rescaled to a fixed host speed.

The shared 2-core VMs this benchmark was tuned on change speed by up to 30 %
within seconds, and the change hits every process alike: a fixed pure-Python
loop swings as much as hipm does.  Raw wall times from two runs minutes apart
therefore differ by more than most changes to hipm would move them.

`Speedometer` times a fixed reference loop of Python and small NumPy work
between operations, at most every INTERVAL_S.  `timed()` returns an
operation's raw wall time and that time rescaled to the speed at which the
loop takes REFERENCE_S.  The loop's speed is taken as the mean of the readings
before and after the operation.  On an idle host the two times agree to a few
per cent.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from typing import Callable

import numpy as np

REFERENCE_S = 0.0035
INTERVAL_S = 0.2


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array work."""
    t0 = time.perf_counter()
    s = 0
    for i in range(24000):
        s += i * i % 7
    a = np.arange(64, dtype=np.int64).reshape(8, 8)
    for _ in range(300):
        a = (a @ a + 1) % 5
    return time.perf_counter() - t0


class Speedometer:
    def __init__(self):
        self._loops: deque = deque(maxlen=3)
        self._at = float("-inf")
        self.readings: list = []

    def reading(self) -> float:
        """Median of the last three loop times, re-measured when stale."""
        if time.perf_counter() - self._at >= INTERVAL_S:
            self._loops.append(reference_loop())
            self._at = time.perf_counter()
            self.readings.append(self._loops[-1])
        return statistics.median(self._loops)

    def timed(self, fn: Callable, *args, **kwargs) -> tuple:
        """fn(...) -> (result, wall seconds, seconds at the reference speed)."""
        before = self.reading()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        after = self.reading()
        return result, dt, dt * 2 * REFERENCE_S / (before + after)
