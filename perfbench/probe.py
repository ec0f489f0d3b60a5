"""The host-speed probe: a fixed kernel timed around every sample.

The benchmark host's speed drifts by up to ~1.5x over minutes, which
swamps the run-to-run differences the benchmark exists to detect.  The
drift hits work over a large working set hardest (WPG upkeep, set-up),
so the probe's kernel is of that kind: random gathers from a 16 MB
array plus lookups in a large dict, in a fixed shuffled order.  The
ratio of its reference time to its measured time is the host's current
speed factor, and a timing multiplied by it is in *reference-speed*
units: what the sample would have taken on the host at reference speed.
The host's speed can swing by 2x within seconds, so every timed phase
is bracketed by a probe reading on each side.

The probe imports nothing from ``repro``, touches only data it
allocated up front, and runs with the garbage collector disabled, so a
large engine alive in the same process does not change its timing
(``tests/test_probe.py`` checks both).
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: Kernel time at reference speed, in seconds.  A fixed constant, so
#: normalised values from different runs and commits share one scale.
REFERENCE_S = 0.005

_BIG = 1 << 21
_GATHER = 1 << 16
_DICT = 1 << 17
_LOOKUPS = 6_000


class SpeedProbe:
    """One probe instance owns its preallocated working set."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._big = rng.random(_BIG)
        self._index = rng.integers(0, _BIG, _GATHER)
        self._gathered = np.empty(_GATHER)
        self._table = {int(key): i for i, key in enumerate(rng.permutation(_DICT))}
        self._lookups = [int(key) for key in rng.integers(0, _DICT, _LOOKUPS)]
        self.samples: list[float] = []

    def _kernel(self) -> int:
        np.take(self._big, self._index, out=self._gathered)
        acc = 0
        table = self._table
        for key in self._lookups:
            acc += table[key] & 7
        return acc

    def measure(self, repeats: int = 3) -> float:
        """Run the kernel ``repeats`` times; record and return the median.

        The garbage collector is off while the kernel runs and restored
        to its previous state afterwards.
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                self._kernel()
                times.append(time.perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()
        value = statistics.median(times)
        self.samples.append(value)
        return value

    def overall_factor(self) -> float:
        """Speed factor over every probe of the run."""
        return REFERENCE_S / statistics.median(self.samples)


def factor(before: float, after: float) -> float:
    """Speed factor for a sample bracketed by two probe readings."""
    return 2 * REFERENCE_S / (before + after)
