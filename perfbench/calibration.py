"""A fixed yardstick that tracks the machine's current speed.

The benchmark's timings are scaled by the time of this probe, taken
between timed passes: a pass that took ``wall`` seconds while the probes
around it took ``probe`` seconds (their median) is reported as
``wall * REFERENCE_S / probe`` "reference seconds". A shared machine whose
speed drifts with other tenants' load then moves the probe and the pass
together, and the reported time stays put, while any change to polymatkit
moves only the pass: the probe never calls polymatkit.

The probe mixes the three kinds of work polymatkit's passes are made of:
an interpreted integer loop, many small int64 numpy products, and a few
batched ones (numpy's own integer kernels, not BLAS, so thread caps do not
move it). It takes about 2.5 ms; the least of two repetitions is kept, so
that an interrupt landing in one does not count.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0025  # probe time that leaves a timing as it is (the
                      # defining machine's probe time in its fast stretches)
_P = 2013265921
_RNG = np.random.default_rng(20050811)
_SMALL = _RNG.integers(0, _P, size=(16, 16)).astype(np.int64)
_BATCH = _RNG.integers(0, _P, size=(8, 32, 32)).astype(np.int64)


def _interpreted():
    s = 0
    for i in range(6000):
        s = (s * 31 + i) % _P
    return s


def _small_products():
    x = _SMALL
    for _ in range(60):
        x = ((_SMALL @ (x >> 16)) % _P + x) % _P
    return x


def _batched_products():
    for _ in range(4):
        x = (_BATCH @ (_BATCH >> 16)) % _P
    return x


def probe() -> float:
    """Seconds the yardstick takes now (least of two repetitions)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _interpreted()
        _small_products()
        _batched_products()
        best = min(best, time.perf_counter() - start)
    return best


class Scaler:
    """Turns wall times into reference seconds, one timed stretch at a time.

    Call ``add(wall)`` right after each timed stretch; it probes the
    yardstick. Once the run is over, ``factors()`` scales each stretch by
    the median of the ``WINDOW`` probes before it and the ``WINDOW`` after
    it: the machine's fast and slow stretches last seconds, longer than
    that window, while a single probe can be hit by a brief burst that its
    neighbours do not share. After work timed and scaled elsewhere (a
    set-up probe in another process), call ``restart()``.
    """

    WINDOW = 3

    def __init__(self):
        self.probes = [probe()]
        self.stretches = []  # (wall seconds, index of the probe just before)

    def restart(self):
        self.probes.append(probe())

    def add(self, wall: float) -> int:
        """Record a stretch that just took ``wall`` s; returns its index."""
        self.stretches.append((wall, len(self.probes) - 1))
        self.probes.append(probe())
        return len(self.stretches) - 1

    def factors(self) -> list:
        """Reference seconds per wall second, for each stretch in order."""
        w = self.WINDOW
        return [REFERENCE_S / statistics.median(self.probes[max(0, j - w + 1): j + 1 + w])
                for _, j in self.stretches]
