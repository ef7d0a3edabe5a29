"""Reference kernel that expresses measured times at one fixed machine speed.

The benchmark runs on shared hosts whose speed drifts by up to 1.5x over
tens of seconds.  A median over one run cannot remove a slow phase that
lasts the whole run.  So the benchmark times a fixed reference kernel
between and inside the program's runs, and scales every time it reports
by ``NOMINAL_S / <mean reference time nearby>``.  A reported second is
then a second on a machine that runs the kernel in ``NOMINAL_S``.  The
mean, not the median: the host flips between a fast and a slow state
many times a second (the kernel reads about 12 ms or 20 ms), a run's
time is the average over the states it met, and the share of slow
samples estimates that average where a median would jump from one state
to the other.  The kernel does not call the program, so a change to the
program moves the reported times as it moves the real ones.

The kernel mixes the program's kinds of work in roughly equal parts:
set and dict lookups over shuffled integers (the executor's duplicate
check), heap pushes and pops (the event loop), and row scaling through
many tiny numpy gathers plus a few small dense Newton steps (the entropy
solver, whose time goes mostly to numpy's per-call overhead).
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time
from typing import Sequence

import numpy as np

#: Reference kernel time the reported times are scaled to, in seconds:
#: about its median alone on the 2-core development machine at its fastest.
NOMINAL_S = 0.010
#: Kernel samples per burst, and the least time between two ticked bursts:
#: the kernel then takes about a tenth of a run.
PER_BURST = 2
INTERVAL_S = 0.25

_KEYS = list(range(12_000)) * 2
random.Random(20150330).shuffle(_KEYS)
_RNG = np.random.default_rng(20150330)
_INCIDENCE = (_RNG.random((40, 160)) < 0.2).astype(float)
_TARGETS = _INCIDENCE @ _RNG.random(160) + 1.0
_ROWS = [(np.flatnonzero(row), float(t)) for row, t in zip(_INCIDENCE[:8], _TARGETS[:8])]


def reference_kernel() -> float:
    """Fixed work of the program's kinds; returns a checksum."""
    seen: set[int] = set()
    first: dict[int, int] = {}
    for i, key in enumerate(_KEYS):
        if key not in seen:
            seen.add(key)
            first[key] = i
    heap: list[tuple[int, int]] = []
    for i, key in enumerate(_KEYS[:4_000]):
        heapq.heappush(heap, (key, i))
    drained = 0
    while heap:
        drained += heapq.heappop(heap)[1] & 1
    w = np.ones(_INCIDENCE.shape[1])
    for _ in range(120):
        for idx, target in _ROWS:
            got = float(w[idx].sum())
            w[idx] *= target / got
    for _ in range(8):
        grad = _INCIDENCE @ w - _TARGETS
        hess = (_INCIDENCE * w) @ _INCIDENCE.T + 1e-6 * np.eye(len(_TARGETS))
        delta = np.linalg.solve(hess, grad)
        w = w * np.exp(-np.clip(_INCIDENCE.T @ (0.5 * delta), -5.0, 5.0))
    return float(len(first) + drained + w.sum())


class Calibrator:
    """Times the reference kernel now and then and scales times by it.

    ``burst()`` runs the kernel ``PER_BURST`` times; ``tick()`` does so when
    ``INTERVAL_S`` has passed since the last burst.  Callers call them
    between and inside the program's runs, and subtract the growth of
    ``spent_s`` from the spans they time.  ``factor(since)`` scales by the
    samples taken since the mark ``since``; ``local(start, end)`` by the
    samples taken between two marks plus the bursts just before and after,
    so a run gets the speed of the seconds it took.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._last = float("-inf")

    def sample(self) -> float:
        # No collection inside the kernel: its time must not grow with the
        # number of objects the program keeps alive.
        gc.disable()
        try:
            t0 = self.clock()
            reference_kernel()
            spent = self.clock() - t0
        finally:
            gc.enable()
        self.samples.append(spent)
        return spent

    def burst(self) -> float:
        t0 = self.clock()
        for _ in range(PER_BURST):
            self.sample()
        self._last = self.clock()
        self.spent_s += self._last - t0
        return self._last - t0

    def tick(self) -> float:
        if self.clock() - self._last < INTERVAL_S:
            return 0.0
        return self.burst()

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int = 0) -> float:
        return scale(self.samples[since:] or self.samples)

    def local(self, start: int, end: int) -> float:
        lo = max(0, start - PER_BURST)
        return scale(self.samples[lo : end + PER_BURST] or self.samples)


def scale(samples: Sequence[float]) -> float:
    """``NOMINAL_S`` over the mean of ``samples``."""
    if not samples:
        raise ValueError("no reference samples")
    return NOMINAL_S / statistics.fmean(samples)
