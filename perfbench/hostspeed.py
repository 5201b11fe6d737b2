"""Host-speed correction for wall times.

On a shared VM the speed of the same code switches between states that
last minutes and differ by 1.3-1.6x, so raw wall times of one commit spread
by 20-40% across runs.  Every run therefore also times a fixed reference
computation, before each set-up and at least every half second between
solves.  The computation owes nothing to the package and mixes the kinds of
work the solver does: an all-pairs BFS in pure Python over a 12 x 12 grid,
a generator-heavy subset scan like the oracle's, NumPy sorting, grouped
maxima and an unbuffered minimum, and many calls on tiny arrays.  A wall
time is reported multiplied by NOMINAL_S / (the best reference time of the
same phase of the run), an estimate of the time on the host in its fast
state.  Because the reference never changes with the package, a faster
solver still reads faster.
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np

# best reference time seen in the fast state of a 2-core Intel Xeon VM at
# 2.0 GHz (Python 3.11, NumPy 2.4); only ratios between runs matter
NOMINAL_S = 0.022
SAMPLE_EVERY_S = 0.5

_SIDE = 12
_ADJ = [
    [w for w in (v - _SIDE, v + _SIDE, v - 1 if v % _SIDE else -1, v + 1 if (v + 1) % _SIDE else -1) if 0 <= w < _SIDE * _SIDE]
    for v in range(_SIDE * _SIDE)
]
_KEYS = np.random.default_rng(7).integers(0, 1 << 16, size=50_000)


def _reference_work() -> None:
    n = len(_ADJ)
    for s in range(n):
        row = [-1] * n
        row[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                du = row[u] + 1
                for w in _ADJ[u]:
                    if row[w] < 0:
                        row[w] = du
                        nxt.append(w)
            frontier = nxt
    hits = 0
    for subset in combinations(range(18), 4):
        if any(v & 1 for v in subset):
            hits += sum(subset) & 1
    for _ in range(2):
        keys = _KEYS[np.argsort(_KEYS, kind="stable")]
        starts = np.nonzero(np.r_[True, keys[1:] != keys[:-1]])[0]
        np.maximum.reduceat(keys, starts)
        lows = np.full(1 << 16, 1 << 40, dtype=np.int64)
        np.minimum.at(lows, _KEYS, keys)
    small = _KEYS[:64]
    for _ in range(600):
        small[np.nonzero(small > 1000)[0]].max()


class HostSpeed:
    """Samples the reference computation through a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -SAMPLE_EVERY_S

    def sample(self) -> None:
        t0 = time.perf_counter()
        _reference_work()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def sample_if_due(self) -> None:
        """Sample when SAMPLE_EVERY_S have passed since the last sample, so
        the reference sees the same moments of the run as the solves."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Multiply a wall time by this to express it at the nominal speed."""
        return NOMINAL_S / min(self.samples)
