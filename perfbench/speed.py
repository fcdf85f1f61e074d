"""The host's speed, measured between operations with a fixed slice of
pure-Python work that does not touch picweyl.

The benchmark's reference host is a shared 2-vCPU virtual machine that
switches between a fast and a slow state, up to 1.7x apart, some states
lasting under a second and some for minutes: one Halphen verdict repeated
five times took 213, 208, 204, 127 and 137 ms.  Timed on the same CPU as
the workload, this slice (a small elimination over slotted modular-integer
objects, the shape of the library's field arithmetic, plus an integer
loop) switches with it, between about 1.7 and 2.9 ms.  Over 470 Halphen
verdicts on ten point sets, the standard deviation of log latency around
each set's median fell from 0.20 to 0.09 once each latency was divided by
the mean of the slices taken right before and after it.

Every reported time is therefore a wall time divided by `factor`, the
median time of the slices taken right before, during and after it,
relative to REF_SLICE_S: seconds at the reference speed.  A change to
picweyl moves the operations, never the slice, so it shows in full.
run.py prints the raw wall times too.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# slice time on the reference host (Xeon, 2.1 GHz) in its slow state
REF_SLICE_S = 0.0029
EVERY_S = 0.05  # slices after the first operation that ends this long after the last slice:
PER_S = 10  # one, and one more for every 1/PER_S s since the last, up to MAX_SLICES
MAX_SLICES = 8
WINDOW_S = 0.2  # an operation is scaled by the slices within this distance of it,
NEAREST = 2  # or by the nearest NEAREST slices when fewer lie that close
BURST = 48  # slices taken at once, right after set-up, after WARM_SLICES unrecorded ones
WARM_SLICES = 16


def _loop(n: int) -> int:
    s = 0
    for i in range(n):
        s = (s * 31 + i) % 1000003
    return s


class _Mod:
    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def __mul__(self, o):
        return _Mod(self.v * o.v, self.p)

    def __sub__(self, o):
        return _Mod(self.v - o.v, self.p)


def _eliminate(n: int) -> list:
    p = 10007
    rows = [[_Mod(i * 7 + j * 13 + 1, p) for j in range(n)] for i in range(n)]
    for c in range(n):
        inv = _Mod(pow(rows[c][c].v, p - 2, p), p)
        for r in range(n):
            if r != c:
                f = rows[r][c] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return rows


def slice_seconds() -> float:
    """One slice, with the cyclic collector off: a collection of the
    workload's heap inside the slice would time the heap, not the host."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop(10000)
        _eliminate(12)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Meter:
    """Slice times with the moment each was taken."""

    def __init__(self):
        self.at: list[float] = []
        self.dt: list[float] = []

    def warm_burst(self) -> float:
        """Slices back to back; the first few, slower while the host ramps
        up (after imports, say), are not recorded.  Returns the seconds taken."""
        t0 = time.perf_counter()
        for _ in range(WARM_SLICES):
            slice_seconds()
        self.sample(BURST)
        return time.perf_counter() - t0

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            dt = slice_seconds()
            self.at.append(time.perf_counter())
            self.dt.append(dt)

    def maybe_sample(self) -> None:
        """Slices between operations: about one per EVERY_S, and more
        after a long operation, so that each is scaled by several."""
        if not self.at:
            self.sample()
            return
        since = time.perf_counter() - self.at[-1]
        if since >= EVERY_S:
            self.sample(min(MAX_SLICES, 1 + int(since * PER_S)))

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Median time of the slices near [start, end] (of every slice when
        no interval is given), over REF_SLICE_S: above 1 on a slow host."""
        if start is None:
            return statistics.median(self.dt) / REF_SLICE_S
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi - lo < NEAREST:
            def distance(i):
                return max(start - self.at[i], self.at[i] - end, 0.0)
            lo = bisect.bisect_left(self.at, start)
            near = sorted(range(max(0, lo - NEAREST), min(len(self.at), lo + NEAREST + 1)), key=distance)
            return statistics.median(self.dt[i] for i in near[:NEAREST]) / REF_SLICE_S
        return statistics.median(self.dt[lo:hi]) / REF_SLICE_S
