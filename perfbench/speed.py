"""Machine-speed reference for the host clock.

On a shared VM the same code runs 20-30% faster or slower from one
minute to the next: neighbours on the physical cores slow the vCPU down
without taking it away, so CPU time drifts exactly as wall time does.
The benchmark therefore times a fixed reference kernel, which is
benchmark code and never changes with the program, between its batches
and rescales host times by ``REFERENCE_S / median kernel time``:
host times are reported as they would read on a machine on which the
kernel takes ``REFERENCE_S``.  A change to the program moves them by
exactly the ratio its wall time moves; a change in machine speed moves
the kernel too and mostly cancels.  Each batch of ops is scaled by the
probes taken just before it, during it (between serve waves) and just
after it, so the speed also follows drift within a run.

Interpreted Python drifts about twice as much as NumPy work does, so
the kernel follows the kind of host work a workload does.  The NumPy
kernel is a sort and a random gather from a 32 MB array; it tracks the
BFS and serve ops, whose host time is mostly NumPy calls on large
arrays.  The mixed kernel adds an interpreted dict loop and many small
NumPy calls; it tracks the distributed BFS, whose exchange loops over
eight shards in Python.  On a 2-vCPU Xeon VM these choices cut the drift of
10-second windows of ops by 2-3x; the other kernel corrected too little
or too much.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Wall time between probes while the benchmark measures.
PROBE_EVERY_S = 0.5

#: Kernel runs per probe.
PROBE_REPS = 3

_rng = np.random.default_rng(20240101)
_SORT = _rng.integers(0, 1 << 20, size=200_000)
_BIG = _rng.integers(0, 1 << 30, size=4_000_000)
_GATHER = _rng.integers(0, _BIG.size, size=400_000)
_SMALL = _SORT[:64]
_PICK = np.array([1, 2, 3])

#: Kernel time, seconds, of the machine host times are scaled to, per
#: kernel (the medians on a 2-vCPU Intel Xeon VM, Python 3.11).
REFERENCE_S = {"numpy": 0.010, "mixed": 0.016}


def kernel(kind: str) -> float:
    """Run the ``kind`` reference kernel once; return its wall time in
    seconds."""
    t0 = time.perf_counter()
    np.sort(_SORT)
    int(_BIG[_GATHER].sum())
    if kind == "mixed":
        table: dict[int, int] = {}
        for i in range(20_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        for _ in range(300):
            np.cumsum(_SMALL)
            np.flatnonzero(_SMALL > 5)
            _SMALL[_PICK]
    return time.perf_counter() - t0


class SpeedProbe:
    """Kernel samples taken through one run."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.reference_s = REFERENCE_S[kind]
        self.samples: list[float] = []
        #: (time the probe ended, its samples), in probe order.
        self.points: list[tuple[float, list[float]]] = []
        self._last = -float("inf")

    def probe(self) -> list[float]:
        """Take :data:`PROBE_REPS` samples now; return them."""
        taken = [kernel(self.kind) for _ in range(PROBE_REPS)]
        self.samples.extend(taken)
        self._last = time.perf_counter()
        self.points.append((self._last, taken))
        return taken

    def maybe_probe(self) -> None:
        """Probe if :data:`PROBE_EVERY_S` has passed since the last one."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    @property
    def kernel_s(self) -> float:
        """Median kernel time of the run, seconds."""
        return statistics.median(self.samples)

    def scale_over(self, start: float, end: float) -> float:
        """Factor that turns the wall times of a batch that ran from
        ``start`` to ``end`` (``time.perf_counter``) into reference
        times: from the last probe before it, every probe during it and
        the first probe after it."""
        before = [s for t, s in self.points if t <= start][-1:]
        during = [s for t, s in self.points if start < t < end]
        after = [s for t, s in self.points if t >= end][:1]
        samples = [x for s in before + during + after for x in s]
        return self.reference_s / statistics.median(samples or self.samples)
