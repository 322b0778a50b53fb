"""A clock that reports time at a fixed reference speed.

The benchmark's host gives it a few cores of a shared machine whose
speed moves by 20-50 % over periods of seconds to minutes (a fixed loop
reads 25 ms in one stretch and 37 ms in the next, with CPU time equal to
wall time, so it is not time taken away from the process).  No statistic
over one run of 20-40 s removes a shift that lasts the whole run.

So the workload's interpreter measures the machine's speed while it
works: a ``SIGALRM`` timer interrupts it every ``PERIOD_S`` and runs a
fixed piece of Python (``_reference``, about 1 ms) made like microhol's
own hot code: recursive walks over a small tree of slotted nodes, by
function and by method.  It allocates nothing the garbage collector
tracks, so the workload's heap does not slow it.  (A plain integer loop
follows the machine's swings less closely: on meson proofs it removes
about half of the spread, this walk about two thirds.)  An
interval's time at reference speed is its wall time, less the time spent
in those samples, times ``REF_S`` over the mean duration of the samples
taken during it (widened to the ``MIN_SAMPLES`` nearest, for short
intervals).  Work that gets faster reads faster; a stretch in which the
whole machine is slow does not.  The samples cost about 2.5 % of the
run, and they are taken out of the times reported.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

_now = time.perf_counter

PERIOD_S = 0.05
MIN_SAMPLES = 6
# Duration of one reference sample at reference speed: its median on a
# 2-vCPU x86-64 VM with Python 3.11.
REF_S = 0.001


class _Node:
    __slots__ = ("leaf", "name", "left", "right")

    def __init__(self, depth, index):
        self.leaf = depth == 0
        self.name = f"v{index % 7}" if self.leaf else None
        self.left = None if self.leaf else _Node(depth - 1, 2 * index)
        self.right = None if self.leaf else _Node(depth - 1, 2 * index + 1)

    def size(self):
        return 1 if self.leaf else self.left.size() + self.right.size()


def _free_in(node, name):
    if node.leaf:
        return node.name == name
    return _free_in(node.left, name) or _free_in(node.right, name)


_TREE = _Node(9, 0)


def _reference():
    for _ in range(6):
        _free_in(_TREE, "x")
        _TREE.size()


class RefClock:
    """Marks intervals; converts them to seconds at reference speed.

    ``mark()`` is cheap and may be taken at any time.  ``seconds()``
    needs the samples taken after the interval too, so convert once the
    timed work is over (``stop()`` first, or at least ``PERIOD_S *
    MIN_SAMPLES`` later)."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.sampled = 0.0  # total time spent in samples
        self.sampling = False
        self.running = False

    def _sample(self, *_):
        if self.sampling:  # a late timer signal inside a sample
            return
        self.sampling = True
        t0 = _now()
        _reference()
        t1 = _now()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self.sampled += t1 - t0
        self.sampling = False

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.running = True

    def stop(self):
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.running = False
        # Samples after the last interval, so it has its neighbours.
        for _ in range(MIN_SAMPLES // 2):
            self._sample()

    def mark(self) -> tuple[float, float]:
        # A sample may run between any two bytecodes; retry until none ran
        # between reading the time and the sample total.
        while True:
            sampled = self.sampled
            now = _now()
            if sampled == self.sampled:
                return (now, sampled)

    def raw(self, m0, m1) -> float:
        """Wall seconds between two marks, less the samples in between."""
        return (m1[0] - m0[0]) - (m1[1] - m0[1])

    def speed(self, m0, m1) -> float:
        """REF_S over the mean reference sample taken in [m0, m1]."""
        i = bisect.bisect_left(self.starts, m0[0])
        j = bisect.bisect_right(self.starts, m1[0])
        n = len(self.starts)
        if n == 0:
            raise RuntimeError("the reference clock took no samples")
        while j - i < min(MIN_SAMPLES, n):
            if i > 0 and (j == n or m0[0] - self.starts[i - 1] < self.starts[j] - m1[0]):
                i -= 1
            else:
                j += 1
        window = self.durations[i:j]
        # A sample the scheduler interrupted says nothing of the speed.
        cap = 2 * statistics.median(window)
        return REF_S / statistics.fmean(d for d in window if d <= cap)

    def seconds(self, m0, m1) -> float:
        """Seconds between two marks at reference speed."""
        return self.raw(m0, m1) * self.speed(m0, m1)
