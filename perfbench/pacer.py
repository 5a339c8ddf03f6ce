"""Host speed, sampled while a run measures, so times can be adjusted for it.

The measuring host is a small VM on shared physical cores.  Its speed drifts
by up to a factor of two in phases of ten seconds or more, and CPU time drifts
with wall time, so neither longer runs nor medians over fresh processes remove
the drift.  A ``Pacer`` runs a short fixed reference sample every
``INTERVAL_S`` seconds (from a ``SIGALRM`` handler, so the samples interleave
with the program's own work).  A sample of duration d gives the speed
REF_SAMPLE_S / d, which is 1.0 at the reference speed and below 1.0 when the
host is slow.  The program's work between two samples is taken to run at the
mean of their two speeds, so the work done in an interval is the integral of
speed over it, and ``speed`` for the interval is that integral divided by the
interval's length.  A time multiplied by ``speed`` is in reference seconds.  The sample mimics the
program's work (breadth-first searches over adjacency lists, a small Laplacian
and its eigendecomposition) but uses none of the program's code, so a change
to the program cannot move it.  The samples' own time is counted and taken
out of the measured time.
"""

import signal
import time
from collections import deque

import numpy as np

#: seconds between samples
INTERVAL_S = 0.04
#: mean duration of one sample at the reference speed: a 2-vCPU VM on shared
#: x86-64 cores, CPython 3.11, numpy 2.4 with OpenBLAS, in one of its fast phases
REF_SAMPLE_S = 0.0006

_N = 40
_ADJ = [[(u + d) % _N for d in (1, 3, 7)] + [(u - d) % _N for d in (1, 3, 7)]
        for u in range(_N)]


def reference_sample():
    """The fixed work one sample times."""
    total = 0
    for src in range(0, _N, 2):
        dist = [-1] * _N
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in _ADJ[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += sum(dist)
    a = np.zeros((16, 16))
    for u in range(16):
        for v in _ADJ[u]:
            if v < 16:
                a[u, v] = a[v, u] = 1.0
    lap = np.diag(a.sum(axis=1)) - a
    for _ in range(3):
        np.linalg.eigh(lap)
    return total


class Pacer:
    def __init__(self):
        self.starts = []
        self.samples = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._previous = None

    def _tick(self, _signum=None, _frame=None):
        c0, t0 = time.process_time(), time.perf_counter()
        reference_sample()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.samples.append(t1 - t0)
        self.spent_s += t1 - t0
        self.spent_cpu_s += time.process_time() - c0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self):
        """Takes a sample and returns the point in the run just after it."""
        self._tick()
        return len(self.samples), self.spent_s, self.spent_cpu_s

    def adjust(self, wall_s, cpu_s=0.0, since=(1, 0.0, 0.0)):
        """(wall, CPU, speed): seconds measured since the mark ``since`` (by
        default the start), less the samples' own time, in reference seconds.

        Takes a sample to close the interval.  Each stretch of the program's
        work between two samples runs at the mean speed of those two samples;
        ``speed`` is the mean over the stretches, weighted by their length.
        """
        spent, spent_cpu = self.spent_s - since[1], self.spent_cpu_s - since[2]
        self._tick()
        rates = [REF_SAMPLE_S / d for d in self.samples]
        span = integral = 0.0
        for i in range(since[0] - 1, len(self.samples) - 1):
            gap = self.starts[i + 1] - self.starts[i] - self.samples[i]
            span += gap
            integral += gap * (rates[i] + rates[i + 1]) / 2
        speed = integral / span if span > 0 else rates[-1]
        return (wall_s - spent) * speed, (cpu_s - spent_cpu) * speed, speed
