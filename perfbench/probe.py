"""Machine-speed probe: fixed work, timed next to every op.

The 2-vCPU VM this benchmark was written on shares its host, and its
speed changes by half or more in regimes that last from a fraction of a
second to tens of seconds; process CPU time changes with it, so it is
not the scheduler.  A run of 25 s cannot average that out, so the same
code gave run medians up to 25% apart.  The probe measures the machine's
speed at the time of each op, and the end-to-end times are divided by it.

The probe is a few fixed pieces of work that resemble what the
workloads do: a pure-Python loop, SciPy ``quad`` with a Python integrand,
NumPy passes over arrays of 1M and more elements, and building and
sorting a dict of Python objects.  Each workload names the pieces that match its own work
(``Workload.PROBE``): the Monte Carlo workloads use freshly allocated
arrays, as ``simulate`` does, plus Python objects; the analytic and CLI
workloads use the loop, ``quad``, in-place array passes and objects.  The probe
calls nothing in hscascade, so a change to the library cannot move it.
Its speed factor is the mean of the pieces' times, each divided by its
reference time: 1.0 at the reference speed, larger when the machine is
slower.  Of the pieces and combinations tried on the four workloads,
these left the least spread between runs.  Interpreter-bound pieces slow
down more than array passes do, so one probe for all workloads
over-corrected the Monte Carlo ones.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import integrate

N = 1_000_000


def _python_loop() -> int:
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return s


def _quad() -> float:
    return sum(integrate.quad(lambda x, j=j: math.exp(-x * x) * math.cos(j * x), 0.0, 3.0)[0]
               for j in range(40))


def _python_heap() -> tuple:
    d = {}
    for i in range(30_000):
        d[(i * 7919) % 30_011] = (i, str(i))
    return sorted(d.items())[-1]


class _NumpyPasses:
    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.src = self.rng.random(N) + 0.5
        self.buf = np.empty(N)  # holds every array result: no allocations

    def __call__(self) -> float:
        self.rng.random(out=self.buf)
        np.cumsum(self.src, out=self.buf)
        np.log(self.src, out=self.buf)
        return float(self.buf.sum())


class _NumpyAllocating:
    """Fresh arrays each time, as simulate makes them: Poisson draws, a
    cumulative sum and a log over 1M and 2M elements.  Arrays this size go
    back to the system when freed, so they do not raise the peak RSS of
    the Monte Carlo workloads, whose ops hold far more."""

    def __init__(self):
        self.src = np.random.default_rng(0).random(N)

    def __call__(self) -> float:
        rng = np.random.default_rng(1)
        total = float(rng.poisson(1.4, N).sum())
        total += float(np.cumsum(self.src)[-1]) + float(np.log(self.src).sum())
        fresh = rng.random(2 * N)
        return total + float(np.cumsum(fresh)[-1]) + float(np.log(fresh).sum())


# name: (make the piece, its time (s) on the 2-vCPU VM where the benchmark
# was written, in its fast regime).  The reference times only set the
# scale of the reported times; comparisons on one machine do not depend
# on them.
PIECES = {
    "python_loop": (lambda: _python_loop, 0.0070),
    "quad": (lambda: _quad, 0.0020),
    "numpy": (_NumpyPasses, 0.0081),
    "numpy_alloc": (_NumpyAllocating, 0.066),
    "python_heap": (lambda: _python_heap, 0.0215),
}


# set-up is interpreter start and imports; these pieces hold no large
# arrays, so probing set-up does not raise any workload's peak RSS
SETUP = ("python_loop", "quad", "numpy", "python_heap")


class SpeedProbe:
    """``measure()`` runs the named pieces once and returns their speed factor."""

    def __init__(self, names):
        self.pieces = [(PIECES[n][0](), PIECES[n][1]) for n in names]

    def measure(self) -> float:
        total = 0.0
        for piece, ref in self.pieces:
            t0 = time.perf_counter()
            piece()
            total += (time.perf_counter() - t0) / ref
        return total / len(self.pieces)
