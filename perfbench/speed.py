"""Timing at a fixed reference speed.

The benchmark runs on shared machines whose speed for the same
CPU-bound Python code drifts by up to 40% over seconds to minutes, with
no steal time or off-CPU time to show for it.  Raw wall time then
measures the neighbours as much as the program.  So every timed call is
bracketed by a short calibration kernel (the benchmark's own stdlib
permutation code, close in kind to what klpoly does: tuples, sorting,
small loops), and, while the call runs, an interval timer stops it every
TICK_S seconds to run the kernel again.  Each stretch of program time
between two kernel runs is scaled by REF_KERNEL_S over the mean of the
two kernel times around it.  The sum is the call's time at reference
speed: what it would have taken on a machine where the kernel takes
REF_KERNEL_S.  Kernel time is never counted as program time.

The program cannot change the kernel: it is benchmark code, and runs
with the garbage collector paused so that the program's heap size does
not leak into it.
"""

from __future__ import annotations

import gc
import random
import signal
import time

import sampler

# A typical kernel time (best of KERNEL_REPEATS) inside a worker on a
# 2-vCPU Intel Xeon VM with Python 3.11, where workers measured the
# machine at 0.78 to 1.21 of this speed.  It only sets the scale: scaled
# times read as wall times on a machine running at exactly this speed.
REF_KERNEL_S = 0.00025

KERNEL_REPEATS = 2
TICK_S = 0.1

# Fixed pairs for the kernel, the same in every run.
_rng = random.Random("perfbench-speed-kernel")
_KERNEL_PAIRS = [
    tuple(tuple(_rng.sample(range(1, 7), 6)) for _ in range(2)) for _ in range(24)
]


def _kernel() -> int:
    n = 0
    for x, w in _KERNEL_PAIRS:
        n += sampler.below(x, w)
        n += len(sampler.coset_top(x, w))
    return n


def kernel_seconds() -> float:
    """Time of the calibration kernel now: the best of KERNEL_REPEATS."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best


class SpeedClock:
    """Times calls to the program in wall seconds and at reference speed.

    Owns SIGALRM for the life of the process; the handler only acts
    while a call is being timed, and never re-enters itself.
    """

    def __init__(self) -> None:
        self._kernel = kernel_seconds()
        self._kernel_at = time.perf_counter()
        self._timing = False
        self._start = 0.0
        self._wall = 0.0
        self._ref = 0.0
        signal.signal(signal.SIGALRM, self._on_tick)

    def _on_tick(self, signum, frame) -> None:
        if self._timing:
            self._timing = False
            self._close_stretch()
            self._timing = True

    def _close_stretch(self) -> None:
        stretch = time.perf_counter() - self._start
        before = self._kernel
        self._kernel = kernel_seconds()
        self._wall += stretch
        self._ref += stretch * REF_KERNEL_S * 2.0 / (before + self._kernel)
        self._kernel_at = self._start = time.perf_counter()

    def call(self, fn, *args):
        """Run fn(*args); return (result, wall_s, ref_s) for the program
        time alone."""
        if time.perf_counter() - self._kernel_at > TICK_S:
            self._kernel = kernel_seconds()
        self._wall = self._ref = 0.0
        self._start = time.perf_counter()
        self._timing = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._timing = False
        self._close_stretch()
        return result, self._wall, self._ref
