"""Set-up cost of one workload, measured in a fresh interpreter.

Run as ``python3 perfbench/probe_setup.py <src dir> <workload>``; prints
the seconds taken to import klpoly and build the workload's program
objects, then that time at reference speed (see speed.py).  Only
``sys`` and ``time`` are imported before the clock starts, so every
module klpoly pulls in is paid for inside the measurement, as it is for
a user's first command.  The calibration kernel runs after the clock
stops, since importing it first would pre-load modules klpoly uses.
"""

import sys
import time

# Memo bound for the family sweep: far below the 235 and 1,652 entries
# the regular and inverse sweeps reach unbounded, so the memo evicts.
FAMILY_MAX_ENTRIES = 64

PROBE_KERNELS = 5


def build_objects(klpoly, workload: str) -> list:
    """The program objects a workload needs before its first case."""
    if workload == "families-s8-bounded":
        return [klpoly.KLCache(max_entries=FAMILY_MAX_ENTRIES) for _ in range(2)]
    return [klpoly.KLCache()]


if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import klpoly

    build_objects(klpoly, sys.argv[2])
    elapsed = time.perf_counter() - t0
    import speed

    # The first kernel runs of a fresh interpreter are slow; take the best
    # of a few, as a long-running worker's clock does in effect.
    kernel = min(speed.kernel_seconds() for _ in range(PROBE_KERNELS))
    print(repr(elapsed), repr(elapsed * speed.REF_KERNEL_S / kernel))
