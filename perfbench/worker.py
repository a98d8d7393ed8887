"""Run one workload in this (fresh) interpreter and print its record.

    python3 perfbench/worker.py --workload NAME --seed N
        (--seconds T | --units K) --instrument none|trace|mem

A unit is one round of 100 cold queries (query-s7) or one complete
sweep (the two batch workloads).  With ``--seconds`` whole units run
until T seconds have passed; with ``--units`` exactly K run, which gives
the fixed amount of work that traced and memory runs compare.  Between
units, and between queries, every cache is reset, so each unit starts
cold.  Only the program calls are timed; input generation, resets and
answer checks are not.  With ``--instrument none`` each call's time is
also taken at reference speed (speed.py); traced and memory runs do not
calibrate, so that no kernel time lands in a layer.

The last line of output is one JSON object; run.py reads it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC_DIR))

import klpoly  # noqa: E402

import probe_setup  # noqa: E402
import sampler  # noqa: E402
from speed import SpeedClock  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("query-s7", "inversion-s5", "families-s8-bounded")

INVERSION_N = 5
INVERSION_CASES = 3781
FAMILY_MAX_N = 8
FAMILY_CASES = 43

# Per-query state lives in module caches that a later refactor may
# remove; reset through whichever of these hooks exist.
RESET_HOOKS = (("klpoly.bruhat", "clear_caches"),
               ("klpoly.perm", "clear_length_cache"))

MEM_FILES = ("bruhat", "kl", "perm", "polynomial")
MIB = float(1 << 20)


def reset() -> None:
    for modname, hook in RESET_HOOKS:
        fn = getattr(sys.modules.get(modname), hook, None)
        if fn is not None:
            fn()


class Record:
    """What one worker measured: timed windows, answers, memo counters."""

    def __init__(self, instrument: str) -> None:
        self.instrument = instrument
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.outer_wall_s = 0.0
        self.cpu_s = 0.0
        self.window_ms: list[float] = []
        self.ref_window_ms: list[float] = []
        self.answers: list[str] = []
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_entries = 0
        self.mem_bytes = dict.fromkeys(MEM_FILES, 0)
        self.mem_total = 0
        self.tracer = None
        self.clock = None
        if instrument == "none":
            self.clock = SpeedClock()
        elif instrument == "trace":
            self.tracer = Tracer()
            self.tracer.install()
        elif instrument == "mem":
            tracemalloc.start()

    def call(self, fn, *args):
        """One timed call into the program.  Process CPU time is taken
        over the same interval as outer_wall_s, calibration included, so
        their ratio gives the off-CPU share."""
        t0 = time.perf_counter()
        c0 = time.process_time()
        if self.clock is not None:
            result, wall, ref = self.clock.call(fn, *args)
            self.ref_s += ref
            self.ref_window_ms.append(ref * 1000.0)
        elif self.tracer is not None:
            result = self.tracer.run_case(fn, *args)
        else:
            result = fn(*args)
        c1 = time.process_time()
        t1 = time.perf_counter()
        if self.clock is None:
            wall = t1 - t0
        self.wall_s += wall
        self.outer_wall_s += t1 - t0
        self.cpu_s += c1 - c0
        self.window_ms.append(wall * 1000.0)
        return result

    def count_memo(self, caches) -> None:
        for cache in caches:
            self.memo_hits += cache.hits
            self.memo_misses += cache.misses
            self.memo_entries += len(cache)

    def mem_point(self) -> None:
        """In a memory run, keep the bytes each klpoly file holds at the
        heaviest point seen so far (by total traced bytes)."""
        if self.instrument != "mem":
            return
        current = tracemalloc.get_traced_memory()[0]
        if current <= self.mem_total:
            return
        self.mem_total = current
        held = dict.fromkeys(MEM_FILES, 0)
        for stat in tracemalloc.take_snapshot().statistics("filename"):
            path = Path(stat.traceback[0].filename)
            if path.parent == SRC_DIR / "klpoly" and path.stem in held:
                held[path.stem] += stat.size
        self.mem_bytes = held

    def fail(self, cases: int, what: str) -> None:
        self.failed += cases
        print(f"FAILED {what}", file=sys.stderr)


def check_query(x, w, p) -> bool:
    """Invariants every P(x, w) with x < w satisfies: constant term 1,
    nonnegative coefficients, degree at most (l(w) - l(x) - 1) / 2."""
    coeffs = p.coeffs
    bound = (sampler.length(w) - sampler.length(x) - 1) // 2
    return (bool(coeffs) and coeffs[0] == 1 and min(coeffs) >= 0
            and len(coeffs) - 1 <= bound)


def query_unit(rec: Record, seed: int, index: int) -> None:
    for x, w in sampler.query_round(seed, index):
        reset()
        (cache,) = probe_setup.build_objects(klpoly, "query-s7")
        rec.attempted += 1
        try:
            p = rec.call(klpoly.kl_polynomial, x, w, cache)
        except Exception:
            traceback.print_exc()
            rec.fail(1, f"kl {x} {w} raised")
            continue
        rec.mem_point()
        rec.count_memo([cache])
        if index == 0:
            rec.answers.append(f"{x} {w} {p.coeffs}")
        if not check_query(x, w, p):
            rec.fail(1, f"kl {x} {w} = {p}")


def check_report(rec: Record, report, expected_cases: int, name: str) -> None:
    rec.attempted += expected_cases
    if report.cases != expected_cases:
        rec.fail(expected_cases, f"{name}: {report.cases} cases, "
                                 f"expected {expected_cases}")
    elif report.failures:
        rec.fail(len(report.failures), f"{name}: {report.failures[:3]}")


def inversion_unit(rec: Record, seed: int, index: int) -> None:
    reset()
    (cache,) = probe_setup.build_objects(klpoly, "inversion-s5")
    try:
        report = rec.call(klpoly.verify_inversion_identity_batch,
                          INVERSION_N, cache)
    except Exception:
        traceback.print_exc()
        rec.attempted += INVERSION_CASES
        rec.fail(INVERSION_CASES, "inversion sweep raised")
        return
    rec.mem_point()
    rec.count_memo([cache])
    check_report(rec, report, INVERSION_CASES, "inversion")


def _family_sweeps(regular_cache, inverse_cache):
    return (klpoly.verify_regular_closed_forms(FAMILY_MAX_N, regular_cache),
            klpoly.verify_inverse_closed_forms(FAMILY_MAX_N, inverse_cache))


def families_unit(rec: Record, seed: int, index: int) -> None:
    reset()
    caches = probe_setup.build_objects(klpoly, "families-s8-bounded")
    try:
        regular, inverse = rec.call(_family_sweeps, *caches)
    except Exception:
        traceback.print_exc()
        rec.attempted += 2 * FAMILY_CASES
        rec.fail(2 * FAMILY_CASES, "family sweeps raised")
        return
    rec.mem_point()
    rec.count_memo(caches)
    check_report(rec, regular, FAMILY_CASES, "regular")
    check_report(rec, inverse, FAMILY_CASES, "inverse")


UNITS = {
    "query-s7": query_unit,
    "inversion-s5": inversion_unit,
    "families-s8-bounded": families_unit,
}


def trace_metrics(rec: Record) -> tuple[dict[str, float], list[str]]:
    tracer = rec.tracer
    out = tracer.metrics()
    lookups = rec.memo_hits + rec.memo_misses
    out["kl.memo.hits"] = rec.memo_hits
    out["kl.memo.misses"] = rec.memo_misses
    out["kl.memo.hit_ratio"] = rec.memo_hits / lookups if lookups else 0.0
    out["kl.memo.entries"] = rec.memo_entries
    missing = list(tracer.missing)
    if "kl.KLCache.store" in tracer.layer_of:
        out["kl.memo.evictions"] = tracer.store_count() - rec.memo_entries
    else:
        missing.append("kl.KLCache.store")
        out["kl.memo.evictions"] = 0
    return out, missing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--units", type=int)
    parser.add_argument("--instrument", choices=("none", "trace", "mem"),
                        default="none")
    args = parser.parse_args()
    if (args.seconds is None) == (args.units is None):
        parser.error("give exactly one of --seconds and --units")

    rec = Record(args.instrument)
    unit = UNITS[args.workload]
    start = time.perf_counter()
    index = 0
    while True:
        unit(rec, args.seed, index)
        index += 1
        if args.units is not None and index >= args.units:
            break
        if args.seconds is not None and time.perf_counter() - start >= args.seconds:
            break

    out = {
        "units": index,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "wall_s": rec.wall_s,
        "ref_s": rec.ref_s,
        "outer_wall_s": rec.outer_wall_s,
        "cpu_s": rec.cpu_s,
        "window_ms": rec.window_ms,
        "ref_window_ms": rec.ref_window_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rec.answers:
        out["digest"] = hashlib.sha256(
            "\n".join(rec.answers).encode()).hexdigest()
    if rec.tracer is not None:
        out["metrics"], out["missing"] = trace_metrics(rec)
    if args.instrument == "mem":
        out["metrics"] = {f"mem.{name}_mb": size / MIB
                          for name, size in rec.mem_bytes.items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
