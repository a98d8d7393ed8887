"""klpoly benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a klpoly checkout.  Every workload runs in fresh
interpreters (perfbench/worker.py), one at a time, with no threads.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json:
set-up time from repeated fresh-interpreter probes, then throughput,
latency and peak RSS from one untraced run of T seconds.  Times are
reported at reference speed (perfbench/speed.py), so that a shared
machine's drifting speed does not read as a change in the program;
the wall-clock figures are printed beside them.

--trace 1 prints the per-layer metrics: one fixed unit of work runs
three times, each in its own interpreter: untraced (the reference for
tracing overhead and off-CPU share), traced (counts and self times),
and under tracemalloc (bytes held per source file).

Every answer is checked; the last line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
SRC_DIR = ROOT / "src"

WORKLOADS = ("query-s7", "inversion-s5", "families-s8-bounded")

# Fresh-interpreter set-up probes per run; their median is setup_s.
SETUP_SAMPLES = 25

# A run must end within 180 seconds; children share what is left of it.
RUN_BUDGET_S = 170.0

# sha256 of the answers to round 0 of query-s7, recorded at the commit
# that introduced the benchmark, by seed.
QUERY_DIGESTS = {
    1: "a1e3663f244516e6ebad5e5f15e36f73d0c68ba119b1640d208007c41e4d20b3",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # One process, no threads: the verify batches would otherwise spread
    # cases over a thread pool.
    env.pop("KL_ENGINE_THREADS", None)
    # Let the untimed first probe write bytecode caches, as an installed
    # package has them, so that setup_s never includes compiling klpoly.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run one child interpreter to completion; return the last line it
    printed."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget spent before all children ran")
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child.
        raise BenchError(f"child timed out: {argv}") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {argv}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child printed nothing: {argv}")
    return lines[-1]


def worker(workload: str, seed: int, deadline: float, instrument: str,
           seconds: float | None = None) -> dict:
    argv = [str(BENCH_DIR / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--instrument", instrument]
    argv += ["--seconds", str(seconds)] if seconds is not None else ["--units", "1"]
    return json.loads(run_child(argv, deadline))


def setup_seconds(workload: str, deadline: float) -> tuple[float, float]:
    """Medians of SETUP_SAMPLES fresh-interpreter probes, after one
    untimed probe that writes the bytecode caches: wall seconds and
    seconds at reference speed."""
    argv = [str(BENCH_DIR / "probe_setup.py"), str(SRC_DIR), workload]
    run_child(argv, deadline)
    probes = [[float(v) for v in run_child(argv, deadline).split()]
              for _ in range(SETUP_SAMPLES)]
    return (statistics.median(p[0] for p in probes),
            statistics.median(p[1] for p in probes))


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setup_wall, setup_ref = setup_seconds(args.workload, deadline)
    rec = worker(args.workload, args.seed, deadline, "none", args.seconds)
    windows = rec["ref_window_ms"]
    metrics = {
        "cases_per_s": rec["attempted"] / rec["ref_s"],
        "query_p50_ms": nearest_rank(windows, 0.50),
        "query_p90_ms": nearest_rank(windows, 0.90),
        "peak_rss_mb": rec["peak_rss_mb"],
        "setup_s": setup_ref,
    }
    what = "cold queries" if args.workload == "query-s7" else "whole sweeps"
    wall = rec["window_ms"]
    print(f"latency samples: {len(windows)} {what} in {rec['units']} units")
    print(f"program wall {rec['wall_s']:.3f} s, at reference speed "
          f"{rec['ref_s']:.3f} s (machine at {rec['ref_s'] / rec['wall_s']:.3f} "
          f"of reference speed)")
    print(f"wall-clock: cases_per_s {rec['attempted'] / rec['wall_s']:.6g}, "
          f"p50 {nearest_rank(wall, 0.50):.6g} ms, "
          f"p90 {nearest_rank(wall, 0.90):.6g} ms, setup {setup_wall:.6g} s")
    print(f"timed wall {rec['outer_wall_s']:.3f} s, process cpu {rec['cpu_s']:.3f} s, "
          f"proc.offcpu_frac {1 - rec['cpu_s'] / rec['outer_wall_s']:.4f}")
    return metrics, rec


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    plain = worker(args.workload, args.seed, deadline, "none")
    traced = worker(args.workload, args.seed, deadline, "trace")
    mem = worker(args.workload, args.seed, deadline, "mem")
    for rec in (traced, mem):
        if rec["attempted"] != plain["attempted"]:
            raise BenchError("instrumented runs did different work")
    metrics = dict(traced["metrics"])
    metrics.update(mem["metrics"])
    metrics["proc.offcpu_frac"] = 1 - plain["cpu_s"] / plain["outer_wall_s"]
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    for name in traced["missing"]:
        print(f"tracer: {name} not found, skipped", file=sys.stderr)
    layers = sum(v for k, v in metrics.items()
                 if k.count(".") == 1 and k.endswith(".self_s"))
    unseen = metrics["trace.wall_s"] - layers - metrics["trace.tracer_s"]
    print(f"traced wall {metrics['trace.wall_s']:.3f} s = layer self times "
          f"{layers:.3f} s + tracer {metrics['trace.tracer_s']:.3f} s "
          f"+ unattributed {unseen:.3f} s")
    print(f"untraced wall {plain['outer_wall_s']:.3f} s, process cpu "
          f"{plain['cpu_s']:.3f} s")
    runs = (plain, traced, mem)
    rec = {"attempted": sum(r["attempted"] for r in runs),
           "failed": sum(r["failed"] for r in runs),
           "digest": plain.get("digest"),
           "consistent": len({r.get("digest") for r in runs}) == 1}
    return metrics, rec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if not (SRC_DIR / "klpoly" / "__init__.py").is_file():
            raise BenchError(f"no klpoly sources under {SRC_DIR}")
        spec = json.loads(SPEC_FILE.read_text())
        declared = spec["per_layer" if args.trace else "end_to_end"]
        if args.trace:
            metrics, rec = per_layer(args, deadline)
        else:
            metrics, rec = end_to_end(args, deadline)
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not produced: {missing}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    correct = rec["failed"] == 0
    if not rec.get("consistent", True):
        print("instrumented runs gave different answers", file=sys.stderr)
        correct = False
    digest = rec.get("digest")
    expected = QUERY_DIGESTS.get(args.seed)
    if digest is not None and expected is not None and digest != expected:
        print(f"query answers digest {digest} != recorded {expected}",
              file=sys.stderr)
        correct = False
    print(f"failed_frac = {rec['failed'] / rec['attempted']:.6g} ratio "
          f"({rec['failed']} of {rec['attempted']} cases)")
    out = {}
    for m in declared:
        value = metrics[m["name"]]
        print(f"{m['name']} = {value:.6g} {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
