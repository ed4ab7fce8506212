"""Run one workload N times and summarize each metric's spread.

Usage::

    python3 e2ebench/repeat.py --workload fit --runs 10
    python3 e2ebench/repeat.py --workload serve_read --runs 6 --seeds 0,1
    python3 e2ebench/repeat.py --workload serve_write --runs 3 --seeds 4,5,6 --overhead

Every run lasts ``run_seconds`` from ``BENCHMARK.json``.  ``--seeds`` is a
list that is cycled over the runs (default ``0``: every run on seed 0;
``0,1`` alternates two seeds).  For every metric it prints the median, the
quartiles (``statistics.quantiles`` with ``n=4``) and the spread
``(q3 - q1) / median``, which is what a bound in ``BENCHMARK.json`` is
compared against.  ``--overhead`` runs every seed untraced and then traced,
and reports the tracing overhead on the headline latency and on throughput,
per pair and on the medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent

#: Headline figures whose tracing overhead ``--overhead`` reports: the
#: untraced metric, its traced twin, and which direction is better.
OVERHEAD = (
    ("primary_ms", "traced.primary_ms", "lower"),
    ("throughput_per_s", "traced.throughput_per_s", "higher"),
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in its own process; returns its result object."""
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(BENCH.parent), capture_output=True, text=True, timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stdout[-2000:] + completed.stderr[-4000:])
        raise SystemExit(f"run failed: {workload} seed {seed} trace {trace}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - started
    result["seed"] = seed
    result["log"] = lines[:-1]
    return result


def summarize(results: List[dict]) -> Dict[str, dict]:
    """Median, quartiles and spread of every metric over ``results``."""
    summary = {}
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def render(title: str, summary: Dict[str, dict], results: List[dict]) -> str:
    failed = {r["failed"] / r["attempted"] for r in results}
    lines = [
        f"{title}: {len(results)} runs, seeds {[r['seed'] for r in results]}, "
        f"all correct: {all(r['correct'] for r in results)}, failed shares {sorted(failed)}, "
        f"wall {min(r['wall_s'] for r in results):.0f}-{max(r['wall_s'] for r in results):.0f} s",
        f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}",
    ]
    for name, row in summary.items():
        lines.append(
            f"  {name:36s} {row['median']:12.4f} {row['q1']:12.4f} {row['q3']:12.4f} "
            f"{row['spread']:8.2%}  {row['unit']}"
        )
    return "\n".join(lines)


def overhead(plain: float, traced: float, better: str) -> float:
    """How much worse the traced figure is, as a share of the untraced one."""
    return traced / plain - 1.0 if better == "lower" else plain / traced - 1.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seeds", default="0", help="comma-separated seeds, cycled")
    parser.add_argument("--overhead", action="store_true",
                        help="run each seed untraced, then traced; report the overhead")
    args = parser.parse_args()
    with open(BENCH.parent / "BENCHMARK.json") as handle:
        seconds = json.load(handle)["run_seconds"]
    pool = [int(seed) for seed in args.seeds.split(",")]
    seeds = [pool[i % len(pool)] for i in range(args.runs)]

    modes = (0, 1) if args.overhead else (0,)
    results: Dict[int, List[dict]] = {mode: [] for mode in modes}
    for seed in seeds:
        for mode in modes:
            result = run_once(args.workload, seed, seconds, mode)
            results[mode].append(result)
            print(f"seed {seed} trace {mode}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  *(f"  {line}" for line in result["log"]), sep="\n", flush=True)
    for mode in modes:
        print(render(f"{args.workload} trace={mode}", summarize(results[mode]), results[mode]))
    if args.overhead:
        for metric, twin, better in OVERHEAD:
            pairs = [
                (plain["metrics"][metric]["value"], traced["metrics"][twin]["value"])
                for plain, traced in zip(results[0], results[1])
            ]
            for seed, (plain, traced) in zip(seeds, pairs):
                print(f"tracing overhead on {metric}, seed {seed}: "
                      f"{overhead(plain, traced, better):+.2%} "
                      f"(untraced {plain:.4g}, traced {traced:.4g})")
            plain = statistics.median(pair[0] for pair in pairs)
            traced = statistics.median(pair[1] for pair in pairs)
            print(f"tracing overhead on {metric}, medians: {overhead(plain, traced, better):+.2%} "
                  f"(untraced {plain:.4g}, traced {traced:.4g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
