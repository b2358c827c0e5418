#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cold-heatmap --runs 10 \
        [--first-seed 1] [--out FILE]

Runs the benchmark command once per seed, one run at a time, for
BENCHMARK.json's ``run_seconds`` with tracing off, and prints for every
metric the median, the quartiles (``statistics.quantiles(values, n=4)``),
the interquartile range as a share of the median, and min/max.  This is
how the bounds in BENCHMARK.json were set: each end-to-end metric's
bound is well above its spread.  ``--out`` also writes the table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=str(ROOT), capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {shown}",
              flush=True)

    table = {
        name: summarize([r["metrics"][name]["value"] for r in results])
        for name in results[0]["metrics"]
    }
    print(f"{'metric':28} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} "
          f"{'min':>11} {'max':>11}")
    for name, row in table.items():
        print(f"{name:28} {row['median']:11.5g} {row['q1']:11.5g} {row['q3']:11.5g} "
              f"{row['spread']:7.3f} {row['min']:11.5g} {row['max']:11.5g}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "metrics": table},
            indent=1, sort_keys=True,
        ) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
