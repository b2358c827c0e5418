#!/usr/bin/env python3
"""The repository benchmark: one workload, its metrics and its checks.

    python3 perfbench/run.py --workload cold-heatmap --seed 1 \
        --seconds 11 --trace 0

Run from the repository root.  Workloads (see perfbench/README.md):

* ``cold-heatmap``  reduced Fig 6 heatmap, empty memory-only cache;
* ``warm-replay``   the same heatmap replayed from warehouse clouds;
* ``service-mix``   closed-loop clients against ``repro fabric serve``
  and one ``repro fabric worker`` over real HTTP.

Each run works in a fresh directory under ``.bench_runs/`` and removes
it at the end.  The workload is set up ``SETUPS`` times, each in a fresh
interpreter, and the last one goes on to the measured phase.  With
``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics from a traced run, whose spans are kept in
``.bench_runs/trace-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from hostspeed import reference_s, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("cold-heatmap", "warm-replay", "service-mix")
READY = "perfbench:ready"
RESULT = "perfbench:result "
#: Set-ups per run; setup_s is their median.
SETUPS = 5
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Hard stop for one workload process (a whole run must end within 180 s).
CHILD_TIMEOUT_S = 170.0


def child_env() -> dict:
    """The program's environment: its own source, a private temp dir and
    none of the caller's cache or fault-injection settings."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(("QUICBENCH_", "REPRO_"))
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(RUNS)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn(args, workdir: Path, setup_only: bool):
    """Run one workload process; returns (set-up seconds scaled to the
    reference host speed, result or None)."""
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.trace:
        cmd += ["--trace-file", str(RUNS / f"trace-{args.workload}-seed{args.seed}.json")]
    workdir.mkdir(parents=True)
    readings = [reference_s() for _ in range(3)]
    start = time.perf_counter()
    # A session of its own, so a hung run can be killed together with the
    # coordinator and worker it started.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=str(ROOT),
        start_new_session=True,
    )
    watchdog = threading.Timer(
        CHILD_TIMEOUT_S, os.killpg, args=(proc.pid, signal.SIGKILL)
    )
    watchdog.start()
    setup_s, result = None, None
    try:
        for line in proc.stdout:
            if line.rstrip("\n") == READY:
                setup_s = time.perf_counter() - start
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
    if code != 0 or setup_s is None:
        raise RuntimeError(f"{args.workload} process exited with code {code}")
    readings += [reference_s() for _ in range(3)]
    return setup_s * scale(readings), result


def units() -> dict:
    """Every metric's unit, as BENCHMARK.json declares it."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def nearest_rank(ordered, percentile: float) -> float:
    """The nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with TAIL_BEYOND samples beyond it,
    never below the median."""
    return max(50, math.floor(100.0 * (n - TAIL_BEYOND) / n))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2

    unit = units()
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        setups = []
        for i in range(SETUPS - 1):
            setup_s, _ = spawn(args, workdir / f"setup-{i}", setup_only=True)
            setups.append(setup_s)
        setup_s, result = spawn(args, workdir / "run", setup_only=False)
        setups.append(setup_s)
    except (RuntimeError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    samples = sorted(result["samples"])
    failures = result["failures"]
    if not samples:
        print(f"perfbench: no item completed; {failures}", file=sys.stderr)
        return 1
    attempted = len(samples) + len(failures)
    for key, value in sorted(result["extra"].items()):
        print(f"{args.workload} {key}: {value}")
    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit[name]}
            for name, value in result["layers"].items()
        }
        phases = result["phases"]
        print(
            f"{args.workload} traced unit {phases['traced_s']:.3f} s vs "
            f"untraced {phases['untraced_s']:.3f} s; spans in {result['trace_file']}"
        )
    else:
        clock = result["clock"]
        scaled = sorted(clock["samples"])
        raw = sorted(clock["raw_samples"])
        n = len(scaled)
        percentile = tail_percentile(n)
        metrics = {
            "items_per_s": n / clock["busy_s"],
            "item_p50_s": nearest_rank(scaled, 50),
            "item_tail_s": nearest_rank(scaled, percentile),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {
            name: {"value": value, "unit": unit[name]} for name, value in metrics.items()
        }
        print(
            f"{args.workload} item_tail_s is p{percentile} of n={n} items "
            f"({n - math.ceil(percentile / 100.0 * n)} beyond it); "
            f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s"
        )
        print(
            f"{args.workload} unscaled: items_per_s {n / clock['raw_busy_s']:.4f}, "
            f"item_p50_s {nearest_rank(raw, 50):.4f}, item_tail_s "
            f"{nearest_rank(raw, percentile):.4f}; reference loop median "
            f"{1000 * statistics.median(clock['refs']):.2f} ms over "
            f"{len(clock['refs'])} readings; timed phase {clock['busy_s']:.1f} s "
            f"scaled, {result['elapsed_s']:.1f} s wall"
        )
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
