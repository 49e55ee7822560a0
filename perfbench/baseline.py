#!/usr/bin/env python3
"""Run every workload over ten seeds and record the medians as a baseline.

    python3 perfbench/baseline.py              # writes perfbench/baseline.json
    python3 perfbench/baseline.py --out -      # writes to stdout

For each workload of BENCHMARK.json it runs ``run.py --trace 0`` once per seed, then one
``--trace 1`` run on the first seed.  Per end-to-end metric it records the
median, the quartiles and the spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives them) next to the bound in
BENCHMARK.json, so a reader sees at once whether the spread fits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["exit_code"] = done.returncode
    result["wall_s"] = wall
    return result


def _summary(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "bound": bound,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(BENCH_DIR / "baseline.json"))
    args = parser.parse_args(argv)
    seeds = list(SEEDS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "command": "python3 perfbench/baseline.py",
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.platform()}",
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            result = _run(workload, seed, spec["run_seconds"], 0)
            ok &= result["exit_code"] == 0 and result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: exit {result['exit_code']}, "
                  f"wall {result['wall_s']:.1f} s", file=sys.stderr)
        traced = _run(workload, seeds[0], spec["run_seconds"], 1)
        ok &= traced["exit_code"] == 0 and traced["correct"]
        report["workloads"][workload] = {
            "end_to_end": {
                name: _summary([r["metrics"][name]["value"] for r in runs], bound)
                for name, bound in bounds.items()
            },
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "wall_s": [round(r["wall_s"], 1) for r in runs],
            "per_layer": {
                name: metric["value"] for name, metric in traced["metrics"].items()
            },
        }
    text = json.dumps(report, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    for workload, entry in report["workloads"].items():
        for name, summary in entry["end_to_end"].items():
            print(f"{workload:14s} {name:13s} median {summary['median']:12.6g} "
                  f"spread {summary['spread']:.3f} bound {summary['bound']}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
