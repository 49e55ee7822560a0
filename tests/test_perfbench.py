"""The benchmark's entry points still run against this source tree."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# The traced run wraps the package's public functions by name and reads the
# kernel's positional arguments, so two workloads take that path.
TRACE = {"long-words": "1", "enumerate": "1", "verify-sweeps": "0"}


@pytest.mark.parametrize("workload", ["long-words", "enumerate", "verify-sweeps"])
def test_bench_workload_runs_correctly(workload):
    # Each workload checks its outputs against perfbench's own references:
    # long-words the profiles and prefix_normal_form, enumerate the classes,
    # prefix-normal sets, binary counts and gap searches, and verify-sweeps
    # run_suite, corpus_measures and the CLI's `SUITE <id> CASES <n> ...`
    # header, so a change to any of them shows here.
    trace = TRACE[workload]
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--scale", "tiny", "--seed", "7", "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["correct"] is True
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(report["metrics"]) == {metric["name"] for metric in declared}
