"""The benchmark's entry points still run against this source tree."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_verify_sweeps_bench_runs_correctly():
    # The bench drives run_suite and corpus_measures, and reads the CLI's
    # `SUITE <id> CASES <n> ...` header, so a change to any of them shows here.
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sweeps",
         "--scale", "tiny", "--seed", "7", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert json.loads(result.stdout.splitlines()[-1])["correct"] is True
