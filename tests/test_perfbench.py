"""The benchmark's entry points still run against this source tree."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["long-words", "enumerate", "verify-sweeps"])
def test_bench_workload_runs_correctly(workload):
    # Each workload checks its outputs against perfbench's own references:
    # long-words the profiles and prefix_normal_form, enumerate the classes,
    # prefix-normal sets, binary counts and gap searches, and verify-sweeps
    # run_suite, corpus_measures and the CLI's `SUITE <id> CASES <n> ...`
    # header, so a change to any of them shows here.
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--scale", "tiny", "--seed", "7", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert json.loads(result.stdout.splitlines()[-1])["correct"] is True
