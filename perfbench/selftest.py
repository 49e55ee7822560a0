"""Self-tests of the benchmark: run each workload at tiny scale.

    python3 perfbench/selftest.py

They show that the references accept the package's outputs, and that a
deliberately wrong reference turns into failed calls, a false ``correct``
and a non-zero exit code instead of passing silently.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run._use_checkout_source()

import checks  # noqa: E402
import workloads  # noqa: E402

_real_init = checks.Reference.__init__


def _bumped_init(self, *args, **kwargs):
    """A reference whose longest factor maximum is one step too heavy."""
    _real_init(self, *args, **kwargs)
    top = self.factor_max[-1]
    if isinstance(top, tuple):
        self.factor_max[-1] = (top[0], top[1] + 1)
    else:
        self.factor_max[-1] = top + 1


def _tiny(name: str):
    return run.run_rounds(workloads.build(name, 7, "tiny"), 0.0)


def _calls_per_round(name: str, func: str) -> int:
    return sum(call.func == func for call in workloads.build(name, 7, "tiny").round(0))


class Workloads(unittest.TestCase):
    def test_outputs_pass_the_references(self):
        for name in workloads.BY_NAME:
            with self.subTest(workload=name):
                stats = _tiny(name)
                self.assertGreater(stats.attempted, 0)
                self.assertEqual(stats.failures, [])

    def test_wrong_profile_reference_fails_calls(self):
        for name in ("long-words", "enumerate"):
            with self.subTest(workload=name), mock.patch.object(
                checks.Reference, "__init__", _bumped_init
            ):
                stats = _tiny(name)
                self.assertGreater(len(stats.failures), 0)

    def test_wrong_binary_counts_fail_calls(self):
        wrong = tuple(c + 1 for c in checks.BINARY_PN_COUNTS)
        with mock.patch.object(checks, "BINARY_PN_COUNTS", wrong):
            stats = _tiny("enumerate")
        counted = [f for f in stats.failures if "count_binary" in f]
        self.assertEqual(len(counted), stats.rounds * len(workloads.BINARY_LENGTHS["tiny"]))

    def test_wrong_class_reference_fails_calls(self):
        real = checks.expected_classes

        def short(*args):
            return {word: members - {word} for word, members in real(*args).items()}

        with mock.patch.object(checks, "expected_classes", short):
            stats = _tiny("enumerate")
        failed = [f for f in stats.failures if f.startswith("normalform.equivalence_class")]
        per_round = _calls_per_round("enumerate", "normalform.equivalence_class")
        self.assertEqual(len(failed), stats.rounds * per_round)

    def test_enumerators_that_drop_words_fail_calls(self):
        def dropping(real):
            def wrapper(*args):
                return set(sorted(real(*args), key=lambda w: w.indices)[1:])

            return wrapper

        module = workloads.normalform
        with mock.patch.object(
            module, "equivalence_class", dropping(module.equivalence_class)
        ), mock.patch.object(module, "prefix_normal_set", dropping(module.prefix_normal_set)):
            stats = _tiny("enumerate")
        for func in ("normalform.equivalence_class", "normalform.prefix_normal_set"):
            failed = [f for f in stats.failures if f.startswith(func)]
            self.assertGreater(len(failed), 0, func)

    def test_wrong_sweep_expectation_fails_calls(self):
        with mock.patch.object(checks, "CLEAN_SWEEP", ("VIOLATIONS", "1")):
            stats = _tiny("verify-sweeps")
        self.assertEqual(len(stats.failures), stats.attempted)

    def test_broken_kernel_fails_calls(self):
        real = workloads.profile.factor_max_payloads

        def broken(*args):
            best, starts = real(*args)
            return best[:-1] + best[-2:-1], starts

        with mock.patch.object(workloads.profile, "factor_max_payloads", broken):
            stats = _tiny("long-words")
        self.assertGreater(len(stats.failures), 0)


class Runner(unittest.TestCase):
    def _main(self, workload: str, trace: int = 0):
        out = io.StringIO()
        argv = ["--workload", workload, "--seed", "3", "--seconds", "0"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main([*argv, "--trace", str(trace), "--scale", "tiny"])
        return code, json.loads(out.getvalue().strip().splitlines()[-1])

    def test_result_line_lists_every_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = self._main("enumerate", trace)
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), {m["name"] for m in spec[key]})
            for metric in spec[key]:
                self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])

    def test_wrong_reference_exits_non_zero(self):
        with mock.patch.object(checks.Reference, "__init__", _bumped_init):
            code, result = self._main("long-words")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_fails_without_the_package_source(self):
        bare = run.OUT_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            done = subprocess.run(
                [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "enumerate",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
