import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_a_failing_hypothesis_test_fails_alone(tmp_path):
    # The repository's pytest settings turn warnings into errors; a failing
    # @given test must still be reported as one failure, with its example,
    # and not abort the run.
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-q", "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed" in run.stdout
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
