import sys
import threading

from helpers import load_module

TOOL = load_module("lines_run")

SYNTHETIC = '''"""A module docstring."""

COUNT = 0


def bump(up):
    """A function docstring."""
    global COUNT
    if up:
        COUNT += 1
    else:
        COUNT -= 1
    return COUNT
'''


def test_statement_lines_skip_docstrings_and_global_declarations():
    assert TOOL.statement_lines(SYNTHETIC) == {3, 6, 9, 10, 12, 13}


def test_the_collector_reports_the_untaken_branch_and_restores_the_tracers(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC, encoding="utf-8")
    before = sys.gettrace(), threading.gettrace()
    with TOOL.executed_lines(tmp_path) as ran:
        load_module("synthetic", path).bump(True)
    assert (sys.gettrace(), threading.gettrace()) == before
    assert TOOL.never_ran(tmp_path, ran) == {"synthetic.py": [12]}
