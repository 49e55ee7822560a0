"""List the statement lines of ``src/prefixnorm`` that a pytest run never reaches.

It runs pytest in this process under ``sys.settrace`` and
``threading.settrace``, tracing lines only in frames whose code lies in
the package, then prints per module the statement lines that never ran,
and last their total.  A statement line is the first line of a statement
that ``ast`` finds; docstrings and ``global``/``nonlocal`` declarations
run no code and are left out, as ``tools/code_lines.py`` leaves out
docstrings.  Code run in a child process (``python -m prefixnorm``, say)
is not seen.  The exit status is pytest's.

Usage: ``python3 tools/lines_run.py [pytest args]``
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "prefixnorm"

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statement_lines(source: str) -> set[int]:
    """The first line of each statement in ``source``, docstrings and ``global``/``nonlocal`` left out."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None
    }
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt)
        and not isinstance(node, (ast.Global, ast.Nonlocal))
        and id(node) not in docstrings
    }


@contextmanager
def executed_lines(directory: Path) -> Iterator[dict[str, set[int]]]:
    """Trace the block; the mapping it yields fills with the lines run of each file under ``directory``.

    Files are keyed by absolute path.  The tracers in place before the
    block are put back after it.
    """
    prefix = os.path.join(os.path.abspath(directory), "")
    ran: dict[str, set[int]] = {}
    tracers: dict[str, Callable | None] = {}

    def file_tracer(name: str) -> Callable | None:
        path = os.path.abspath(name)
        if not path.startswith(prefix):
            return None
        lines = ran.setdefault(path, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            tracers[name] = file_tracer(name)
        return tracers[name]

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        yield ran
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])


def never_ran(directory: Path, ran: dict[str, set[int]]) -> dict[str, list[int]]:
    """Per module of ``directory``, sorted by name, the statement lines not in ``ran``."""
    return {
        path.name: sorted(
            statement_lines(path.read_text(encoding="utf-8")) - ran.get(os.path.abspath(path), set())
        )
        for path in sorted(directory.glob("*.py"))
    }


def main(argv: list[str] | None = None) -> int:
    with executed_lines(PACKAGE) as ran:
        status = pytest.main(argv)  # None: the command line's arguments
    missed = never_ran(PACKAGE, ran)
    for name, lines in missed.items():
        print(f"{len(lines):6d}  {name}  {' '.join(map(str, lines))}".rstrip())
    print(f"{sum(map(len, missed.values())):6d}  total")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
