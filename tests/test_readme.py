"""README's examples run as written, and its lists name every suite and command."""

import argparse
import inspect
import re
import shlex
from dataclasses import is_dataclass
from pathlib import Path

import pytest

import prefixnorm
from prefixnorm import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(heading: str) -> str:
    parts = re.split(r"^## (.+)\n", README.read_text(encoding="utf-8"), flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))[heading]


def _block(heading: str) -> str:
    """The first fenced code block of a README section."""
    return re.search(r"^```\w*\n(.*?)^```$", _section(heading), re.M | re.S).group(1)


def _cli_examples() -> list[list[str]]:
    """The argv of every ``prefixnorm …`` line of the CLI block, its ``# …`` comment dropped."""
    lines = _block("CLI").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("prefixnorm ")]


@pytest.mark.parametrize("argv", _cli_examples(), ids=" ".join)
def test_every_cli_example_runs(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "m.measure").write_text(_block("Measure spec files"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out.strip() and not err


def test_the_quickstart_prints_what_its_comments_say(capsys):
    code = _block("Library quickstart")
    expected = [line.rsplit("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert expected
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_the_cli_block_shows_every_command():
    parser = cli.build_parser()
    [commands] = [action.choices for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    assert {argv[0] for argv in _cli_examples()} == set(commands)


def test_the_suite_table_lists_every_suite():
    table = re.findall(r"^\| `([a-z-]+)` \|", _section("Verification sweeps"), re.M)
    assert sorted(table) == list(prefixnorm.suite_names())


def test_every_exported_function_and_class_has_its_own_docstring():
    # README sends readers to ``help()``.  A class's docstring is not
    # inherited in its ``vars``, and ``@dataclass`` writes ``Name(...)``
    # into a class that has none.
    missing = []
    for name in dir(prefixnorm):
        obj = getattr(prefixnorm, name)
        if inspect.isclass(obj):
            doc = vars(obj).get("__doc__")
            if doc and is_dataclass(obj) and doc.startswith(f"{obj.__name__}("):
                doc = None
        elif inspect.isfunction(obj):
            doc = obj.__doc__
        else:
            continue
        if not (doc and doc.strip()):
            missing.append(name)
    assert missing == []
