from helpers import load_module


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = (
        '"""Module docstring."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # a trailing comment\n"
        "\n"
        "def f():\n"
        '    """A docstring\n'
        '    of two lines."""\n'
        '    return """a string\n'
        'that is no docstring"""\n'
    )
    assert load_module("code_lines").code_lines(source) == 4


def test_code_lines_prints_every_module_and_their_total(capsys):
    tool = load_module("code_lines")
    assert tool.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    names = [name for _, name in rows]
    assert names[-1] == "total"
    assert names[:-1] == sorted(path.name for path in tool.PACKAGE.glob("*.py"))
    assert {"cli.py", "normalform.py"} <= set(names)
    counts = [int(count) for count, _ in rows]
    assert all(count > 0 for count in counts)
    assert sum(counts[:-1]) == counts[-1]
