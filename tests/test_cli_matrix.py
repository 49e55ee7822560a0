import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_matrix.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("cli_matrix", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_matrix_digests_are_stable_across_runs_and_spec_directories(tmp_path):
    tool = _load_tool()
    runs = []
    for name in ("first", "second"):
        spec_dir = tmp_path / name
        spec_dir.mkdir()
        paths = tool.write_specs(spec_dir)
        argvs = [
            ["classify", paths["sum-124"], "--format", "lines"],
            ["pnf", paths["sum-122"], "abcab"],
            # The missing file's path is in the error message.
            ["count-pn", str(spec_dir / "missing.measure"), "3"],
        ]
        runs.append(tool.digests(argvs, spec_dir))
    assert runs[0] == runs[1]
    assert len(set(runs[0])) == 3
    assert tool.total(runs[0]) == tool.total(runs[1]) != tool.total(runs[0][::-1])


def test_cli_matrix_run_captures_output_and_exit_codes(tmp_path):
    tool = _load_tool()
    paths = tool.write_specs(tmp_path)
    assert tool.run(["pnf", paths["sum-123"], "abc", "--format", "lines"]) == ("unique cba\n", "", 0)
    out, err, code = tool.run(["pnf", paths["sum-123"]])
    assert (out, code) == ("", 2) and "word" in err


def test_cli_matrix_reads_the_specs_of_a_few_commands(tmp_path):
    tool = _load_tool()
    paths = tool.write_specs(tmp_path)
    argvs = tool.commands(tmp_path)
    assert ["verify", "exchange", "--max-len", "3"] in argvs
    assert ["class", paths["vec2"], "abcab", "--limit", "1"] in argvs
    out, err, code = tool.run(["classify", paths["bad-monoid"]])
    assert (out, code) == ("", 2)
    assert "unknown monoid 'nat-summ' (expected one of: nat-sum, nat-product, vec2-lex)" in err
    out, err, code = tool.run(["count-pn", paths["bad-weight"], "3"])
    assert (out, code) == ("", 2) and "expected a decimal integer, got 'x'" in err
    # 10^4301: more digits than Python prints by default.
    assert tool.run(["count-pn", paths["one-class"], "4301"]) == ("1" + "0" * 4301 + "\n", "", 0)
