import os
import subprocess
import sys
from pathlib import Path

import pytest

from prefixnorm.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

STD3 = "monoid = nat-sum\nletters = a b c\nweights = 1 2 3\n"
GAPFUL = "monoid = nat-sum\nletters = a b c\nweights = 1 3 4\n"
NANABA = "monoid = nat-sum\nletters = a n b\nweights = 1 2 3\n"
FOURLETTER = "monoid = nat-sum\nletters = a n c b\nweights = 1 2 2 3\n"
XAXN = "monoid = nat-sum\nletters = a n x\nweights = 1 2 4\n"


@pytest.fixture
def spec(tmp_path):
    def write(text, name="m.measure"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_classify_gapful_text_output(capsys, spec):
    code = main(["classify", spec(GAPFUL)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        "letters: a b c\n"
        "monoid: nat-sum\n"
        "base weights: 1 3 4\n"
        "injective: yes\n"
        "alphabetically ordered: yes\n"
        "binary: no\n"
        "unary: no\n"
        "prime: no\n"
        "stepped: no\n"
        "gapfree: no\n"
        "gap witness: cacb at index 3\n"
    )


def test_classify_lines_output(capsys, spec):
    code = main(["classify", spec("monoid = nat-sum\nletters = a b c\nweights = 2 4 6\n"), "--format", "lines"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        "injective true\n"
        "alphabetically-ordered true\n"
        "binary false\n"
        "unary false\n"
        "prime false\n"
        "stepped 2\n"
        "gapfree true\n"
    )


@pytest.mark.parametrize(
    "text,fmt,line",
    [
        ("monoid = nat-product\nletters = a b c\nweights = 2 3 5\n", "lines", "gap-witness cacb 3"),
        (STD3, "text", "stepped: yes (step 1)"),
    ],
)
def test_classify_prints_gap_witness_and_step(capsys, spec, text, fmt, line):
    assert main(["classify", spec(text), "--format", fmt]) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_weights_table_mirrors_profile(capsys, spec):
    code = main(["weights", spec(NANABA), "nanaba"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        "i | 1  2  3  4  5   6\n"
        "p | 2  3  5  6  9  10\n"
        "f | 3  4  6  7  9  10\n"
    )


def test_weights_lines_format(capsys, spec):
    code = main(["weights", spec(NANABA), "nanaba", "--format", "lines"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "i 1 2 3 4 5 6\np 2 3 5 6 9 10\nf 3 4 6 7 9 10\n"


def test_pnf_unique(capsys, spec):
    code = main(["pnf", spec(STD3), "bcac"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        "prefix normal form: cbbb\n"
        "parikh in : a=1 b=1 c=2\n"
        "parikh out: a=0 b=3 c=1\n"
    )


def test_pnf_multiple(capsys, spec):
    code = main(["pnf", spec(FOURLETTER), "nanaba"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        "projected prefix normal form: {b}{a}{n,c}{a}{n,c}{a}\n"
        "count: 4\n"
        "parikh in : a=3 n=2 c=0 b=1\n"
    )


def test_pnf_gap(capsys, spec):
    code = main(["pnf", spec(XAXN), "xaxn"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "no prefix normal form: gap at index 3 of xaxn\n"


def test_pnf_lines_variants(capsys, spec):
    assert main(["pnf", spec(STD3), "bcac", "--format", "lines"]) == 0
    assert capsys.readouterr().out == "unique cbbb\n"
    assert main(["pnf", spec(FOURLETTER), "nanaba", "--format", "lines"]) == 0
    assert capsys.readouterr().out == "multiple {b}{a}{n,c}{a}{n,c}{a} 4\n"
    assert main(["pnf", spec(XAXN), "xaxn", "--format", "lines"]) == 0
    assert capsys.readouterr().out == "gap xaxn 3\n"


def test_pnf_prints_a_count_past_the_int_str_limit(capsys, spec):
    # Ten letters of one weight: a^4301 stands for 10^4301 words, one digit
    # more than Python prints by default; main restores that limit on exit.
    ten = "monoid = nat-sum\nletters = a b c d e f g h i j\nweights = 1 1 1 1 1 1 1 1 1 1\n"
    digits = sys.get_int_max_str_digits()
    assert main(["pnf", spec(ten), "a" * 4301, "--format", "lines"]) == 0
    kind, projected, count = capsys.readouterr().out.split()
    assert (kind, projected) == ("multiple", "{a,b,c,d,e,f,g,h,i,j}" * 4301)
    assert count == "1" + "0" * 4301
    assert sys.get_int_max_str_digits() == digits


def test_class_lists_words_sorted(capsys, spec):
    code = main(["class", spec(NANABA), "banana"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "ananab\nanaban\nabanan\nnanaba\nnabana\nbanana\n"


def test_pnset_output(capsys, spec):
    code = main(["pnset", spec(FOURLETTER), "nanaba"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "banana\nbanaca\nbacana\nbacaca\n"


def test_pnset_empty_for_gapped_class(capsys, spec):
    code = main(["pnset", spec(XAXN), "xaxn"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == ""


def test_class_limit_is_a_domain_error(capsys, spec):
    code = main(["class", spec(NANABA), "banana", "--limit", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "exceed the limit" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["class", NANABA, "banana", "--limit", "10"],
        ["pnset", FOURLETTER, "nanaba", "--limit", "3"],
        ["count-pn", NANABA, "11"],
        ["count-binary-pn", "40"],
        ["verify", "trichotomy", "--max-len", "7"],
    ],
    ids=["class", "pnset", "count-pn", "count-binary-pn", "verify"],
)
def test_count_refusals_share_one_wording(capsys, spec, argv):
    argv = [spec(arg) if arg.startswith("monoid") else arg for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: refusing: ")


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-m", "prefixnorm", "count-binary-pn", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (result.returncode, result.stdout) == (0, "5\n")


def test_count_pn(capsys, spec):
    triple = "monoid = nat-sum\nletters = a b c d\nweights = 1 1 1 2\n"
    assert main(["count-pn", spec(triple), "4"]) == 0
    assert capsys.readouterr().out == "142\n"


def test_count_pn_over_bound(capsys, spec):
    assert main(["count-pn", spec(NANABA), "11"]) == 1
    assert "refusing" in capsys.readouterr().err


def test_count_binary_pn(capsys):
    assert main(["count-binary-pn", "3"]) == 0
    assert capsys.readouterr().out == "5\n"


def test_count_binary_pn_over_bound(capsys):
    assert main(["count-binary-pn", "40"]) == 1
    assert "refusing" in capsys.readouterr().err


def test_verify_suite_exit_status_and_lines(capsys):
    code = main(["verify", "vector-gapfree", "--format", "lines"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("SUITE vector-gapfree CASES ")
    assert out.strip().endswith("VIOLATIONS 0")


def test_verify_unknown_suite_is_usage_error(capsys):
    code = main(["verify", "nope"])
    assert code == 2
    assert "unknown suite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,name",
    [
        (["verify", "subadditivity", "--cases", "-5"], "cases"),
        (["verify", "binary-reduction", "--max-len", "0"], "max_len"),
        (["verify", "subadditivity", "--max-len", "-1"], "max_len"),
        (["verify", "gap-decision", "--max-len", "3"], "max_len"),
    ],
)
def test_verify_over_no_cases_is_usage_error(capsys, argv, name):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    # Every gap witness has four letters, so gap-decision needs max_len 4.
    least = 4 if argv[1] == "gap-decision" else 1
    assert f"{name} must be at least {least}" in captured.err


def test_verify_seed_defaults_to_environment(capsys, monkeypatch):
    monkeypatch.setenv("PREFIXNORM_SEED", "12345")
    code = main(["verify", "prime-gapful", "--format", "lines"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("SUITE prime-gapful")


def test_verify_names_a_seed_variable_that_is_no_integer(capsys, monkeypatch):
    monkeypatch.setenv("PREFIXNORM_SEED", "abc")
    assert main(["verify", "exchange"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: PREFIXNORM_SEED must be an integer, got 'abc'\n"


def test_missing_measure_file_is_usage_error(capsys, tmp_path):
    code = main(["classify", str(tmp_path / "absent.measure")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_measure_file_reports_line(capsys, spec):
    code = main(["classify", spec("monoid = nat-sum\nletters = a b\nweights = 1 x\n")])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_weight_at_the_identity_is_usage_error(capsys, spec):
    code = main(["classify", spec("monoid = nat-sum\nletters = a b\nweights = 0 1\n")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "must exceed the identity" in captured.err


def test_word_with_foreign_letter_is_usage_error(capsys, spec):
    code = main(["weights", spec(NANABA), "bananaz"])
    assert code == 2
    assert "not in alphabet" in capsys.readouterr().err


def test_output_is_deterministic(capsys, spec):
    path = spec(GAPFUL)
    main(["classify", path])
    first = capsys.readouterr().out
    main(["classify", path])
    assert capsys.readouterr().out == first
