from pathlib import Path

import pytest

from helpers import load_module

TOOL = load_module("mutants")


@pytest.mark.parametrize("mutant", TOOL.MUTANTS, ids=lambda mutant: mutant.name)
def test_every_mutant_anchor_occurs_exactly_once(mutant):
    text = (TOOL.ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.anchor) == 1
    assert TOOL.apply(text, mutant) != text


def test_mutant_names_are_unique_and_an_ambiguous_anchor_is_refused():
    names = [mutant.name for mutant in TOOL.MUTANTS]
    assert len(set(names)) == len(names)
    twice = TOOL.Mutant("twice", "x.py", "a", "b")
    with pytest.raises(ValueError, match="2 times"):
        TOOL.apply("a a", twice)


def test_mutant_runs_deselect_the_anchor_test():
    # A mutated file no longer holds its anchor, so a run that kept the
    # anchor test would count every mutant as killed.
    path, name = TOOL.ANCHOR_TEST.split("::")
    assert (TOOL.ROOT / path).resolve() == Path(__file__).resolve()
    assert name == test_every_mutant_anchor_occurs_exactly_once.__name__


# Shaped like the tail of a pytest 9.0.3 run; a test's own output can hold "FAILED" too.
CAPTURED = """\
----------------------------- Captured stdout call -----------------------------
FAILED is only printed here
=========================== short test summary info ============================
FAILED tests/test_profile.py::test_bad[a b] - AssertionError: assert 'a - b' == 'z'
ERROR tests/test_oracle.py::test_later - RuntimeError
!!!!!!!!!!!!!!!!!!!!!!!!!! stopping after 1 failures !!!!!!!!!!!!!!!!!!!!!!!!!!!
1 failed, 1 passed in 1.29s
"""


def test_the_killer_is_the_first_test_of_the_short_summary():
    assert TOOL.killer(CAPTURED) == "tests/test_profile.py::test_bad[a b]"
    collection = "=== short test summary info ===\nERROR tests/test_b.py\n1 error in 1.46s\n"
    assert TOOL.killer(collection) == "no test named: tests/test_b.py did not collect"
    assert TOOL.killer("Fatal Python error: Segmentation fault\nFAILED not a summary\n") is None
