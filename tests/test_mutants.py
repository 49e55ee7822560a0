import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("mutants", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _load_tool()


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
