"""Shared builders for test fixtures, and the loader of the repo's tools."""

import importlib.util
from pathlib import Path

from prefixnorm import Alphabet, MonoidKind, WeightMeasure, Word

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_module(name, path=None):
    """Import the file ``path`` as a module named ``name``; by default the tool ``tools/<name>.py``."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py" if path is None else path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

ABC = Alphabet(("a", "b", "c"))
ANB = Alphabet(("a", "n", "b"))
ANX = Alphabet(("a", "n", "x"))
ANCB = Alphabet(("a", "n", "c", "b"))
ANBX = Alphabet(("a", "n", "b", "x"))
BITS = Alphabet(("0", "1"))


def sum_measure(alphabet, *weights):
    return WeightMeasure(alphabet, MonoidKind.NAT_SUM, weights)


def product_measure(alphabet, *weights):
    return WeightMeasure(alphabet, MonoidKind.NAT_PRODUCT, weights)


def vec_measure(alphabet, *weights):
    return WeightMeasure(alphabet, MonoidKind.VEC2_LEX, weights)


def w(alphabet, text):
    return Word.parse(alphabet, text)


def words(items):
    return sorted(str(item) for item in items)


VEC_FIXTURE = vec_measure(ABC, (0, 2), (1, 1), (2, 0))
