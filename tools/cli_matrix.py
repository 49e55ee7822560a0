"""Run a fixed matrix of ``prefixnorm`` commands in process and digest each answer.

Every command goes through ``prefixnorm.cli.main`` with stdout and stderr
captured.  Its digest is the SHA-256 of its stdout, its stderr and its exit
code.  The tool prints one line per command, ``<digest>  <argv>``, and last
one digest over all of them, so two checkouts whose totals agree answer the
matrix byte for byte alike.  The matrix:

- ``verify`` on every suite at seeds 271828, 5 and 99, ``--format lines``;
- on six measure specs (nat-sum (1,2,3), tied (1,2,2) and gapful (1,2,4);
  nat-product (2,3,5) and tied (2,3,3); vec2-lex (0,2),(1,1),(2,0)):
  ``classify`` in both formats; ``pnf`` and ``weights`` in both formats,
  ``class`` and ``pnset`` on every word of 0 to 5 letters over ``a b c``,
  40 seeded words each of 6 and 7 letters and one word with a foreign
  letter; ``count-pn`` at n = -1, 0, 4, 11 and 40;
- ``count-pn`` on a missing spec file, ``count-binary-pn`` at n = -1, 0, 3,
  16, 17 and 40, and two commands that ``argparse`` or the suite lookup
  refuse;
- ``class`` and ``pnset`` with ``--limit 1`` on each of the six specs;
- ``verify exchange --max-len 3`` and ``verify vector-gapfree --cases 5``,
  sizes those suites do not declare;
- ``classify`` and ``count-pn`` on a spec with an unknown monoid and on one
  with a weight that is not a number, and ``count-pn`` at n = 4 301 on ten
  letters of one weight, a count of 4 302 digits, past Python's default
  ``int`` -> ``str`` limit.

The specs are written to a temporary directory; its path reads ``SPECS`` in
the digested output and in the printed commands.

Usage: ``PYTHONPATH=src python3 tools/cli_matrix.py``.  Point ``PYTHONPATH``
at another checkout's ``src`` to digest that checkout.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from prefixnorm import cli
from prefixnorm.oracle import suite_names

SPECS = {
    "sum-123": ("nat-sum", "1 2 3"),
    "sum-122": ("nat-sum", "1 2 2"),
    "sum-124": ("nat-sum", "1 2 4"),
    "product-235": ("nat-product", "2 3 5"),
    "product-233": ("nat-product", "2 3 3"),
    "vec2": ("vec2-lex", "(0,2) (1,1) (2,0)"),
}
# Specs read by a few commands only: (monoid, letters, weights).
ODD_SPECS = {
    "bad-monoid": ("nat-summ", "a b c", "1 2 3"),
    "bad-weight": ("nat-sum", "a b c", "1 x 3"),
    "one-class": ("nat-sum", "a b c d e f g h i j", " ".join(["1"] * 10)),
}
SEEDS = (271828, 5, 99)
PLACEHOLDER = "SPECS"


def write_specs(spec_dir) -> dict[str, str]:
    """Write every spec into ``spec_dir``; returns each spec's path by name."""
    paths = {}
    specs = {name: (monoid, "a b c", weights) for name, (monoid, weights) in SPECS.items()}
    for name, (monoid, letters, weights) in {**specs, **ODD_SPECS}.items():
        path = Path(spec_dir) / f"{name}.measure"
        path.write_text(f"monoid = {monoid}\nletters = {letters}\nweights = {weights}\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


def _words() -> list[str]:
    rng = random.Random(2718)
    short = ["".join(letters) for n in range(6) for letters in itertools.product("abc", repeat=n)]
    long = ["".join(rng.choices("abc", k=n)) for n in (6, 7) for _ in range(40)]
    return short + long + ["abd"]


def commands(spec_dir) -> list[list[str]]:
    """The whole matrix, with the specs written into ``spec_dir``."""
    paths = write_specs(spec_dir)
    formats = (["--format", "text"], ["--format", "lines"])
    argvs = [["verify", suite, "--seed", str(seed), "--format", "lines"] for suite in suite_names() for seed in SEEDS]
    for path in (paths[name] for name in SPECS):
        argvs += [["classify", path, *fmt] for fmt in formats]
        for word in _words():
            argvs += [[command, path, word, *fmt] for command in ("pnf", "weights") for fmt in formats]
            argvs += [["class", path, word], ["pnset", path, word]]
        argvs += [["count-pn", path, str(n)] for n in (-1, 0, 4, 11, 40)]
    argvs.append(["count-pn", str(Path(spec_dir) / "missing.measure"), "3"])
    argvs += [["count-binary-pn", str(n)] for n in (-1, 0, 3, 16, 17, 40)]
    argvs += [["pnf", paths["sum-123"]], ["verify", "no-such-suite"]]
    argvs += [[command, paths[name], "abcab", "--limit", "1"] for name in SPECS for command in ("class", "pnset")]
    argvs += [["verify", "exchange", "--max-len", "3"], ["verify", "vector-gapfree", "--cases", "5"]]
    for name in ("bad-monoid", "bad-weight"):
        argvs += [["classify", paths[name]], ["count-pn", paths[name], "3"]]
    argvs.append(["count-pn", paths["one-class"], "4301"])
    return argvs


def run(argv) -> tuple[str, str, object]:
    """Stdout, stderr and exit code of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    return out.getvalue(), err.getvalue(), code


def digests(argvs, spec_dir) -> list[str]:
    """One SHA-256 per command of its stdout, stderr and exit code."""
    found = []
    for argv in argvs:
        out, err, code = run(argv)
        answer = "\0".join((out, err, str(code))).replace(str(spec_dir), PLACEHOLDER)
        found.append(hashlib.sha256(answer.encode("utf-8")).hexdigest())
    return found


def total(found) -> str:
    return hashlib.sha256("\n".join(found).encode("ascii")).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as spec_dir:
        argvs = commands(spec_dir)
        found = digests(argvs, spec_dir)
    for argv, digest in zip(argvs, found):
        print(f"{digest}  {' '.join(argv).replace(spec_dir, PLACEHOLDER)}")
    print(f"{total(found)}  total of {len(found)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
