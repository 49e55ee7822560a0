"""Run the tests against named source edits (mutants), one at a time, and report which they catch.

Each mutant is one exact edit: a file of the repo, an anchor that occurs
exactly once in it, and the text that replaces the anchor.  A mutant
marked equivalent carries the one-line reason why no test can see it.
The tool exports the working tree's tracked files, staged new files
included, with ``git archive`` into a temporary directory, then for each mutant applies its edit, runs pytest with ``-x``
under a timeout, and restores the file.  It prints one line per mutant:

- ``killed``: a test failed (or the tests could not run);
- ``hang``: the run passed the timeout, a loop that no longer ends;
- ``survived``: every test passed, so no test sees the edit.

and last a total.  Every run deselects the anchor test of
``tests/test_mutants.py``, which checks, without running a mutant, that
each anchor occurs exactly once: a mutated file no longer holds its
anchor, so that test would kill every mutant.  The tests must first pass
on the tree as exported, or it runs no mutant and exits 2.  It exits 1
when a mutant not marked equivalent survived.

Usage: ``python3 tools/mutants.py [NAME ...] [--tests PATH ...] [--timeout S]
[--list]``.  ``--tests`` names a test subset (pytest paths or node ids);
the default is the whole suite.  Byte-compiled files are not written, so a restored file is never read from a mutant's cache.
"""

from __future__ import annotations

import argparse
import io
import os
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repo root
    anchor: str
    replacement: str
    equivalent: str = ""  # why no test can see it, for a mutant that only changes speed


PROFILE = "src/prefixnorm/profile.py"
MUTANTS = (
    # The packed rows keep only the live windows.
    Mutant(
        "packed-rows-keep-every-field",
        PROFILE,
        "        if n - k < cut:  # drop the fields above the live windows\n",
        "        if False:\n",
    ),
    Mutant(
        "packed-rows-one-field-short",
        PROFILE,
        "            kept = n - k\n",
        "            kept = n - k - 1\n",
    ),
    Mutant(  # only slower: sorted product words then build the count digits
        "one-run-mask-of-every-field",
        PROFILE,
        "guards >> width * (kept - end + start)",
        "guards >> width * (n - end + start)",
    ),
    # Boundaries that no test reached before.
    Mutant(
        "window-products-extend-other-sizes",
        "src/prefixnorm/monoid.py",
        "if size == length + 1 and was - 1 <= start <= was:",
        "if size != length + 1 and was - 1 <= start <= was:",
    ),
    Mutant(
        "prefix-normal-set-refuses-limit-one",
        "src/prefixnorm/normalform.py",
        '    if limit < 1:\n        raise ValueError("limit must be at least 1")\n    result = ',
        '    if limit <= 1:\n        raise ValueError("limit must be at least 1")\n    result = ',
    ),
    Mutant(
        "equivalence-class-refuses-limit-one",
        "src/prefixnorm/normalform.py",
        '    if limit < 1:\n        raise ValueError("limit must be at least 1")\n    measure.check_word(word)\n',
        '    if limit <= 1:\n        raise ValueError("limit must be at least 1")\n    measure.check_word(word)\n',
    ),
    Mutant(
        "prime-test-answers-at-its-bound",
        "src/prefixnorm/measure.py",
        "    if n >= _PRIME_EXACT_BELOW:\n",
        "    if n > _PRIME_EXACT_BELOW:\n",
    ),
    # Edits that earlier changes claimed a test catches.
    Mutant(
        "certificate-band-keeps-shorter-suffixes",
        PROFILE,
        "            band &= (1 << real) - 1\n",
        "            pass\n",
    ),
    Mutant(
        "walk-due-test-reads-one-target-short",
        "src/prefixnorm/normalform.py",
        "spans = [(target[i], lighter[left - i], spread[i])",
        "spans = [(target[i - 1], lighter[left - i], spread[i])",
    ),
    # The class walk's budget cut.
    Mutant(
        "walk-cap-takes-one-letter-too-many",
        "src/prefixnorm/normalform.py",
        "(target[i], lighter[left - i], spread[i])",
        "(target[i], lighter[left - i + 1], spread[i])",
    ),
    Mutant(
        "walk-drops-the-divisibility-cut",
        "src/prefixnorm/normalform.py",
        "                if rest:\n                    continue\n",
        "",
    ),
    Mutant(
        "walk-due-mask-only-above-left",
        "src/prefixnorm/normalform.py",
        "            due = hit & due_mask\n",
        "            due = (hit | guards[length - depth]) & due_mask\n",
    ),
    Mutant(
        "running-kernel-seeded-with-the-identity",
        "src/prefixnorm/oracle.py",
        "    best = prefix.copy()\n    for start in range(1, len(indices)):\n",
        "    best = [ident] * len(prefix)\n    for start in range(len(indices)):\n",
    ),
    Mutant(
        "gap-search-caches-successors-by-position",
        "src/prefixnorm/oracle.py",
        "            successors = steps.get(prev)\n"
        "            if successors is None:\n"
        "                successors = steps[prev] = ",
        "            successors = steps.get(i)\n"
        "            if successors is None:\n"
        "                successors = steps[i] = ",
    ),
    # The packed rows' guard tests: skipped at best + e == guard, they would find no hit there.
    Mutant(
        "packed-test-runs-at-the-guard",
        PROFILE,
        "if best + e < guard else 0",
        "if best + e <= guard else 0",
        equivalent="at best + e == guard each field less e is its window's weight, below the guard: no hit",
    ),
    Mutant(
        "packed-repeat-test-runs-at-the-guard",
        PROFILE,
        "        if best + step < guard:\n",
        "        if best + step <= guard:\n",
        equivalent="at best + step == guard each field less step is its window's weight: no hit, so settle runs",
    ),
    # The scan's rows: each word's from its head's and its tail's.
    Mutant(
        "scan-row-from-the-head-alone",
        "src/prefixnorm/oracle.py",
        "                f = [*map(max, head, tail()), total]\n",
        "                f = [*head, total]\n",
    ),
    Mutant(
        "scan-reads-the-tail-one-word-over",
        "src/prefixnorm/oracle.py",
        "itertools.repeat(heads, size)",
        "itertools.repeat(heads[1:] + heads[:1], size)",
    ),
    # The field readers: with one-byte fields, field 0's top byte is byte 0.
    Mutant(
        "heaviest-skips-a-one-byte-field-zero",
        PROFILE,
        "    end = guards.find(0x80)  # the top byte of a field\n    while end >= 0:\n",
        "    end = guards.find(0x80)  # the top byte of a field\n    while end > 0:\n",
    ),
    Mutant(
        "exact-max-skips-a-one-byte-field-zero",
        PROFILE,
        "    end = marks.find(0x80)  # the top byte of a marked field\n    while end >= 0:\n",
        "    end = marks.find(0x80)  # the top byte of a marked field\n    while end > 0:\n",
        equivalent="the log view takes 160 or more letters, so its fields hold slack * n >= 160 in 2 or more bytes",
    ),
    # The verify driver and its size rule.
    Mutant(
        "sweep-stops-one-case-late",
        "src/prefixnorm/oracle.py",
        "        if count >= stop:\n",
        "        if count > stop:\n",
    ),
    Mutant(
        "gap-decision-searches-below-four-letters",
        "src/prefixnorm/oracle.py",
        '{"max_len": (6, 4)}',
        '{"max_len": (6, 1)}',
    ),
    Mutant(
        "size-rule-skips-undeclared-sizes",
        "src/prefixnorm/oracle.py",
        "    for name, value in sorted(params.items()):\n",
        "    for name, value in sorted(p for p in params.items() if p[0] in record.sizes):\n",
    ),
    # Flipped comparisons that no test can see.
    Mutant(
        "find-gap-decides-two-weights-by-triples",
        "src/prefixnorm/measure.py",
        "    if len(distinct) <= 2:\n",
        "    if len(distinct) < 2:\n",
        equivalent="with two distinct weights, combinations(distinct, 3) is empty, so no triple finds a gap",
    ),
    Mutant(
        "expansion-counts-one-letter-classes",
        "src/prefixnorm/normalform.py",
        "if size > 1]",
        "if size >= 1]",
        equivalent="a one-letter class multiplies each count by 1 ** count",
    ),
    Mutant(
        "conditions-replace-an-equal-shortest-size",
        PROFILE,
        "size < known",
        "size <= known",
        equivalent="replacing a shortest size by an equal one keeps the same minimum",
    ),
    # Once lo + 1 == hi, mid == lo, so the bisection makes no progress.
    Mutant(
        "settle-bisects-without-end",
        PROFILE,
        "        while lo + 1 < hi and hit.bit_count() > _FEW_WINDOWS:\n",
        "        while lo < hi and hit.bit_count() > _FEW_WINDOWS:\n",
    ),
    Mutant(
        "cyclic-criterion-drops-its-longest-window",
        "tests/test_profile.py",
        "for r in range(1, n) for i in range(n))",
        "for r in range(1, n - 1) for i in range(n))",
    ),
)


def apply(text: str, mutant: Mutant) -> str:
    """``text`` with the mutant's anchor replaced; refuses an anchor that is not there exactly once."""
    count = text.count(mutant.anchor)
    if count != 1:
        raise ValueError(f"{mutant.name}: anchor occurs {count} times in {mutant.path}")
    return text.replace(mutant.anchor, mutant.replacement)


def _export(into: Path) -> None:
    """Extract the working tree's tracked files with ``git archive``."""
    # ``git stash create`` commits the working tree and index without
    # touching them, and prints nothing when both are clean.
    made = subprocess.run(["git", "stash", "create"], cwd=ROOT, capture_output=True, text=True, check=True)
    tar = subprocess.run(["git", "archive", made.stdout.strip() or "HEAD"], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        # The extraction filters arrived in 3.10.12 and 3.11.4; before them
        # ``filter`` is an unknown keyword.
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)


# Reads each anchor from the tree under test, so it fails under every mutant.
ANCHOR_TEST = "tests/test_mutants.py::test_every_mutant_anchor_occurs_exactly_once"


def _run(tree: Path, tests: list[str], timeout: float) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--deselect", ANCHOR_TEST, *tests]
    child = subprocess.Popen(
        command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
    )
    try:
        return "survived" if child.wait(timeout) == 0 else "killed"
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return "hang"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--tests", nargs="+", default=[], help="pytest paths or node ids (default: all tests)")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant (default: 300)")
    parser.add_argument("--list", action="store_true", help="print the mutants' names and stop")
    args = parser.parse_args(argv)
    known = {mutant.name: mutant for mutant in MUTANTS}
    if args.list:
        print("\n".join(known))
        return 0
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] if args.names else list(MUTANTS)
    totals = {"killed": 0, "hang": 0, "survived": 0}
    missed = 0
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        _export(tree)
        if _run(tree, args.tests, args.timeout) != "survived":
            print("the tests do not pass without a mutant; nothing to compare")
            return 2
        for mutant in chosen:
            path = tree / mutant.path
            original = path.read_text(encoding="utf-8")
            path.write_text(apply(original, mutant), encoding="utf-8")
            try:
                outcome = _run(tree, args.tests, args.timeout)
            finally:
                path.write_text(original, encoding="utf-8")
            totals[outcome] += 1
            note = ""
            if outcome == "survived":
                note = f"  (equivalent: {mutant.equivalent})" if mutant.equivalent else "  (no test sees it)"
                missed += not mutant.equivalent
            print(f"{outcome:8s}  {mutant.name}{note}", flush=True)
    print(f"{len(chosen)} mutants: " + ", ".join(f"{count} {outcome}" for outcome, count in totals.items()))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
