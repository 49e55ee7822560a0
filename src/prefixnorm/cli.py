"""Command-line front end over measure spec files.

Exit codes: 0 success, 1 domain error (capacity or range), 2 usage or
parse error.  Results go to stdout, error messages to stderr.  Output is
byte-deterministic for fixed inputs and seed; ``--format lines`` switches
to the machine-readable layout.

Each command's handler returns its answer, the lines to print and the exit
status.  ``main`` is the one path in and out: it reads a command's measure
and word, prints its answer or its error, and returns the status.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from .errors import DEFAULT_LIMIT, CapacityExceeded, OutOfRange
from .measure import Word, classify, format_weights, load_measure, parikh
from .normalform import (
    MultipleNormalForms,
    NoNormalForm,
    UniqueNormalForm,
    count_prefix_normal_words,
    equivalence_class,
    prefix_normal_form,
    prefix_normal_set,
)
from .oracle import DEFAULT_SEED, count_binary_prefix_normal, run_suite, suite_names
from .profile import weight_profile

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

SEED_ENV_VAR = "PREFIXNORM_SEED"

# What a command answers: the lines ``main`` prints, and the exit status.
Answer = tuple[list[str], int]


def _cmd_classify(args, measure) -> Answer:
    flags = classify(measure)
    step, gap = flags.stepped, flags.gap_witness

    def flag(key, value):
        return key, str(value).lower(), "yes" if value else "no"

    # (key, lines value, text value); the text spells the key with spaces.
    rows = [
        flag("injective", flags.injective),
        flag("alphabetically-ordered", flags.alphabetically_ordered),
        flag("binary", flags.binary),
        flag("unary", flags.unary),
        flag("prime", flags.prime),
        ("stepped", "none", "no") if step is None else ("stepped", str(step), f"yes (step {step})"),
        flag("gapfree", flags.gapfree),
    ]
    if gap is not None:
        rows.append(("gap-witness", f"{gap.word} {gap.index}", f"{gap.word} at index {gap.index}"))
    if args.format == "lines":
        return [f"{key} {value}" for key, value, _ in rows], EXIT_OK
    head = [
        f"letters: {' '.join(measure.alphabet.letters)}",
        f"monoid: {measure.kind.value}",
        f"base weights: {format_weights(measure)}",
    ]
    return head + [f"{key.replace('-', ' ')}: {value}" for key, _, value in rows], EXIT_OK


def _cmd_weights(args, measure, word) -> Answer:
    profile = weight_profile(measure, word)
    header = [str(i) for i in range(1, len(word) + 1)]
    p_row = [str(v) for v in profile.prefix[1:]]
    f_row = [str(v) for v in profile.factor_max[1:]]
    table = (("i", header), ("p", p_row), ("f", f_row))
    if args.format == "lines":
        return [f"{label} {' '.join(row)}" for label, row in table], EXIT_OK
    widths = [max(len(a), len(b), len(c)) for a, b, c in zip(header, p_row, f_row)]
    lines = []
    for label, row in table:
        cells = "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        lines.append(f"{label} | {cells}" if cells else f"{label} |")
    return lines, EXIT_OK


def _parikh_text(word) -> str:
    return " ".join(
        f"{letter}={count}" for letter, count in zip(word.alphabet.letters, parikh(word))
    )


def _cmd_pnf(args, measure, word) -> Answer:
    result = prefix_normal_form(measure, word)
    parikh_in = f"parikh in : {_parikh_text(word)}"
    if isinstance(result, UniqueNormalForm):
        record = f"unique {result.word}"
        text = [f"prefix normal form: {result.word}", parikh_in, f"parikh out: {_parikh_text(result.word)}"]
    elif isinstance(result, MultipleNormalForms):
        record = f"multiple {result.projected} {result.count}"
        text = [f"projected prefix normal form: {result.projected}", f"count: {result.count}", parikh_in]
    else:
        assert isinstance(result, NoNormalForm)
        record = f"gap {result.gap_word} {result.gap_index}"
        text = [f"no prefix normal form: gap at index {result.gap_index} of {result.gap_word}"]
    return [record] if args.format == "lines" else text, EXIT_OK


def _cmd_members(args, measure, word) -> Answer:
    members = sorted(args.members(measure, word, limit=args.limit), key=lambda w: w.indices)
    return [str(member) for member in members], EXIT_OK


def _cmd_verify(args) -> Answer:
    seed = args.seed
    if seed is None:
        value = os.environ.get(SEED_ENV_VAR, DEFAULT_SEED)
        try:
            seed = int(value)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {value!r}") from None
    report = run_suite(args.suite, seed=seed, max_len=args.max_len, cases=args.cases)
    return [report.render(args.format)], EXIT_OK if report.passed else EXIT_DOMAIN


def _cmd_count(args, **inputs) -> Answer:
    return [str(args.counter(**inputs, n=args.n))], EXIT_OK


@contextmanager
def _any_int_digits():
    """Lift Python's ``int`` -> ``str`` digit limit, so exact counts print at any size.

    The limit exists from Python 3.10.7 on; it is restored on exit, as
    ``main`` also runs in-process.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(digits)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefixnorm",
        description="Weighted prefix normality over finite alphabets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("text", "lines"),
            default="text",
            help="text for humans, lines for machines",
        )

    p = sub.add_parser("classify", help="classify a measure, gap witness included")
    p.add_argument("measure", help="measure spec file")
    add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("weights", help="print the prefix/factor weight table of a word")
    p.add_argument("measure")
    p.add_argument("word")
    add_format(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("pnf", help="prefix normal form of a word")
    p.add_argument("measure")
    p.add_argument("word")
    add_format(p)
    p.set_defaults(func=_cmd_pnf)

    p = sub.add_parser("class", help="factor-weight equivalence class of a word")
    p.add_argument("measure")
    p.add_argument("word")
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    p.set_defaults(func=_cmd_members, members=equivalence_class)

    p = sub.add_parser("pnset", help="all prefix-normal words in the word's class")
    p.add_argument("measure")
    p.add_argument("word")
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    p.set_defaults(func=_cmd_members, members=prefix_normal_set)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("suite", help=f"one of: {', '.join(suite_names())}")
    p.add_argument("--seed", type=int, default=None, help=f"default ${SEED_ENV_VAR} or {DEFAULT_SEED}")
    p.add_argument("--max-len", type=int, default=None, dest="max_len")
    p.add_argument("--cases", type=int, default=None)
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count-pn", help="count prefix-normal words of length n under a measure")
    p.add_argument("measure")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_count, counter=count_prefix_normal_words)

    p = sub.add_parser("count-binary-pn", help="count binary prefix-normal words of length n")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_count, counter=count_binary_prefix_normal)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _any_int_digits():
            # The parser's declarations say which command reads which input.
            inputs = {}
            if "measure" in args:
                inputs["measure"] = load_measure(args.measure)
            if "word" in args:
                inputs["word"] = Word.parse(inputs["measure"].alphabet, args.word)
            lines, status = args.func(args, **inputs)
            for line in lines:
                print(line)
            return status
    except (OutOfRange, CapacityExceeded) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
