"""Command-line front end over measure spec files.

Exit codes: 0 success, 1 domain error (capacity or range), 2 usage or
parse error.  Results go to stdout, error messages to stderr.  Output is
byte-deterministic for fixed inputs and seed; ``--format lines`` switches
to the machine-readable layout.
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


def _load(args):
    return load_measure(args.measure)


def _word(measure, text: str) -> Word:
    return Word.parse(measure.alphabet, text)


def _print_words(words) -> None:
    for word in sorted(words, key=lambda w: w.indices):
        print(word)


def _cmd_classify(args) -> int:
    measure = _load(args)
    flags = classify(measure)
    yn = {True: "yes", False: "no"}
    if args.format == "lines":
        rows = [
            ("injective", str(flags.injective).lower()),
            ("alphabetically-ordered", str(flags.alphabetically_ordered).lower()),
            ("binary", str(flags.binary).lower()),
            ("unary", str(flags.unary).lower()),
            ("prime", str(flags.prime).lower()),
            ("stepped", str(flags.stepped) if flags.stepped is not None else "none"),
            ("gapfree", str(flags.gapfree).lower()),
        ]
        if flags.gap_witness is not None:
            rows.append(("gap-witness", f"{flags.gap_witness.word} {flags.gap_witness.index}"))
        for key, value in rows:
            print(f"{key} {value}")
        return EXIT_OK
    print(f"letters: {' '.join(measure.alphabet.letters)}")
    print(f"monoid: {measure.kind.value}")
    print(f"base weights: {format_weights(measure)}")
    print(f"injective: {yn[flags.injective]}")
    print(f"alphabetically ordered: {yn[flags.alphabetically_ordered]}")
    print(f"binary: {yn[flags.binary]}")
    print(f"unary: {yn[flags.unary]}")
    print(f"prime: {yn[flags.prime]}")
    if flags.stepped is not None:
        print(f"stepped: yes (step {flags.stepped})")
    else:
        print("stepped: no")
    print(f"gapfree: {yn[flags.gapfree]}")
    if flags.gap_witness is not None:
        print(f"gap witness: {flags.gap_witness.word} at index {flags.gap_witness.index}")
    return EXIT_OK


def _cmd_weights(args) -> int:
    measure = _load(args)
    word = _word(measure, args.word)
    profile = weight_profile(measure, word)
    header = [str(i) for i in range(1, len(word) + 1)]
    p_row = [str(v) for v in profile.prefix[1:]]
    f_row = [str(v) for v in profile.factor_max[1:]]
    if args.format == "lines":
        print("i " + " ".join(header))
        print("p " + " ".join(p_row))
        print("f " + " ".join(f_row))
        return EXIT_OK
    widths = [max(len(a), len(b), len(c)) for a, b, c in zip(header, p_row, f_row)]
    for label, row in (("i", header), ("p", p_row), ("f", f_row)):
        cells = "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        print(f"{label} | {cells}" if cells else f"{label} |")
    return EXIT_OK


def _parikh_text(word) -> str:
    return " ".join(
        f"{letter}={count}" for letter, count in zip(word.alphabet.letters, parikh(word))
    )


def _cmd_pnf(args) -> int:
    measure = _load(args)
    word = _word(measure, args.word)
    result = prefix_normal_form(measure, word)
    if isinstance(result, UniqueNormalForm):
        if args.format == "lines":
            print(f"unique {result.word}")
        else:
            print(f"prefix normal form: {result.word}")
            print(f"parikh in : {_parikh_text(word)}")
            print(f"parikh out: {_parikh_text(result.word)}")
    elif isinstance(result, MultipleNormalForms):
        if args.format == "lines":
            print(f"multiple {result.projected} {result.count}")
        else:
            print(f"projected prefix normal form: {result.projected}")
            print(f"count: {result.count}")
            print(f"parikh in : {_parikh_text(word)}")
    else:
        assert isinstance(result, NoNormalForm)
        if args.format == "lines":
            print(f"gap {result.gap_word} {result.gap_index}")
        else:
            print(
                f"no prefix normal form: gap at index {result.gap_index} of {result.gap_word}"
            )
    return EXIT_OK


def _cmd_class(args) -> int:
    measure = _load(args)
    word = _word(measure, args.word)
    _print_words(equivalence_class(measure, word, limit=args.limit))
    return EXIT_OK


def _cmd_pnset(args) -> int:
    measure = _load(args)
    word = _word(measure, args.word)
    _print_words(prefix_normal_set(measure, word, limit=args.limit))
    return EXIT_OK


def _cmd_verify(args) -> int:
    seed = args.seed
    if seed is None:
        value = os.environ.get(SEED_ENV_VAR, DEFAULT_SEED)
        try:
            seed = int(value)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {value!r}") from None
    report = run_suite(args.suite, seed=seed, max_len=args.max_len, cases=args.cases)
    print(report.render(args.format))
    return EXIT_OK if report.passed else EXIT_DOMAIN


def _cmd_count_pn(args) -> int:
    print(count_prefix_normal_words(_load(args), args.n))
    return EXIT_OK


def _cmd_count_binary_pn(args) -> int:
    print(count_binary_prefix_normal(args.n))
    return EXIT_OK


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
    p.set_defaults(func=_cmd_class)

    p = sub.add_parser("pnset", help="all prefix-normal words in the word's class")
    p.add_argument("measure")
    p.add_argument("word")
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    p.set_defaults(func=_cmd_pnset)

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
    p.set_defaults(func=_cmd_count_pn)

    p = sub.add_parser("count-binary-pn", help="count binary prefix-normal words of length n")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_count_binary_pn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _any_int_digits():
            return args.func(args)
    except (OutOfRange, CapacityExceeded) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
