"""Seeded inputs and per-round call schedules for the three workloads.

Every input is generated here from the workload seed; ``prefixnorm`` only
receives the finished measures, words and argument lists.  A round is a
fixed list of top-level calls (``verify-sweeps`` changes only the sweep
seed between rounds), so a run's percentiles never depend on which calls
the clock happened to cut off.  See README.md for why each workload exists
and which input properties it covers.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Callable

import checks
from prefixnorm import Alphabet, MonoidKind, WeightMeasure, Word
from prefixnorm import cli, measure, normalform, oracle, profile

MODULES = {
    "cli": cli,
    "measure": measure,
    "normalform": normalform,
    "oracle": oracle,
    "profile": profile,
}


@dataclass
class Call:
    """One top-level call: ``func`` names ``<module>.<attribute>`` in prefixnorm.

    The function is looked up when the call runs, so a traced run reaches
    the wrapped version.  ``prepare`` builds the arguments outside the
    timed region; ``check`` returns ``None`` or the reason the output is
    wrong.  ``label`` groups calls for reporting (the suite of a sweep);
    ``count`` reads the work an output reports (the cases of a sweep).
    """

    func: str
    prepare: Callable[[], tuple]
    check: Callable[[object], str | None]
    label: str = ""
    adapter: Callable | None = None
    count: Callable[[object], int] | None = None

    def resolve(self) -> Callable:
        module, attribute = self.func.split(".")
        target = getattr(MODULES[module], attribute)
        if self.adapter is None:
            return target
        return lambda *args: self.adapter(target, *args)


@dataclass(frozen=True)
class MeasureSpec:
    kind: str
    payloads: tuple
    letters: str

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(tuple(self.letters))

    def fresh(self) -> WeightMeasure:
        # A new instance per call leaves WeightMeasure.projected cold, as it
        # is for every user who builds a measure and asks one question.
        return WeightMeasure.from_payloads(self.alphabet, MonoidKind(self.kind), self.payloads)

    @property
    def groups(self) -> list[tuple[int, ...]]:
        out: dict = {}
        for position, payload in enumerate(self.payloads):
            out.setdefault(payload, []).append(position)
        return [tuple(group) for group in out.values()]


@dataclass
class Workload:
    round: Callable[[int], list[Call]]
    # Each call runs at least this often; its latency is its fastest run.
    min_rounds: int
    # Input properties for the report, computed only when asked for.
    describe: Callable[[], dict] = dict


class _References:
    """Reference profiles, built on first use outside the timed region."""

    def __init__(self):
        self._cache: dict = {}

    def get(self, spec: MeasureSpec, indices: tuple[int, ...]) -> checks.Reference:
        key = (spec, indices)
        ref = self._cache.get(key)
        if ref is None:
            exact = not (spec.kind == checks.NAT_PRODUCT and len(indices) > 64)
            ref = checks.Reference(spec.kind, spec.payloads, indices, exact_products=exact)
            self._cache[key] = ref
        return ref


def _prefix_normal_word(rng: random.Random, spec: MeasureSpec, n: int) -> tuple[int, ...]:
    """A random multiset in non-increasing weight order.

    Every prefix of such a word holds its heaviest letters, so it is prefix
    normal.  Equal-weight letters keep their random order.
    """
    letters = [rng.randrange(len(spec.payloads)) for _ in range(n)]
    return tuple(sorted(letters, key=lambda i: spec.payloads[i], reverse=True))


def _random_word(rng: random.Random, size: int, n: int) -> tuple[int, ...]:
    return tuple(rng.randrange(size) for _ in range(n))


# ---------------------------------------------------------------------------
# long-words


LONG_MEASURES = (
    MeasureSpec("nat-sum", (1, 2, 3, 4), "abcd"),
    MeasureSpec("nat-product", (2, 3, 5, 7), "abcd"),
    MeasureSpec("vec2-lex", ((0, 3), (1, 1), (1, 2), (2, 0)), "abcd"),
    MeasureSpec("nat-sum", (1, 2, 2, 3), "abcd"),
)
# Per measure, (length, words per round).  Each measure's words alternate
# between prefix normal and not, starting with prefix normal.  The 12 calls
# on product and vec2-lex n=2000 words are the slowest of the 202 calls of
# a round, so op_p95_ms falls inside them rather than between two groups.
LONG_SIZES = {
    "full": (
        ((250, 13), (1000, 1), (2000, 1)),
        ((250, 13), (1000, 1), (2000, 2)),
        ((250, 13), (1000, 1), (2000, 2)),
        ((250, 14), (1000, 1)),
    ),
    "tiny": (((20, 2), (40, 1)),) * 4,
}
CONDITION_SIZES = {"full": ((24, 2), (32, 2)), "tiny": ((8, 2),)}


def long_words(seed: int, scale: str = "full") -> Workload:
    rng = random.Random(seed)
    refs = _References()
    items = []  # (spec, indices, function name)
    pn_words = total_words = 0
    for spec, long_sizes in zip(LONG_MEASURES, LONG_SIZES[scale]):
        turn = True
        for sizes, funcs in (
            (long_sizes, ("weight_profile", "is_prefix_normal", "prefix_normal_form")),
            (CONDITION_SIZES[scale], ("normality_conditions",)),
        ):
            for n, count in sizes:
                for _ in range(count):
                    if turn:
                        indices = _prefix_normal_word(rng, spec, n)
                    else:
                        indices = _random_word(rng, len(spec.payloads), n)
                    pn_words += turn
                    total_words += 1
                    turn = not turn
                    items.extend((spec, indices, func) for func in funcs)
    words = {(spec, indices): Word(spec.alphabet, indices) for spec, indices, _ in items}

    def make(spec: MeasureSpec, indices: tuple[int, ...], func: str) -> Call:
        word = words[spec, indices]
        ref = lambda: refs.get(spec, indices)  # noqa: E731
        if func == "weight_profile":
            check = lambda out: checks.check_weight_profile(ref(), out)  # noqa: E731
        elif func == "is_prefix_normal":
            check = lambda out: checks.check_is_prefix_normal(ref(), out)  # noqa: E731
        elif func == "normality_conditions":
            check = lambda out: checks.check_normality_conditions(ref(), out)  # noqa: E731
        else:
            check = lambda out: checks.check_normal_form(ref(), out, spec.groups)  # noqa: E731
        module = "normalform" if func == "prefix_normal_form" else "profile"
        return Call(f"{module}.{func}", lambda: (spec.fresh(), word), check, label=spec.kind)

    schedule = [make(*item) for item in items]
    rng.shuffle(schedule)

    def describe() -> dict:
        sizes = [len(indices) for _, indices in words]
        return {
            "distinct_calls": len(items),
            "words": total_words,
            "length_histogram": {n: sizes.count(n) for n in sorted(set(sizes))},
            "prefix_normal_share": pn_words / total_words,
            "max_payload_bits": max(
                checks.word_weight(spec.kind, spec.payloads, indices).bit_length()
                for spec, indices in words
                if spec.kind == checks.NAT_PRODUCT
            ),
        }

    # Three rounds of n=2000 profiles already take about 25 s.
    return Workload(lambda r: schedule, 3, describe)


# ---------------------------------------------------------------------------
# enumerate


ENUM_MEASURES = (
    MeasureSpec("nat-sum", (1, 2, 3), "abc"),
    MeasureSpec("nat-sum", (1, 2, 2), "abc"),
    MeasureSpec("nat-product", (2, 3, 5), "abc"),
    MeasureSpec("vec2-lex", ((0, 2), (1, 1), (2, 0)), "abc"),
)
# Per measure and round: (length, equivalence classes, prefix-normal sets).
# A class scans all 3^n words, so its cost is set by n and the measure; a
# set call expands one normal form and is far cheaper.  The 100 n=7 classes
# hold the median of the round's 205 calls, and the 40 n=8 classes the 95th
# percentile: above them lie only the counts for n >= 13 and the n=9 and
# n=10 classes.
ENUM_SIZES = {
    "full": ((7, 25, 3), (8, 10, 3), (9, 0, 3), (10, 0, 3)),
    "tiny": ((4, 2, 1), (5, 1, 1)),
}
# Longer classes, on the sum (1,2,3) measure only.
ENUM_LONG_CLASSES = {"full": (9, 10), "tiny": (6,)}
BINARY_LENGTHS = {"full": range(10, 17), "tiny": range(4, 8)}
EQUIVALENCE_PAIRS = (
    (MeasureSpec("nat-sum", (2, 4, 6), "abc"), MeasureSpec("nat-product", (2, 6, 18), "abc"), True),
    (MeasureSpec("nat-sum", (1, 2, 3), "abc"), MeasureSpec("nat-product", (2, 3, 5), "abc"), False),
)
GAP_SEARCHES = (
    (MeasureSpec("vec2-lex", ((0, 2), (1, 1), (2, 0)), "abc"), False),
    (MeasureSpec("nat-product", (2, 3, 5), "abc"), True),
)
SEARCH_LEN = {"full": 7, "tiny": 5}
EQUIVALENCE_LEN = {"full": 7, "tiny": 5}


def enumerate_workload(seed: int, scale: str = "full") -> Workload:
    rng = random.Random(seed)
    refs = _References()
    schedule: list[Call] = []
    class_words: dict = {}  # (spec, n) -> words whose class is asked for
    expected: dict = {}  # (spec, n) -> {word: class}, scanned on first check

    def expected_class(spec: MeasureSpec, indices: tuple[int, ...]) -> frozenset:
        key = (spec, len(indices))
        if key not in expected:
            expected[key] = checks.expected_classes(spec.kind, spec.payloads, class_words[key])
        return expected[key][indices]

    def enumerator(spec: MeasureSpec, n: int, func: str) -> None:
        indices = _random_word(rng, len(spec.payloads), n)
        word = Word(spec.alphabet, indices)
        if func == "equivalence_class":
            class_words.setdefault((spec, n), []).append(indices)

            def check(out):
                return checks.check_class_members(expected_class(spec, indices), out)
        else:
            def check(out):
                return checks.check_prefix_normal_set(refs.get(spec, indices), out)
        schedule.append(Call(f"normalform.{func}", lambda: (spec.fresh(), word), check, spec.kind))

    for spec in ENUM_MEASURES:
        for n, classes, sets in ENUM_SIZES[scale]:
            for _ in range(classes):
                enumerator(spec, n, "equivalence_class")
            for _ in range(sets):
                enumerator(spec, n, "prefix_normal_set")
    for n in ENUM_LONG_CLASSES[scale]:
        enumerator(ENUM_MEASURES[0], n, "equivalence_class")

    for n in BINARY_LENGTHS[scale]:
        schedule.append(
            Call(
                "oracle.count_binary_prefix_normal",
                lambda n=n: (n,),
                lambda out, n=n: checks.check_binary_count(n, out),
                "count-binary",
            )
        )
    for first, second, expected_verdict in EQUIVALENCE_PAIRS:
        for _ in range(2):
            schedule.append(
                Call(
                    "measure.bounded_equivalence",
                    lambda a=first, b=second, n=EQUIVALENCE_LEN[scale]: (a.fresh(), b.fresh(), n),
                    lambda out, a=first, b=second, e=expected_verdict: checks.check_equivalence(
                        (a.kind, a.payloads), (b.kind, b.payloads), e, out
                    ),
                    "bounded-equivalence",
                )
            )
    length = SEARCH_LEN[scale]
    for spec, has_gap in GAP_SEARCHES:
        for search_len in (length - 1, length):
            schedule.append(
                Call(
                    "oracle.brute_gap_search",
                    lambda s=spec, m=search_len: (s.fresh(), m),
                    lambda out, s=spec, g=has_gap: checks.check_gap_search(
                        s.kind, s.payloads, g, out
                    ),
                    "brute-gap-search",
                )
            )
    rng.shuffle(schedule)
    return Workload(lambda r: schedule, 4, lambda: {"distinct_calls": len(schedule)})


# ---------------------------------------------------------------------------
# verify-sweeps


SWEEP_ARGS = {"full": (), "tiny": ("--max-len", "4", "--cases", "40")}
TINY_SUITES = ("exchange", "prime-gapful", "projection", "stepped-gapfree", "vector-gapfree")
# Sorted by cost, the suites are six cheap ones (projection the dearest of
# them at about 0.1 s) and six dearer ones (equivalence the cheapest at about
# 0.15 s), so the median of one sweep per suite lies between two suites.  A
# second projection sweep per round, on its own corpus, puts the median
# inside the projection sweeps.
TWICE_PER_ROUND = "projection"


def _run_cli(main, argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def _sweep_cases(out) -> int:
    parts = out[1].split(maxsplit=4)
    return int(parts[3]) if len(parts) > 3 and parts[3].isdigit() else 0


def verify_sweeps(seed: int, scale: str = "full") -> Workload:
    suites = oracle.suite_names() if scale == "full" else TINY_SUITES
    extra = SWEEP_ARGS[scale]
    rng = random.Random(seed)
    rounds: list[list[Call]] = []

    def prepare(argv):
        # Every `prefixnorm verify` is a fresh process, so users never find
        # the corpus cache warm: clear it before each sweep.
        oracle.corpus_measures.cache_clear()
        return (argv,)

    def round_calls(r: int) -> list[Call]:
        # Round 0 sweeps with the workload seed, later rounds with seeds drawn
        # from it: sweep cost depends on the seeded corpus, and a run that
        # averages several corpora varies less from seed to seed.
        while len(rounds) <= r:
            sweep_seed = seed if not rounds else rng.randrange(1, 2**31)
            sweeps = [(suite, sweep_seed) for suite in suites]
            sweeps.append((TWICE_PER_ROUND, rng.randrange(1, 2**31)))
            calls = [
                Call(
                    "cli.main",
                    lambda argv=["verify", suite, "--seed", str(suite_seed), "--format",
                                 "lines", *extra]: prepare(argv),
                    lambda out: checks.check_sweep(*out),
                    suite,
                    adapter=_run_cli,
                    count=_sweep_cases,
                )
                for suite, suite_seed in sweeps
            ]
            rng.shuffle(calls)
            rounds.append(calls)
        return rounds[r]

    return Workload(round_calls, 6, lambda: {"suites": len(suites)})


BY_NAME = {
    "long-words": long_words,
    "enumerate": enumerate_workload,
    "verify-sweeps": verify_sweeps,
}


def build(name: str, seed: int, scale: str = "full") -> Workload:
    return BY_NAME[name](seed, scale)

