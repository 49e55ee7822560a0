"""Definition-level brute-force oracles and theorem sweep suites.

Everything here recomputes derived quantities straight from their
definitions (full word enumeration, window scans) so the fast paths in the
other modules can be checked against an independent route.  ``_scan`` is
the one definitional word scan, kept apart from the fast profile kernels.
It visits every word of every length it is asked for, and builds each
word's factor maxima from the rows of the word's head w[:-1] and tail
w[1:], one length shorter: each window shorter than the word lies in one
of them.  That takes one combine and one elementwise ``max`` per word.
Every maximum comes from a real window, so no carrier's identity is taken
for its minimum.  ``_running_rows``, a running combine from every start of
one word, is the per-word kernel the scan's rows equal.
``brute_gap_search`` tests every one-letter step at every position; it
combines each factor maximum with the letter weights once per call and
looks the next maximum up in that set, which is the same test.  Every full
scan of the |Σ|^n words of one length refuses up front, with
``CapacityExceeded``, when that count exceeds ``DEFAULT_LIMIT``: ``_scan``
when called, and the binary-reduction sweep, whose own scan checks the
fast kernel.  The binary count walks the trie, yet refuses n as if it
scanned all 2^n words.  ``_scan`` also refuses by its kernel cells, which
bounds a one-letter scan.

Every verify suite is one record, ``_Suite``: the sizes it declares, each
with its default and least value, a deterministic stream of cases
``cases(seed, **sizes)`` and a check of one case.  A case is the
arguments of its check, measures first (``equivalence``'s cases lead with
which of its three checks they need), and the check takes the run's
sizes after them as one mapping: ``check(*case, sizes) -> (count,
problems)``.  The one driver ``_sweep`` counts the cases, stops a stream
once it has counted the suite's ``cases``, and writes one replayable line
per problem, the case's measures joined by ``vs`` and then the problem:
``measure[…] | [word … |] problem`` for one measure,
``measure[…] vs measure[…] | problem`` for a pair.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from .errors import DEFAULT_LIMIT, refuse, refuse_power
from .measure import (
    Alphabet,
    Gap,
    Word,
    WeightMeasure,
    bounded_equivalence,
    classify,
    find_gap,
    measure_line,
    standard_measure,
    stepped_step,
    subset_measure,
)
from .monoid import MonoidKind
from .normalform import (
    UniqueNormalForm,
    count_prefix_normal,
    count_prefix_normal_words,
    prefix_normal_form,
)
from .profile import (
    factor_max_payloads,
    gap_indexes,
    is_prefix_normal,
    normality_conditions,
    prefix_payloads,
)

DEFAULT_SEED = 271828

# Most words of their longest length that the corpus sweeps scan, over all measures.
_CORPUS_LIMIT = 10 * DEFAULT_LIMIT

_BINARY_ALPHABET = Alphabet(("0", "1"))
_ABC = Alphabet(("a", "b", "c"))
# Gapfree yet unstepped (the vector-gapfree sweep); a fixture of the corpus and of exchange.
_VECTOR = WeightMeasure(_ABC, MonoidKind.VEC2_LEX, ((0, 2), (1, 1), (2, 0)))


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one verification sweep.

    ``violations`` holds one replayable line per counterexample (measure,
    word, and what went wrong); an empty tuple means the sweep passed.
    ``params`` is stored as a read-only mapping.
    """

    suite: str
    params: Mapping = field(default_factory=dict)
    cases: int = 0
    violations: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    def __reduce__(self):
        # A mappingproxy cannot be pickled; rebuild the report from a plain dict.
        return (SweepReport, (self.suite, dict(self.params), self.cases, self.violations))

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary_line(self) -> str:
        return f"SUITE {self.suite} CASES {self.cases} VIOLATIONS {len(self.violations)}"

    def render(self, fmt: str = "text") -> str:
        if fmt not in ("text", "lines"):
            raise ValueError(f"unknown report format {fmt!r}: expected text or lines")
        if fmt == "lines":
            return "\n".join([self.summary_line(), *self.violations])
        params = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        status = "pass" if self.passed else "FAIL"
        head = f"{self.suite}: {status} ({self.cases} cases"
        head += f"; {params})" if params else ")"
        if self.passed:
            return head
        return "\n".join([head, *(f"  counterexample: {line}" for line in self.violations)])


def _running_rows(letter_weights, indices, ident, comb):
    """``(prefix weights, factor maxima)`` per length, by a running combine from every start.

    The definitional kernel of the brute oracles, kept apart from the fast
    profile kernels so that the two check each other.  The start-0 pass
    runs first and gives the prefix row, so every maximum starts at a real
    window, its prefix: no window is assumed to weigh at least the
    identity, and the later starts only ever raise a maximum.
    """
    prefix = [ident]
    acc = ident
    for i in indices:
        acc = comb(acc, letter_weights[i])
        prefix.append(acc)
    best = prefix.copy()
    for start in range(1, len(indices)):
        acc = ident
        size = 0
        for i in indices[start:]:
            acc = comb(acc, letter_weights[i])
            size += 1
            if best[size] < acc:
                best[size] = acc
    return prefix, best


def _running_factor_max(letter_weights, indices, ident, comb):
    """Per-length factor maxima, the second row of ``_running_rows``.

    Each maximum is taken over real windows only, its prefix first, so it
    holds for weights below the identity too.
    """
    return _running_rows(letter_weights, indices, ident, comb)[1]


def _scan_cells(size: int, lengths: range) -> int:
    """Kernel cells of a scan: n(n+1)/2 for each of the size^n words of each length n.

    They count the combines ``_running_rows`` makes on those words.  The
    scan makes one combine and a max over n entries per word, and builds the
    shorter lengths at less than the longest length's cells, so the cells
    bound its work from above.  One letter has one word per length, and its
    sum over 1..n is the tetrahedral number n(n+1)(n+2)/6, so a huge length
    costs nothing here.
    """
    if size == 1:
        low, high = lengths[0] - 1, lengths[-1]
        return (high * (high + 1) * (high + 2) - low * (low + 1) * (low + 2)) // 6
    return sum(size**n * n * (n + 1) // 2 for n in lengths)


# The cells of the largest scan the word count accepts (binary, lengths 1-16).
_SCAN_CELL_LIMIT = _scan_cells(2, range(1, 17))


def _prefix_rows(letter_weights, ident, comb, length):
    """Prefix rows of the words of ``length``, in lexicographic order, by a depth-first walk.

    Each row is its head's row plus one combine; the walk holds a row per
    letter and depth, not a row per word.
    """
    stack = [[ident]]
    while stack:
        row = stack.pop()
        if len(row) > length:
            yield row
        else:
            total = row[-1]
            stack.extend([*row, comb(total, w)] for w in reversed(letter_weights))


def _scan_rows(letter_weights, ident, comb, lengths: range):
    """The rows of ``_scan``, each length's built from the previous length's factor maxima.

    Word j of length n has its head w[:-1] at j // |Σ| and its tail w[1:]
    at j mod |Σ|^(n-1) among the words of length n - 1, and every window
    shorter than w lies in one of them.  So w's factor maxima are the
    elementwise ``max`` of those two rows, then w's total: the head's
    total, the last entry of its row, combined with w's last letter.  Its
    prefix row is the head's plus that total.  Only the previous length's
    factor rows are kept; the heads' prefix rows come from a walk, in the
    same order.  The lengths below ``lengths`` are built but not yielded.
    A yielded factor row is also the next length's input, so no consumer
    may mutate one.
    """
    if not lengths:
        return
    size, last = len(letter_weights), lengths[-1]
    rows = [[ident]]
    if 0 in lengths:
        yield (), [ident], rows[0]
    for n in range(1, last + 1):
        heads, rows = rows, []
        more, yielding = n < last, n in lengths
        # The tail of word j is head j mod |heads|: the heads over again, once per letter.
        tail = itertools.chain.from_iterable(itertools.repeat(heads, size)).__next__
        words = itertools.product(range(size), repeat=n)
        prefixes = (
            _prefix_rows(letter_weights, ident, comb, n - 1) if yielding else itertools.repeat(None)
        )
        for head, head_prefix in zip(heads, prefixes):
            head_total = head[-1]
            for w in letter_weights:
                total = comb(head_total, w)
                f = [*map(max, head, tail()), total]
                if more:
                    rows.append(f)
                if yielding:
                    yield next(words), [*head_prefix, total], f


def _scan(measure: WeightMeasure, lengths: range):
    """``(indices, prefix weights, factor maxima)`` of each word of the ascending ``lengths``.

    The words come in (length, lexicographic) order.  ``_scan_rows`` builds
    them length by length; ``_running_rows`` is the per-word kernel their
    rows equal.  The call itself refuses, before any row is built, when the
    last length has over ``DEFAULT_LIMIT`` words, and then when the scan's
    kernel cells exceed those of a binary scan of lengths 1 to 16: a
    one-letter alphabet has one word per length, yet its rows grow with n.
    No consumer may mutate a yielded row.
    """
    size = len(measure.alphabet)
    if lengths:
        refuse_power(size, lengths[-1], "words")
        refuse(_scan_cells(size, lengths), "kernel cells", _SCAN_CELL_LIMIT)
    return _scan_rows(measure.payloads, measure.identity_payload, measure.combine, lengths)


def brute_gap_search(measure: WeightMeasure, max_len: int) -> Gap | None:
    """First definitional gap in (length, lexicographic, index) order, if any.

    Position i of a word is a gap when no letter weight b gives
    ``combine(f[i-1], b) == f[i]``.  The set of those one-letter successors
    of each maximum is combined once per call and kept under that maximum,
    so ``f[i] in successors`` is the same test, made without recombining.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    base, comb = set(measure.payloads), measure.combine
    steps: dict = {}
    for indices, _, f in _scan(measure, range(1, max_len + 1)):
        for i in range(1, len(indices) + 1):
            prev = f[i - 1]
            successors = steps.get(prev)
            if successors is None:
                successors = steps[prev] = {comb(prev, b) for b in base}
            if f[i] not in successors:
                return Gap(Word(measure.alphabet, indices), i)
    return None


def _brute_class_rows(measure: WeightMeasure, word: Word) -> list[tuple]:
    """The scan rows of every same-length word whose factor maxima equal the word's."""
    measure.check_word(word)
    scan = _scan(measure, range(len(word), len(word) + 1))
    ws, ident, comb = measure.payloads, measure.identity_payload, measure.combine
    target = _running_factor_max(ws, word.indices, ident, comb)
    return [row for row in scan if row[2] == target]


def brute_equivalence_class(measure: WeightMeasure, word: Word) -> set[Word]:
    """Every same-length word whose factor-weight profile equals the word's, by full scan."""
    return {Word(measure.alphabet, indices) for indices, _, _ in _brute_class_rows(measure, word)}


def brute_prefix_normal_set(measure: WeightMeasure, word: Word) -> set[Word]:
    """The prefix-normal words of the word's factor-weight class, by one full scan."""
    rows = _brute_class_rows(measure, word)
    return {Word(measure.alphabet, indices) for indices, p, f in rows if p == f}


def _check_trichotomy(measure: WeightMeasure, max_len: int) -> tuple[int, list[str]]:
    """Compare per-class prefix-normal counts against the classification.

    Groups every word up to ``max_len`` by its factor-weight profile and
    counts prefix-normal members per class.  An injective measure may never
    produce a count above 1 and must produce one above 1 otherwise; a
    gapfree measure may never produce an empty class and must produce one
    otherwise (gaps appear by length 4).  Each class count is also checked
    against the constructive count.
    """
    scan = _scan(measure, range(1, max_len + 1))
    flags = classify(measure)
    problems: list[str] = []
    cases = 0
    # Profiles of different lengths differ in length, so one dict keeps the
    # classes apart and in scan order.
    groups: dict[tuple, list] = {}
    for indices, p, f in scan:
        cases += 1
        group = groups.setdefault(tuple(f), [0, indices])
        if p == f:
            group[0] += 1
    found_empty = found_multi = False
    for pn_count, first_indices in groups.values():
        representative = Word(measure.alphabet, first_indices)
        if pn_count == 0:
            found_empty = True
            if flags.gapfree:
                problems.append(f"word {representative} | gapfree measure, empty prefix-normal set")
        elif pn_count > 1:
            found_multi = True
            if flags.injective:
                problems.append(
                    f"word {representative} | injective measure, {pn_count} prefix-normal words"
                )
        predicted = count_prefix_normal(measure, representative)
        if predicted != pn_count:
            problems.append(
                f"word {representative} | predicted count {predicted}, "
                f"brute force found {pn_count}"
            )
    # Existence guarantees: a gap word appears by length 4, a multi-member
    # class already at length 1, so only enforce within reach of the bound.
    if not flags.gapfree and not found_empty and max_len >= 4:
        problems.append(f"gapful, but no empty class up to length {max_len}")
    if not flags.injective and not found_multi:
        problems.append(f"non-injective, but no multi-member class up to length {max_len}")
    return cases, problems


def count_binary_prefix_normal(n: int) -> int:
    """Count prefix-normal words of length n over {0,1} under weights (1,2).

    The (1,2) case of ``count_prefix_normal_words``: it walks only
    prefix-normal prefixes, without listing the words, yet refuses n as if
    all 2^n words were scanned (n = 16 is the largest accepted).
    """
    return count_prefix_normal_words(subset_measure(_BINARY_ALPHABET, {"1"}), n)


def classic_max_ones(bits) -> list[int]:
    """Most ones any fixed-length window contains, by direct window sliding.

    Independent of the weighted machinery on purpose: this is the oracle
    the binary reduction is checked against.
    """
    n = len(bits)
    out = [0] * (n + 1)
    for size in range(1, n + 1):
        ones = sum(bits[:size])
        best = ones
        for start in range(1, n - size + 1):
            ones += bits[start + size - 1] - bits[start - 1]
            if ones > best:
                best = ones
        out[size] = best
    return out


def classic_prefix_ones(bits) -> list[int]:
    out = [0]
    acc = 0
    for b in bits:
        acc += b
        out.append(acc)
    return out


def is_prefix_normal_classic(bits) -> bool:
    return classic_max_ones(bits) == classic_prefix_ones(bits)


# ---------------------------------------------------------------------------
# Seeded corpus


def _fixture_measures() -> list[WeightMeasure]:
    return [
        standard_measure(Alphabet(("a", "b"))),
        standard_measure(_ABC),
        standard_measure(Alphabet(("a", "b", "c", "d"))),
        WeightMeasure(Alphabet(("a", "n", "b")), MonoidKind.NAT_SUM, (1, 2, 3)),
        WeightMeasure(Alphabet(("a", "n", "c", "b")), MonoidKind.NAT_SUM, (1, 2, 2, 3)),
        WeightMeasure(Alphabet(("a", "n", "b", "x")), MonoidKind.NAT_SUM, (1, 2, 3, 4)),
        WeightMeasure(Alphabet(("a", "n", "x")), MonoidKind.NAT_SUM, (1, 2, 4)),
        WeightMeasure(_ABC, MonoidKind.NAT_SUM, (1, 2, 4)),
        WeightMeasure(_ABC, MonoidKind.NAT_SUM, (1, 3, 4)),
        WeightMeasure(_ABC, MonoidKind.NAT_SUM, (2, 4, 6)),
        WeightMeasure(_ABC, MonoidKind.NAT_PRODUCT, (2, 6, 18)),
        WeightMeasure(_ABC, MonoidKind.NAT_PRODUCT, (2, 3, 5)),
        WeightMeasure(_ABC, MonoidKind.NAT_PRODUCT, (4, 6, 9)),
        _VECTOR,
        subset_measure(_BINARY_ALPHABET, {"1"}),
    ]


def _random_measure(rng: random.Random) -> WeightMeasure:
    size = rng.randint(2, 4)
    alphabet = Alphabet(tuple("abcd"[:size]))
    roll = rng.random()
    if roll < 0.45:
        kind = MonoidKind.NAT_SUM
        payloads = [rng.randint(1, 8) for _ in range(size)]
    elif roll < 0.80:
        kind = MonoidKind.NAT_PRODUCT
        payloads = [rng.randint(2, 13) for _ in range(size)]
    else:
        kind = MonoidKind.VEC2_LEX
        payloads = []
        for _ in range(size):
            pair = (0, 0)
            while pair == (0, 0):
                pair = (rng.randint(0, 4), rng.randint(0, 4))
            payloads.append(pair)
    return WeightMeasure(alphabet, kind, payloads)


@lru_cache(maxsize=8)
def corpus_measures(seed: int = DEFAULT_SEED) -> tuple[WeightMeasure, ...]:
    """The fixed fixtures, then seeded random measures up to 220; deterministic per seed."""
    rng = random.Random(seed)
    measures = _fixture_measures()
    while len(measures) < 220:
        measures.append(_random_measure(rng))
    return tuple(measures)


# ---------------------------------------------------------------------------
# Suites


@dataclass(frozen=True)
class _Suite:
    """One verify suite: its declared sizes, a seeded case stream and the check of one case.

    ``sizes`` maps each size the suite declares to ``(default, least)``.
    ``cases(seed, **sizes)`` yields each case as the arguments of its
    check, measures first.  ``check(*case, sizes) -> (count, problems)``
    checks one case; it takes the run's sizes as one mapping, built once
    per run, not as keywords built anew per case.
    """

    cases: Callable
    check: Callable
    sizes: Mapping = field(default_factory=dict)


def _sweep(suite: _Suite, seed: int, sizes: dict) -> tuple[int, list[str]]:
    """Sum the suite's check over its cases; one line per problem.

    A line names the case's measures, joined by ``vs``, then the problem.
    A suite that declares ``cases`` may stream without end: the sweep stops
    after the case that brings the count to it.
    """
    stop = sizes.get("cases", math.inf)
    count = 0
    violations: list[str] = []
    for case in suite.cases(seed, **sizes):
        done, problems = suite.check(*case, sizes)
        count += done
        if problems:
            head = " vs ".join(measure_line(m) for m in case if isinstance(m, WeightMeasure))
            violations.extend(f"{head} | {problem}" for problem in problems)
        if count >= stop:
            break
    return count, violations


def _word_cases(seed: int, cases: int, max_len: int):
    """Endless seeded ``(measure, indices)`` cases; ``_sweep`` stops them at ``cases``.

    Each case draws a measure from a seeded pool of 200, then a word of at
    most ``max_len`` letters.
    """
    rng = random.Random(seed)
    pool = [_random_measure(rng) for _ in range(200)]
    while True:
        measure = rng.choice(pool)
        yield measure, tuple(
            rng.randrange(len(measure.alphabet)) for _ in range(rng.randint(0, max_len))
        )


def _word_check(check):
    """The suite check of ``check(measure, indices)``, which returns None or a problem.

    A problem becomes one line that names the word.
    """

    def run(measure, idx, sizes):
        problem = check(measure, idx)
        return 1, (f"word {Word(measure.alphabet, idx)} | {problem}",) if problem else ()

    return run


def _check_position_functions(measure: WeightMeasure, idx: tuple[int, ...]) -> str | None:
    """Order and position-function laws of prefix/factor profiles.

    Per random (measure, word): strict monotonicity of both profiles;
    bracketing, round-trip, separation, ordering, and monotonicity of the
    last-at-most / first-at-least position functions.
    """
    ws, ident, comb = measure.payloads, measure.identity_payload, measure.combine
    f, _ = factor_max_payloads(ws, idx, ident, comb)
    p = prefix_payloads(ws, idx, ident, comb)
    n = len(idx)
    for i in range(n):
        if not (f[i] < f[i + 1] and p[i] < p[i + 1]):
            return "profiles must strictly increase"
    total = p[n]
    values = sorted({*p, *f, comb(total, max(ws))})[:12]
    for x in values:
        last = bisect_right(p, x) - 1
        if p[last] > x:
            return "last_at_most exceeded its bound"
        defined = x <= total
        if defined:
            first = bisect_left(p, x)
            if p[first] < x:
                return "first_at_least fell short of its bound"
            if last > first:
                return "last_at_most above first_at_least"
        for j in range(n + 1):
            if last < j and not x < p[j]:
                return "prefix after last_at_most not above the value"
            if defined and j < first and not p[j] < x:
                return "prefix before first_at_least not below the value"
    for k in range(n + 1):
        if bisect_right(p, p[k]) - 1 != k or bisect_left(p, p[k]) != k:
            return "position round-trip through a prefix weight failed"
    for x, y in zip(values, values[1:]):
        if bisect_right(p, x) - 1 > bisect_right(p, y) - 1:
            return "last_at_most not monotone"
        if y <= total and bisect_left(p, x) > bisect_left(p, y):
            return "first_at_least not monotone"
    return None


def _check_subadditivity(measure: WeightMeasure, idx: tuple[int, ...]) -> str | None:
    """Factor maxima never beat the combine of the maxima of a split."""
    comb = measure.combine
    f, _ = factor_max_payloads(measure.payloads, idx, measure.identity_payload, comb)
    for j in range(1, len(idx) + 1):
        for i in range(j):
            if f[j] > comb(f[i], f[j - i]):
                return f"split {(i, j)} breaks subadditivity"
    return None


def _position_bound_all_pairs(measure: WeightMeasure, idx: tuple[int, ...]) -> bool:
    """Condition 4 of ``normality_conditions`` by its definition.

    last_at_most(a) + first_at_least(b) <= first_at_least(a . b) for every
    pair of factor weights (the identity included) with a . b at most the
    word's weight.
    """
    ws, ident, comb = measure.payloads, measure.identity_payload, measure.combine
    p = prefix_payloads(ws, idx, ident, comb)
    values = {ident}
    for start in range(len(idx)):
        acc = ident
        for i in idx[start:]:
            acc = comb(acc, ws[i])
            values.add(acc)
    values = sorted(values)
    for a in values:
        last_a = bisect_right(p, a) - 1
        for b in values:
            ab = comb(a, b)
            if ab > p[-1]:
                break  # so is a . b for every larger b
            if last_a + bisect_left(p, b) > bisect_left(p, ab):
                return False
    return True


def _check_pn_equivalences(measure: WeightMeasure, idx: tuple[int, ...]) -> str | None:
    """Every prefix-normality verdict on the word agrees.

    The four conditions agree with each other, ``is_prefix_normal`` (the
    route that stops early) with condition 1, and condition 4 with its
    all-pairs definition.
    """
    word = Word(measure.alphabet, idx)
    verdicts = normality_conditions(measure, word)
    if len(set(verdicts)) != 1:
        return f"conditions disagree: {verdicts}"
    if is_prefix_normal(measure, word) != verdicts[0]:
        return f"is_prefix_normal says {not verdicts[0]}, condition 1 says {verdicts[0]}"
    if verdicts[3] != _position_bound_all_pairs(measure, idx):
        return f"position bound {verdicts[3]}, but all pairs give {not verdicts[3]}"
    return None


def _check_projection(measure: WeightMeasure, idx: tuple[int, ...]) -> str | None:
    """Projection keeps weights and is injective on the class alphabet."""
    projected = measure.projected
    word = Word(measure.alphabet, idx)
    image = projected.project_word(word)
    if len(set(projected.measure.payloads)) != len(projected.measure.payloads):
        return "projected measure not injective"
    if projected.measure.weight_payload(image) != measure.weight_payload(word):
        return "projection changed the weight"
    if len(image) != len(word):
        return "projection changed length"
    return None


def _random_stepped_measure(rng: random.Random) -> WeightMeasure:
    size = rng.randint(3, 4)
    alphabet = Alphabet(tuple("abcd"[:size]))
    roll = rng.random()
    if roll < 0.45:
        base, step = rng.randint(1, 5), rng.randint(1, 4)
        payloads = [base + i * step for i in range(size)]
        kind = MonoidKind.NAT_SUM
    elif roll < 0.80:
        base, step = rng.randint(2, 4), rng.randint(2, 3)
        payloads = [base * step ** i for i in range(size)]
        kind = MonoidKind.NAT_PRODUCT
    else:
        base = (rng.randint(0, 2), rng.randint(0, 2))
        if base == (0, 0):
            base = (0, 1)
        step = (rng.randint(0, 2), rng.randint(0, 2))
        if step == (0, 0):
            step = (1, 0)
        payloads = [
            (base[0] + i * step[0], base[1] + i * step[1]) for i in range(size)
        ]
        kind = MonoidKind.VEC2_LEX
    return WeightMeasure(alphabet, kind, payloads)


def _exchange_cases(seed: int, cases: int):
    """Three fixtures, then endless seeded stepped measures; ``_sweep`` stops them at ``cases``."""
    yield (_VECTOR,)
    yield (WeightMeasure(_ABC, MonoidKind.NAT_PRODUCT, (4, 6, 9)),)
    yield (standard_measure(Alphabet(("a", "b", "c", "d"))),)
    rng = random.Random(seed)
    while True:
        yield (_random_stepped_measure(rng),)


def _check_exchange(measure: WeightMeasure, sizes) -> tuple[int, list[str]]:
    """Weight-exchange identity for gapfree injective weight-ordered measures.

    With letters sorted by weight, moving y positions from one letter to
    the other inside a two-letter word never changes the word's weight:
    w_i . w_{i+x} == w_{i+y} . w_{i+x-y}.  Each triple is one case.
    """
    ws, comb = measure.payloads, measure.combine
    size = len(ws)
    triples = [(i, x, y) for i in range(size) for x in range(2, size - i) for y in range(1, x)]
    return len(triples), [
        f"positions i={i} x={x} y={y} | exchange identity broken"
        for i, x, y in triples
        if comb(ws[i], ws[i + x]) != comb(ws[i + y], ws[i + x - y])
    ]


def _check_gap_decision(
    measure: WeightMeasure, max_len: int, fast: Gap | None
) -> tuple[int, list[str]]:
    """``find_gap``'s decision ``fast`` against brute force up to ``max_len``, and its witness."""
    brute = brute_gap_search(measure, max_len)
    if (fast is None) != (brute is None):
        return 1, [
            f"decision says {'gapfree' if fast is None else 'gapful'}, "
            f"brute force says {'gapfree' if brute is None else 'gapful'}"
        ]
    if fast is None:
        return 1, []
    witness = fast.word
    ws = [measure.payloads[i] for i in witness.indices]
    shape_ok = (
        len(witness) == 4
        and fast.index == 3
        and ws[0] == ws[2]
        and ws[1] < ws[3] < ws[0]
    )
    if not shape_ok:
        return 1, [f"witness {witness} is not high-low-high-mid shaped"]
    if fast.index not in gap_indexes(measure, witness):
        return 1, [f"witness {witness} fails the definitional gap check"]
    return 1, []


def _prime_cases(seed: int):
    """Every product measure with three distinct prime weights up to 20; the seed draws nothing."""
    primes = [p for p in range(2, 21) if all(p % d for d in range(2, p))]
    triples = itertools.combinations(primes, 3)
    return zip(WeightMeasure(_ABC, MonoidKind.NAT_PRODUCT, triple) for triple in triples)


def _check_prime_gapful(measure: WeightMeasure, sizes) -> tuple[int, list[str]]:
    """A product measure of three distinct primes has a gap, with a well-shaped witness."""
    gap = find_gap(measure)
    done, problems = _check_gap_decision(measure, 4, gap)
    return done, problems if gap else [*problems, "classified gapfree"]


def _check_vector_gapfree(measure: WeightMeasure, sizes) -> tuple[int, list[str]]:
    """The vector measure (0,2),(1,1),(2,0) is gapfree yet has no step."""
    max_len = sizes["max_len"]
    gap = find_gap(measure)
    _, problems = _check_gap_decision(measure, max_len, gap)
    if gap is not None:
        problems.append("decision procedure reported a gap")
    if stepped_step(measure) is not None:
        problems.append("unexpected step found")
    return sum(len(measure.alphabet) ** n for n in range(1, max_len + 1)) + 2, problems


def _stepped_cases(seed: int, cases: int):
    """Endless seeded measures, two in five stepped; ``_sweep`` stops them at ``cases``."""
    rng = random.Random(seed)
    while True:
        yield (_random_stepped_measure(rng) if rng.random() < 0.4 else _random_measure(rng),)


def _check_stepped_gapfree(measure: WeightMeasure, sizes) -> tuple[int, list[str]]:
    """Stepped base weights imply gapfreeness; the converse needs reachable steps.

    For non-binary measures whose carrier can express every pairwise
    difference of base weights, gapfree and stepped coincide.  Without that
    precondition only the forward implication is claimed (product weights
    (4,6,9) are gapfree but unstepped).
    """
    step = stepped_step(measure)
    gapfree = find_gap(measure) is None
    if step is not None and not gapfree:
        return 1, ["stepped measure with a gap"]
    # Precondition for "gapfree implies stepped": every larger base weight
    # is reachable from every smaller one by a single carrier element.
    distinct = sorted(set(measure.payloads))
    pairs = itertools.combinations(distinct, 2)
    if len(distinct) > 2 and all(measure.residual(a, b) is not None for a, b in pairs):
        if gapfree != (step is not None):
            return 1, [f"gapfree={gapfree} but stepped={step}"]
    return 1, []


def _corpus_cases(seed: int, max_len: int):
    """The corpus, a measure a case, unless its words of length ``max_len`` are too many to scan."""
    measures = corpus_measures(seed)
    refuse_power(max(len(m.alphabet) for m in measures), max_len, "words")
    total = sum(len(m.alphabet) ** max_len for m in measures)
    refuse(total, f"corpus words of length {max_len}", _CORPUS_LIMIT)
    return zip(measures)


def _equivalence_cases(seed: int, max_len: int):
    """Equivalence of gapfree injective weight-ordered measures.

    The sum measure (2,4,6) and the product measure (2,6,18) must be
    equivalent up to ``max_len``.  Every corpus measure that is gapfree,
    injective, and alphabetically ordered must be equivalent to the
    standard measure of its alphabet up to ``max_len`` (hence, by
    transitivity, to each other) and must produce the standard normal form
    for every word of at most 5 letters.  Equivalent pairs among 60 sampled
    from one alphabet must also agree on the injective / ordered / gapfree
    flags, compared up to length 4.  Each case leads with the one of these
    three checks it needs.
    """
    yield (
        _check_fixture,
        WeightMeasure(_ABC, MonoidKind.NAT_SUM, (2, 4, 6)),
        WeightMeasure(_ABC, MonoidKind.NAT_PRODUCT, (2, 6, 18)),
    )

    # Every word of at most 5 letters with its standard normal form, kept for
    # this run only.  The measures come sorted by alphabet, so the cache holds
    # one at a time.
    @lru_cache(maxsize=1)
    def standard_forms(alphabet):
        std = standard_measure(alphabet)
        scan = _scan(std, range(6))
        return [
            (indices, prefix_normal_form(std, Word(alphabet, indices))) for indices, _, _ in scan
        ]

    corpus = sorted(corpus_measures(seed), key=lambda m: m.alphabet.letters)
    for measure in corpus:
        yield _check_standard, measure, standard_forms
    groups = (list(same) for _, same in itertools.groupby(corpus, lambda m: m.alphabet.letters))
    eligible = [group for group in groups if len(group) >= 2]
    rng = random.Random(seed)
    for _ in range(60 if eligible else 0):
        yield (_check_pair, *rng.sample(rng.choice(eligible), 2))


def _check_fixture(first: WeightMeasure, second: WeightMeasure, sizes) -> tuple[int, list[str]]:
    """The fixture pair is equivalent up to ``max_len``."""
    max_len = sizes["max_len"]
    equivalent = bounded_equivalence(first, second, max_len).equivalent
    return 1, [] if equivalent else [f"expected equivalence up to length {max_len}"]


def _check_standard(measure: WeightMeasure, standard_forms, sizes) -> tuple[int, list[str]]:
    """An eligible measure is equivalent to its alphabet's standard measure and has its forms."""
    flags = classify(measure)
    if not (flags.gapfree and flags.injective and flags.alphabetically_ordered):
        return 0, []
    report = bounded_equivalence(measure, standard_measure(measure.alphabet), sizes["max_len"])
    if not report.equivalent:
        return 1, [f"not equivalent to the standard measure: {report.describe()}"]
    forms = standard_forms(measure.alphabet)
    for done, (indices, reference) in enumerate(forms, 2):
        word = Word(measure.alphabet, indices)
        mine = prefix_normal_form(measure, word)
        if not (isinstance(mine, UniqueNormalForm) and mine == reference):
            return done, [f"word {word} | normal form differs from the standard measure's"]
    return 1 + len(forms), []


def _check_pair(first: WeightMeasure, second: WeightMeasure, sizes) -> tuple[int, list[str]]:
    """Sampled equivalent pairs keep their classification flags in sync."""
    if not bounded_equivalence(first, second, 4).equivalent:
        return 1, []
    a, b = classify(first), classify(second)
    agree = (
        a.injective == b.injective
        and a.alphabetically_ordered == b.alphabetically_ordered
        and a.gapfree == b.gapfree
    )
    return 1, [] if agree else ["equivalent pair with diverging classifications"]


def _check_binary_reduction(measure: WeightMeasure, max_len: int) -> tuple[int, list[str]]:
    """Weighted prefix normality of the (1,2) measure over ``0 1`` against the classic predicate.

    Scans every binary word up to ``max_len``: the predicate pair, the
    offset identity between the weighted factor maxima and the classic
    window maxima, and per-length count agreement with
    count_binary_prefix_normal.  A word's letter indices are its bits.
    """
    refuse_power(2, max_len, "words")
    ws, ident, comb = measure.payloads, measure.identity_payload, measure.combine
    problems: list[str] = []
    cases = 0
    for length in range(1, max_len + 1):
        classic_count = 0
        weighted_count = 0
        for bits in itertools.product((0, 1), repeat=length):
            cases += 1
            f, _ = factor_max_payloads(ws, bits, ident, comb)
            weighted = prefix_payloads(ws, bits, ident, comb) == f
            windows = classic_max_ones(bits)
            classic = windows == classic_prefix_ones(bits)  # is_prefix_normal_classic(bits)
            if weighted != classic:
                word = Word(measure.alphabet, bits)
                problems.append(f"word {word} | weighted={weighted} classic={classic}")
            if any(f[i] - i != windows[i] for i in range(length + 1)):
                word = Word(measure.alphabet, bits)
                problems.append(f"word {word} | weighted maxima minus length offset differ")
            classic_count += classic
            weighted_count += weighted
        counted = count_binary_prefix_normal(length)
        if not (counted == classic_count == weighted_count):
            problems.append(
                f"length {length} | counts disagree: op={counted} "
                f"classic={classic_count} weighted={weighted_count}"
            )
    return cases, problems


_WORD_SIZES = {"cases": (10_000, 1), "max_len": (6, 1)}

_SUITES = {
    "position-functions": _Suite(_word_cases, _word_check(_check_position_functions), _WORD_SIZES),
    "subadditivity": _Suite(_word_cases, _word_check(_check_subadditivity), _WORD_SIZES),
    "pn-equivalences": _Suite(
        _word_cases, _word_check(_check_pn_equivalences), {**_WORD_SIZES, "max_len": (5, 1)}
    ),
    "exchange": _Suite(_exchange_cases, _check_exchange, {"cases": (10_000, 1)}),
    "prime-gapful": _Suite(_prime_cases, _check_prime_gapful),
    "projection": _Suite(_word_cases, _word_check(_check_projection), _WORD_SIZES),
    "vector-gapfree": _Suite(
        lambda seed, max_len: [(_VECTOR,)], _check_vector_gapfree, {"max_len": (6, 1)}
    ),
    "stepped-gapfree": _Suite(_stepped_cases, _check_stepped_gapfree, {"cases": (3_000, 1)}),
    "trichotomy": _Suite(
        _corpus_cases, lambda m, sizes: _check_trichotomy(m, sizes["max_len"]), {"max_len": (5, 1)}
    ),
    # Every gap witness has four letters, so a shorter search finds no gap at all.
    "gap-decision": _Suite(
        _corpus_cases,
        lambda m, sizes: _check_gap_decision(m, sizes["max_len"], find_gap(m)),
        {"max_len": (6, 4)},
    ),
    "equivalence": _Suite(
        _equivalence_cases, lambda check, *args: check(*args), {"max_len": (6, 1)}
    ),
    "binary-reduction": _Suite(
        lambda seed, max_len: [(subset_measure(_BINARY_ALPHABET, {"1"}),)],
        lambda m, sizes: _check_binary_reduction(m, sizes["max_len"]),
        {"max_len": (12, 1)},
    ),
}

# Every size some suite declares; ``seed`` belongs to run_suite itself.
_SUITE_PARAMETERS = {name for suite in _SUITES.values() for name in suite.sizes}


def suite_names() -> tuple[str, ...]:
    """The names of the verify suites, sorted."""
    return tuple(sorted(_SUITES))


def run_suite(suite: str, seed: int = DEFAULT_SEED, **params) -> SweepReport:
    """Run one registered sweep and report it.

    A suite declares its sizes, ``cases`` and/or ``max_len``, each with a
    default and a least value.  Unknown suite names, parameter names that
    no suite declares, and a size below its least value are usage errors:
    a ``cases`` or ``max_len`` below 1 (a sweep over no words), checked
    whether or not the suite declares it, and a ``max_len`` below 4 for
    ``gap-decision`` (too short for any gap).  Each suite gets only the
    sizes it declares (None meaning its default), so the CLI can pass
    ``max_len`` and ``cases`` to every suite; the report's ``params`` are
    exactly the sizes the suite ran with.
    """
    try:
        record = _SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r} (choose from: {', '.join(suite_names())})"
        ) from None
    unknown = sorted(set(params) - _SUITE_PARAMETERS)
    if unknown:
        raise ValueError(
            f"unknown sweep parameter {', '.join(map(repr, unknown))} "
            f"(suites take: {', '.join(sorted(_SUITE_PARAMETERS))})"
        )
    for name, value in sorted(params.items()):
        least = record.sizes.get(name, (None, 1))[1]
        if value is not None and value < least:
            raise ValueError(f"{name} must be at least {least} for {suite}, got {value}")
    # A size that passed is at least 1, so only None falls back to its default.
    sizes = {name: params.get(name) or default for name, (default, _) in record.sizes.items()}
    cases, violations = _sweep(record, seed, sizes)
    return SweepReport(suite, sizes, cases, tuple(violations))
