"""Definition-level brute-force oracles and theorem sweep suites.

Everything here recomputes derived quantities straight from their
definitions (full word enumeration, window scans) so the fast paths in the
other modules can be checked against an independent route.  Sweeps are
deterministic for a fixed seed and report exact case counts plus a
replayable line per counterexample.

Every full scan of the |Σ|^n words of one length refuses up front, with
``CapacityExceeded``, when that count exceeds ``DEFAULT_LIMIT``: the brute
oracles, the trichotomy check, the binary count and the binary-reduction
sweep, so an oversized request fails at once instead of running for hours.
"""

from __future__ import annotations

import inspect
import itertools
import random
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from .errors import DEFAULT_LIMIT, CapacityExceeded
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
from .normalform import UniqueNormalForm, count_prefix_normal, prefix_normal_form, walk_words
from .profile import factor_max_payloads, gap_indexes, normality_conditions, prefix_payloads

DEFAULT_SEED = 271828

_BINARY_ALPHABET = Alphabet(("0", "1"))


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
        if fmt == "lines":
            return "\n".join([self.summary_line(), *self.violations])
        params = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        status = "pass" if self.passed else "FAIL"
        head = f"{self.suite}: {status} ({self.cases} cases"
        head += f"; {params})" if params else ")"
        if self.passed:
            return head
        return "\n".join([head, *(f"  counterexample: {line}" for line in self.violations)])


def _running_factor_max(letter_weights, indices, ident, comb):
    """Per-length factor maxima and leftmost starts, by a running combine from every start.

    The definitional kernel of the brute oracles, kept apart from the fast
    ``profile.factor_max_payloads`` so that the two check each other.
    """
    n = len(indices)
    best = [None] * (n + 1)
    best[0] = ident
    starts = [0] * (n + 1)
    for start in range(n):
        acc = ident
        for end in range(start + 1, n + 1):
            acc = comb(acc, letter_weights[indices[end - 1]])
            size = end - start
            cur = best[size]
            if cur is None or cur < acc:
                best[size] = acc
                starts[size] = start
    return best, starts


def _refuse_word_scan(size: int, length: int) -> None:
    """Refuse to scan the size^length words of one length beyond ``DEFAULT_LIMIT``.

    The refusal's ``count`` is exact up to length 64 and ``None`` beyond,
    so a huge length is refused without building a huge power.
    """
    if size > 1 and (length > 64 or size**length > DEFAULT_LIMIT):
        raise CapacityExceeded(
            f"refusing to scan {size}^{length} words (limit {DEFAULT_LIMIT})",
            count=size**length if length <= 64 else None,
        )


def brute_gap_search(measure: WeightMeasure, max_len: int) -> Gap | None:
    """First definitional gap in (length, lexicographic, index) order, if any."""
    _refuse_word_scan(len(measure.alphabet), max_len)
    ws, ident, comb = measure.payloads, measure.identity_payload, measure.combine
    base = sorted(set(ws))
    size = len(measure.alphabet)
    for length in range(1, max_len + 1):
        for combo in itertools.product(range(size), repeat=length):
            f, _ = _running_factor_max(ws, combo, ident, comb)
            for i in range(1, length + 1):
                prev, target = f[i - 1], f[i]
                if not any(comb(prev, b) == target for b in base):
                    return Gap(Word(measure.alphabet, combo), i)
    return None


def brute_equivalence_class(measure: WeightMeasure, word: Word) -> set[Word]:
    """Every same-length word whose factor-weight profile equals the word's, by full scan."""
    measure.check_word(word)
    size = len(measure.alphabet)
    _refuse_word_scan(size, len(word))
    ws, ident, comb = measure.payloads, measure.identity_payload, measure.combine
    target, _ = _running_factor_max(ws, word.indices, ident, comb)
    return {
        Word(measure.alphabet, combo)
        for combo in itertools.product(range(size), repeat=len(word.indices))
        if _running_factor_max(ws, combo, ident, comb)[0] == target
    }


def brute_prefix_normal_set(measure: WeightMeasure, word: Word) -> set[Word]:
    """Filter the full factor-weight class of the word by the PN predicate."""
    members = brute_equivalence_class(measure, word)
    ws, ident, comb = measure.payloads, measure.identity_payload, measure.combine
    target, _ = _running_factor_max(ws, word.indices, ident, comb)
    return {m for m in members if prefix_payloads(ws, m.indices, ident, comb) == target}


def _check_trichotomy(measure: WeightMeasure, max_len: int) -> tuple[int, list[str]]:
    """Compare per-class prefix-normal counts against the classification.

    Groups every word up to ``max_len`` by its factor-weight profile and
    counts prefix-normal members per class.  An injective measure may never
    produce a count above 1 and must produce one above 1 otherwise; a
    gapfree measure may never produce an empty class and must produce one
    otherwise (gaps appear by length 4).  Each class count is also checked
    against the constructive count.
    """
    size = len(measure.alphabet)
    _refuse_word_scan(size, max_len)
    flags = classify(measure)
    ws, ident, comb = measure.payloads, measure.identity_payload, measure.combine
    line = measure_line(measure)
    violations: list[str] = []
    cases = 0
    found_empty = found_multi = False
    for length in range(1, max_len + 1):
        groups: dict[tuple, list] = {}
        for combo in itertools.product(range(size), repeat=length):
            f, _ = _running_factor_max(ws, combo, ident, comb)
            cases += 1
            key = tuple(f)
            group = groups.get(key)
            if group is None:
                groups[key] = group = [0, combo]
            if prefix_payloads(ws, combo, ident, comb) == f:
                group[0] += 1
        for pn_count, first_combo in groups.values():
            representative = Word(measure.alphabet, first_combo)
            if pn_count == 0:
                found_empty = True
                if flags.gapfree:
                    violations.append(
                        f"{line} | word {representative} | gapfree measure, empty prefix-normal set"
                    )
            elif pn_count > 1:
                found_multi = True
                if flags.injective:
                    violations.append(
                        f"{line} | word {representative} | injective measure, "
                        f"{pn_count} prefix-normal words"
                    )
            predicted = count_prefix_normal(measure, representative)
            if predicted != pn_count:
                violations.append(
                    f"{line} | word {representative} | predicted count {predicted}, "
                    f"brute force found {pn_count}"
                )
    # Existence guarantees: a gap word appears by length 4, a multi-member
    # class already at length 1, so only enforce within reach of the bound.
    if not flags.gapfree and not found_empty and max_len >= 4:
        violations.append(f"{line} | gapful, but no empty class up to length {max_len}")
    if not flags.injective and not found_multi:
        violations.append(f"{line} | non-injective, but no multi-member class up to length {max_len}")
    return cases, violations


def count_binary_prefix_normal(n: int) -> int:
    """Count prefix-normal words of length n over {0,1} under weights (1,2).

    Walks only prefix-normal prefixes, without listing the words, yet
    refuses n as if all 2^n words were scanned (n = 16 is the largest
    accepted).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _refuse_word_scan(2, n)
    measure = subset_measure(_BINARY_ALPHABET, {"1"})
    return sum(1 for _ in walk_words(measure, n))


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
    abc = Alphabet(("a", "b", "c"))
    anb = Alphabet(("a", "n", "b"))
    anx = Alphabet(("a", "n", "x"))
    ancb = Alphabet(("a", "n", "c", "b"))
    anbx = Alphabet(("a", "n", "b", "x"))
    return [
        standard_measure(Alphabet(("a", "b"))),
        standard_measure(abc),
        standard_measure(Alphabet(("a", "b", "c", "d"))),
        WeightMeasure(anb, MonoidKind.NAT_SUM, (1, 2, 3)),
        WeightMeasure(ancb, MonoidKind.NAT_SUM, (1, 2, 2, 3)),
        WeightMeasure(anbx, MonoidKind.NAT_SUM, (1, 2, 3, 4)),
        WeightMeasure(anx, MonoidKind.NAT_SUM, (1, 2, 4)),
        WeightMeasure(abc, MonoidKind.NAT_SUM, (1, 2, 4)),
        WeightMeasure(abc, MonoidKind.NAT_SUM, (1, 3, 4)),
        WeightMeasure(abc, MonoidKind.NAT_SUM, (2, 4, 6)),
        WeightMeasure(abc, MonoidKind.NAT_PRODUCT, (2, 6, 18)),
        WeightMeasure(abc, MonoidKind.NAT_PRODUCT, (2, 3, 5)),
        WeightMeasure(abc, MonoidKind.NAT_PRODUCT, (4, 6, 9)),
        WeightMeasure(abc, MonoidKind.VEC2_LEX, ((0, 2), (1, 1), (2, 0))),
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


def _word_sweep(check, default_max_len: int = 6):
    """A suite that runs ``check(measure, indices)`` on seeded random cases.

    Each case draws a measure from a seeded pool of 200, then a word of at
    most ``max_len`` letters.  A check returns None, or a problem that
    becomes one replayable counterexample line.
    """

    def run(seed: int, cases: int = 10_000, max_len: int = default_max_len):
        rng = random.Random(seed)
        pool = [_random_measure(rng) for _ in range(200)]
        violations: list[str] = []
        for _ in range(cases):
            measure = rng.choice(pool)
            length = rng.randint(0, max_len)
            idx = tuple(rng.randrange(len(measure.alphabet)) for _ in range(length))
            problem = check(measure, idx)
            if problem:
                violations.append(
                    f"{measure_line(measure)} | word {Word(measure.alphabet, idx)} | {problem}"
                )
        return cases, violations

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
    """The four prefix-normality conditions agree, and condition 4 with its definition."""
    verdicts = normality_conditions(measure, Word(measure.alphabet, idx))
    if len(set(verdicts)) != 1:
        return f"conditions disagree: {verdicts}"
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


def _suite_exchange(seed: int, cases: int = 10_000):
    """Weight-exchange identity for gapfree injective weight-ordered measures.

    With letters sorted by weight, moving y positions from one letter to
    the other inside a two-letter word never changes the word's weight:
    w_i . w_{i+x} == w_{i+y} . w_{i+x-y}.
    """
    rng = random.Random(seed)
    abc = Alphabet(("a", "b", "c"))
    fixed = [
        standard_measure(Alphabet(("a", "b", "c", "d"))),
        WeightMeasure(abc, MonoidKind.NAT_PRODUCT, (4, 6, 9)),
        WeightMeasure(abc, MonoidKind.VEC2_LEX, ((0, 2), (1, 1), (2, 0))),
    ]
    violations: list[str] = []
    done = 0
    queue: list[WeightMeasure] = list(fixed)
    while done < cases:
        measure = queue.pop() if queue else _random_stepped_measure(rng)
        ws = measure.payloads
        comb = measure.combine
        size = len(ws)
        for i in range(size):
            for x in range(2, size - i):
                for y in range(1, x):
                    done += 1
                    if comb(ws[i], ws[i + x]) != comb(ws[i + y], ws[i + x - y]):
                        violations.append(
                            f"{measure_line(measure)} | positions i={i} x={x} y={y} | "
                            f"exchange identity broken"
                        )
    return done, violations


def _suite_prime_gapful(seed: int):
    """Every product measure with three distinct prime weights up to 20 has a gap."""
    primes = [p for p in range(2, 21) if all(p % d for d in range(2, p))]
    alphabet = Alphabet(("a", "b", "c"))
    violations: list[str] = []
    cases = 0
    for triple in itertools.combinations(primes, 3):
        measure = WeightMeasure(alphabet, MonoidKind.NAT_PRODUCT, triple)
        cases += 1
        gap = find_gap(measure)
        if gap is None:
            violations.append(f"{measure_line(measure)} | classified gapfree")
            continue
        if len(gap.word) != 4 or gap.index not in gap_indexes(measure, gap.word):
            violations.append(f"{measure_line(measure)} | witness {gap.word} not a real gap")
        if brute_gap_search(measure, 4) is None:
            violations.append(f"{measure_line(measure)} | brute force found no gap by length 4")
    return cases, violations


def _suite_vector_gapfree(seed: int, max_len: int = 6):
    """The vector measure (0,2),(1,1),(2,0) is gapfree yet has no step."""
    measure = WeightMeasure(
        Alphabet(("a", "b", "c")), MonoidKind.VEC2_LEX, ((0, 2), (1, 1), (2, 0))
    )
    violations: list[str] = []
    if stepped_step(measure) is not None:
        violations.append(f"{measure_line(measure)} | unexpected step found")
    if find_gap(measure) is not None:
        violations.append(f"{measure_line(measure)} | decision procedure reported a gap")
    brute = brute_gap_search(measure, max_len)
    if brute is not None:
        violations.append(f"{measure_line(measure)} | brute force found a gap at {brute.word}")
    cases = sum(3 ** n for n in range(1, max_len + 1)) + 2
    return cases, violations


def _suite_stepped_gapfree(seed: int, cases: int = 3_000):
    """Stepped base weights imply gapfreeness; the converse needs reachable steps.

    For non-binary measures whose carrier can express every pairwise
    difference of base weights, gapfree and stepped coincide.  Without that
    precondition only the forward implication is claimed (product weights
    (4,6,9) are gapfree but unstepped).
    """
    rng = random.Random(seed)
    violations: list[str] = []
    done = 0
    while done < cases:
        measure = _random_stepped_measure(rng) if rng.random() < 0.4 else _random_measure(rng)
        done += 1
        step = stepped_step(measure)
        gapfree = find_gap(measure) is None
        if step is not None and not gapfree:
            violations.append(f"{measure_line(measure)} | stepped measure with a gap")
            continue
        # Precondition for "gapfree implies stepped": every larger base weight
        # is reachable from every smaller one by a single carrier element.
        distinct = sorted(set(measure.payloads))
        pairs = itertools.combinations(distinct, 2)
        if len(distinct) > 2 and all(measure.residual(a, b) is not None for a, b in pairs):
            if gapfree != (step is not None):
                violations.append(
                    f"{measure_line(measure)} | gapfree={gapfree} but stepped={step}"
                )
    return done, violations


def _suite_trichotomy(seed: int, max_len: int = 5):
    """Class-count predictions versus brute force over the whole corpus."""
    measures = corpus_measures(seed)
    _refuse_word_scan(max(len(m.alphabet) for m in measures), max_len)
    violations: list[str] = []
    cases = 0
    for measure in measures:
        done, found = _check_trichotomy(measure, max_len)
        cases += done
        violations.extend(found)
    return cases, violations


def _suite_gap_decision(seed: int, max_len: int = 6):
    """Fast gapfreeness decision versus exhaustive search, witness shape included."""
    measures = corpus_measures(seed)
    _refuse_word_scan(max(len(m.alphabet) for m in measures), max_len)
    violations: list[str] = []
    cases = 0
    for measure in measures:
        cases += 1
        fast = find_gap(measure)
        brute = brute_gap_search(measure, max_len)
        line = measure_line(measure)
        if (fast is None) != (brute is None):
            violations.append(
                f"{line} | decision says {'gapfree' if fast is None else 'gapful'}, "
                f"brute force says {'gapfree' if brute is None else 'gapful'}"
            )
            continue
        if fast is None:
            continue
        witness = fast.word
        ws = [measure.payloads[i] for i in witness.indices]
        shape_ok = (
            len(witness) == 4
            and fast.index == 3
            and ws[0] == ws[2]
            and ws[1] < ws[3] < ws[0]
        )
        if not shape_ok:
            violations.append(f"{line} | witness {witness} is not high-low-high-mid shaped")
        elif fast.index not in gap_indexes(measure, witness):
            violations.append(f"{line} | witness {witness} fails the definitional gap check")
    return cases, violations


def _all_words(alphabet: Alphabet, max_len: int):
    size = len(alphabet)
    for length in range(max_len + 1):
        for combo in itertools.product(range(size), repeat=length):
            yield Word(alphabet, combo)


def _suite_equivalence(seed: int, max_len: int = 6):
    """Equivalence of gapfree injective weight-ordered measures.

    The sum measure (2,4,6) and the product measure (2,6,18) must be
    equivalent up to ``max_len``.  Every corpus measure that is gapfree,
    injective, and alphabetically ordered must be equivalent to the
    standard measure of its alphabet up to ``max_len`` (hence, by
    transitivity, to each other) and must produce the standard normal form
    for every word of at most 5 letters.  Equivalent pairs among 60 sampled
    from one alphabet must also agree on the injective / ordered / gapfree
    flags, compared up to length 4.
    """
    violations: list[str] = []
    cases = 0
    abc = Alphabet(("a", "b", "c"))
    fixture_sum = WeightMeasure(abc, MonoidKind.NAT_SUM, (2, 4, 6))
    fixture_product = WeightMeasure(abc, MonoidKind.NAT_PRODUCT, (2, 6, 18))
    cases += 1
    if not bounded_equivalence(fixture_sum, fixture_product, max_len).equivalent:
        violations.append(
            f"{measure_line(fixture_sum)} vs {measure_line(fixture_product)} | "
            f"expected equivalence up to length {max_len}"
        )

    measures = corpus_measures(seed)
    groups: dict[tuple[str, ...], list[WeightMeasure]] = {}
    for measure in measures:
        groups.setdefault(measure.alphabet.letters, []).append(measure)

    rng = random.Random(seed)
    for letters in sorted(groups):
        group = groups[letters]
        alphabet = Alphabet(letters)
        std = standard_measure(alphabet)
        nice = [
            m
            for m in group
            if (lambda c: c.gapfree and c.injective and c.alphabetically_ordered)(classify(m))
        ]
        std_forms = None
        for measure in nice:
            cases += 1
            report = bounded_equivalence(measure, std, max_len)
            if not report.equivalent:
                violations.append(
                    f"{measure_line(measure)} | not equivalent to the standard measure: "
                    f"{report.describe()}"
                )
                continue
            if std_forms is None:
                std_forms = {
                    w.indices: prefix_normal_form(std, w) for w in _all_words(alphabet, 5)
                }
            for indices, reference in std_forms.items():
                cases += 1
                word = Word(alphabet, indices)
                mine = prefix_normal_form(measure, word)
                same = (
                    isinstance(mine, UniqueNormalForm)
                    and isinstance(reference, UniqueNormalForm)
                    and mine.word == reference.word
                )
                if not same:
                    violations.append(
                        f"{measure_line(measure)} | word {word} | normal form differs "
                        f"from the standard measure's"
                    )
                    break

    # Sampled equivalent pairs keep their classification flags in sync.
    eligible = [letters for letters in sorted(groups) if len(groups[letters]) >= 2]
    for _ in range(60):
        if not eligible:
            break
        letters = rng.choice(eligible)
        first, second = rng.sample(groups[letters], 2)
        cases += 1
        if bounded_equivalence(first, second, 4).equivalent:
            a, b = classify(first), classify(second)
            agree = (
                a.injective == b.injective
                and a.alphabetically_ordered == b.alphabetically_ordered
                and a.gapfree == b.gapfree
            )
            if not agree:
                violations.append(
                    f"{measure_line(first)} vs {measure_line(second)} | equivalent pair "
                    f"with diverging classifications"
                )
    return cases, violations


def _suite_binary_reduction(seed: int, max_len: int = 12):
    """Weighted (1,2) prefix normality equals the classic max-ones predicate.

    Sweeps every binary word up to the bound, checks the predicate pair, the
    offset identity between the weighted factor maxima and the classic
    window maxima, and per-length count agreement with
    count_binary_prefix_normal.
    """
    _refuse_word_scan(2, max_len)
    measure = subset_measure(_BINARY_ALPHABET, {"1"})
    ws, ident, comb = measure.payloads, measure.identity_payload, measure.combine
    violations: list[str] = []
    cases = 0
    for length in range(1, max_len + 1):
        classic_count = 0
        weighted_count = 0
        for bits in itertools.product((0, 1), repeat=length):
            cases += 1
            f, _ = factor_max_payloads(ws, bits, ident, comb)
            weighted = prefix_payloads(ws, bits, ident, comb) == f
            classic = is_prefix_normal_classic(bits)
            word = "".join(map(str, bits))
            if weighted != classic:
                violations.append(
                    f"word {word} | weighted={weighted} classic={classic}"
                )
            windows = classic_max_ones(bits)
            if any(f[i] - i != windows[i] for i in range(length + 1)):
                violations.append(f"word {word} | weighted maxima minus length offset differ")
            classic_count += classic
            weighted_count += weighted
        counted = count_binary_prefix_normal(length)
        if not (counted == classic_count == weighted_count):
            violations.append(
                f"length {length} | counts disagree: op={counted} "
                f"classic={classic_count} weighted={weighted_count}"
            )
    return cases, violations


_SUITES = {
    "position-functions": _word_sweep(_check_position_functions),
    "subadditivity": _word_sweep(_check_subadditivity),
    "pn-equivalences": _word_sweep(_check_pn_equivalences, 5),
    "exchange": _suite_exchange,
    "prime-gapful": _suite_prime_gapful,
    "projection": _word_sweep(_check_projection),
    "vector-gapfree": _suite_vector_gapfree,
    "stepped-gapfree": _suite_stepped_gapfree,
    "trichotomy": _suite_trichotomy,
    "gap-decision": _suite_gap_decision,
    "equivalence": _suite_equivalence,
    "binary-reduction": _suite_binary_reduction,
}

# Every parameter some suite declares; ``seed`` belongs to run_suite itself.
_SUITE_PARAMETERS = {
    name for runner in _SUITES.values() for name in inspect.signature(runner).parameters
} - {"seed"}


def suite_names() -> tuple[str, ...]:
    return tuple(sorted(_SUITES))


def run_suite(suite: str, seed: int = DEFAULT_SEED, **params) -> SweepReport:
    """Run one registered sweep and report it.

    A suite declares its sizes, ``cases`` and/or ``max_len``, as parameters
    after ``seed`` and returns ``(cases, violations)``.  Unknown suite names,
    parameter names that no suite declares, a ``cases`` or ``max_len``
    below 1 (a sweep over no words), and a ``max_len`` below 4 for
    ``gap-decision`` (too short for any gap) are usage errors.  Each suite
    gets only the sizes it declares (None meaning its default), so the CLI
    can pass ``max_len`` and ``cases`` to every suite; the report's
    ``params`` are exactly the sizes the suite ran with.
    """
    try:
        runner = _SUITES[suite]
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
    # Every gap witness has four letters, so a shorter search finds no gap at all.
    least_len = 4 if suite == "gap-decision" else 1
    for name, least in (("cases", 1), ("max_len", least_len)):
        value = params.get(name)
        if value is not None and value < least:
            raise ValueError(f"{name} must be at least {least} for {suite}, got {value}")
    signature = inspect.signature(runner)
    bound = signature.bind(
        seed, **{k: v for k, v in params.items() if v is not None and k in signature.parameters}
    )
    bound.apply_defaults()
    cases, violations = runner(*bound.args, **bound.kwargs)
    sizes = {k: v for k, v in bound.arguments.items() if k != "seed"}
    return SweepReport(suite, sizes, cases, tuple(violations))
