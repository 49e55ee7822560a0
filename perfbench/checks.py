"""Reference computations that judge the outputs of the code under test.

Nothing here calls into ``prefixnorm``: every reference is rebuilt from the
letter weights with plain integer or float arithmetic, so a defect in the
profile kernel or the enumerators cannot vouch for itself.  Results of the
library are read through their public attributes only.

* nat-sum profiles come from prefix differences ``P[i+k] - P[i]``;
* vec2-lex pairs embed order-preservingly into integers as ``a*M + b`` with
  ``M`` above the word's total second component, then use the same
  differences;
* nat-product profiles of long words are compared in the log domain with
  an absolute tolerance of ``LOG_TOL``, plus an exact check that every
  reported maximum is realised at its reported start; short words use
  exact integer division.

Each check returns ``None`` when the output is right and a one-line reason
otherwise.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate, product
from operator import mul, sub

NAT_SUM, NAT_PRODUCT, VEC2_LEX = "nat-sum", "nat-product", "vec2-lex"

# Summing up to 2000 logs below 2 stays within 1e-9 of the exact value, so
# 1e-8 separates rounding error from a wrong maximum.
LOG_TOL = 1e-8

# count_binary_prefix_normal(n) for n = 0..16 at the seed commit; these are
# also the first terms of OEIS A194850 and agree with a window-sliding brute
# force.
BINARY_PN_COUNTS = (1, 2, 3, 5, 8, 14, 23, 41, 70, 125, 218, 395, 697, 1273, 2279, 4185, 7568)


class Reference:
    """Definition-level profile of one word under one measure.

    ``exact`` is True when ``factor_max`` and ``prefix`` hold exact
    payloads; for long nat-product words ``factor_max`` holds natural logs.
    """

    def __init__(self, kind: str, payloads, indices, exact_products: bool = True):
        self.kind = kind
        self.payloads = tuple(payloads)
        self.indices = tuple(indices)
        n = len(self.indices)
        ws = [self.payloads[i] for i in self.indices]
        if kind == NAT_SUM:
            self.prefix = [0, *accumulate(ws)]
            self.encoded, self.scale = self.prefix, None
            self.factor_max = _difference_maxima(self.prefix)
            self.exact = True
        elif kind == VEC2_LEX:
            self.prefix = [(0, 0), *accumulate(ws, lambda a, b: (a[0] + b[0], a[1] + b[1]))]
            self.scale = self.prefix[-1][1] + 1
            self.encoded = [a * self.scale + b for a, b in self.prefix]
            self.factor_max = [divmod(v, self.scale) for v in _difference_maxima(self.encoded)]
            self.exact = True
        elif kind == NAT_PRODUCT:
            self.prefix = [1, *accumulate(ws, mul)]
            if exact_products:
                self.factor_max = [
                    max(self.prefix[i + k] // self.prefix[i] for i in range(n - k + 1))
                    for k in range(n + 1)
                ]
                self.exact = True
            else:
                logs = [0.0, *accumulate(math.log(w) for w in ws)]
                self.factor_max = _difference_maxima(logs)
                self.exact = False
        else:
            raise ValueError(f"unknown monoid {kind!r}")

    @cached_property
    def prefix_normal(self) -> bool:
        if self.exact:
            return self.prefix == self.factor_max
        return all(
            abs(math.log(p) - f) <= LOG_TOL for p, f in zip(self.prefix, self.factor_max)
        )

    @cached_property
    def prefix_normal_words(self) -> frozenset:
        """Every prefix-normal word with this profile, for short exact words.

        Such a word's i-th letter weighs ``factor_max[i] - factor_max[i-1]``,
        so it is among the products of the letters that realise each step;
        the candidates are then filtered by the definition.
        """
        n = len(self.indices)
        letters = range(len(self.payloads))
        steps = [
            [c for c in letters if self.realises_step(size, self.payloads[c])]
            for size in range(1, n + 1)
        ]
        return frozenset(
            word
            for word in product(*steps)
            if (form := Reference(self.kind, self.payloads, word)).prefix_normal
            and form.same_profile(self)
        )

    def same_profile(self, other: "Reference") -> bool:
        if self.exact and other.exact:
            return self.factor_max == other.factor_max
        return len(self.factor_max) == len(other.factor_max) and all(
            abs(_log(self, a) - _log(other, b)) <= LOG_TOL
            for a, b in zip(self.factor_max, other.factor_max)
        )

    def realises_step(self, size: int, weight) -> bool:
        """True iff factor_max[size] is factor_max[size - 1] extended by ``weight``."""
        prev, cur = self.factor_max[size - 1], self.factor_max[size]
        if self.kind == NAT_SUM:
            return prev + weight == cur
        if self.kind == VEC2_LEX:
            return (prev[0] + weight[0], prev[1] + weight[1]) == cur
        if self.exact:
            return prev * weight == cur
        return abs(prev + math.log(weight) - cur) <= LOG_TOL


def _log(ref: Reference, value) -> float:
    return value if not ref.exact else math.log(value)


def _difference_maxima(prefix) -> list:
    n = len(prefix) - 1
    return [prefix[0] - prefix[0], *(max(map(sub, prefix[k:], prefix)) for k in range(1, n + 1))]


def _factor_at(ref: Reference, start: int, size: int):
    p = ref.prefix
    if ref.kind == NAT_SUM:
        return p[start + size] - p[start]
    if ref.kind == VEC2_LEX:
        a, b = p[start + size], p[start]
        return (a[0] - b[0], a[1] - b[1])
    quotient, remainder = divmod(p[start + size], p[start])
    return quotient if remainder == 0 else None


# ---------------------------------------------------------------------------
# Per-call checks.  ``ref`` is the reference of the input word.


def check_weight_profile(ref: Reference, profile) -> str | None:
    n = len(ref.indices)
    prefix = [v.payload for v in profile.prefix]
    factor = [v.payload for v in profile.factor_max]
    starts = list(profile.factor_starts)
    if not (len(prefix) == len(factor) == len(starts) == n + 1):
        return "profile has the wrong length"
    if prefix != ref.prefix:
        return "prefix weights differ from the running fold"
    if ref.exact:
        if factor != ref.factor_max:
            return "factor maxima differ from the prefix differences"
    elif any(abs(math.log(f) - g) > LOG_TOL for f, g in zip(factor, ref.factor_max)):
        return "factor maxima differ from the log-domain prefix differences"
    for size in range(1, n + 1):
        start = starts[size]
        if not 0 <= start <= n - size or _factor_at(ref, start, size) != factor[size]:
            return f"length-{size} maximum is not realised at its start {start}"
    if ref.kind != NAT_PRODUCT:
        enc = ref.encoded
        for size in range(1, n + 1):
            target = factor[size]
            if ref.scale is not None:
                target = target[0] * ref.scale + target[1]
            first = list(map(sub, enc[size:], enc)).index(target)
            if first != starts[size]:
                return f"length-{size} start {starts[size]} is not the leftmost ({first})"
    return None


def check_is_prefix_normal(ref: Reference, verdict) -> str | None:
    if verdict is not ref.prefix_normal:
        return f"is_prefix_normal returned {verdict!r}, definition says {ref.prefix_normal}"
    return None


def check_normality_conditions(ref: Reference, verdicts) -> str | None:
    expected = (ref.prefix_normal,) * 4
    if tuple(verdicts) != expected:
        return f"conditions {tuple(verdicts)} but the word is prefix normal: {ref.prefix_normal}"
    return None


def check_normal_form(ref: Reference, result, groups) -> str | None:
    """Check a prefix_normal_form result against the input's reference profile.

    ``groups`` lists the letter indices of each equal-weight class in
    first-occurrence order, the order the projected alphabet uses.
    """
    name = type(result).__name__
    n = len(ref.indices)
    class_weights = [ref.payloads[group[0]] for group in groups]
    if name == "NoNormalForm":
        if tuple(result.gap_word.indices) != ref.indices:
            return "gap result names a different word"
        i = result.gap_index
        if not 1 <= i <= n:
            return f"gap index {i} out of range"
        for size in range(1, i + 1):
            realised = any(ref.realises_step(size, w) for w in class_weights)
            if realised == (size == i):
                return f"gap index {i} is not the first unrealisable step"
        return None
    if name == "UniqueNormalForm":
        if any(len(group) != 1 for group in groups):
            return "unique form reported for a non-injective measure"
        word = tuple(result.word.indices)
    elif name == "MultipleNormalForms":
        if all(len(group) == 1 for group in groups):
            return "multiple forms reported for an injective measure"
        picks = tuple(result.projected.indices)
        if any(not 0 <= c < len(groups) for c in picks):
            return "projected form uses an unknown letter class"
        if result.count != math.prod(len(groups[c]) for c in picks):
            return f"count {result.count} is not the product of the class sizes"
        word = tuple(groups[c][0] for c in picks)
    else:
        return f"unexpected result type {name}"
    if len(word) != n:
        return "normal form has the wrong length"
    if ref.prefix_normal and name == "UniqueNormalForm" and word != ref.indices:
        return "a prefix-normal word is not its own normal form"
    form = Reference(ref.kind, ref.payloads, word, exact_products=ref.exact)
    if not form.prefix_normal:
        return "normal form is not prefix normal"
    if not form.same_profile(ref):
        return "normal form has a different factor-weight profile"
    return None


def check_class_members(expected: frozenset, members) -> str | None:
    """The class is exactly the expected set of index tuples."""
    got = {tuple(word.indices) for word in members}
    if got != expected:
        missing, extra = len(expected - got), len(got - expected)
        return f"class has {len(got)} words: {missing} missing, {extra} not in the class"
    return None


def check_prefix_normal_set(ref: Reference, members) -> str | None:
    """The set is exactly the prefix-normal words with the input's profile."""
    got = {tuple(word.indices) for word in members}
    expected = ref.prefix_normal_words
    if got != expected:
        missing, extra = len(expected - got), len(got - expected)
        return f"set has {len(got)} words: {missing} missing, {extra} not in the expected set"
    return None


def expected_classes(kind: str, payloads, words) -> dict[tuple, frozenset]:
    """The factor-weight class of each word, by a scan of every same-length word.

    ``words`` all have one length n; the scan covers all |alphabet|^n words
    once and keeps only those whose profile belongs to one of ``words``.
    """
    def key(indices):
        return tuple(Reference(kind, payloads, indices).factor_max)

    targets = {key(indices): set() for indices in words}
    (n,) = {len(indices) for indices in words}
    for indices in product(range(len(payloads)), repeat=n):
        found = targets.get(key(indices))
        if found is not None:
            found.add(indices)
    return {indices: frozenset(targets[key(indices)]) for indices in words}


def check_binary_count(n: int, count) -> str | None:
    if count != BINARY_PN_COUNTS[n]:
        return f"count {count} for n={n}, expected {BINARY_PN_COUNTS[n]}"
    return None


def word_weight(kind: str, payloads, indices):
    ws = [payloads[i] for i in indices]
    if kind == NAT_SUM:
        return sum(ws)
    if kind == NAT_PRODUCT:
        return math.prod(ws)
    return (sum(a for a, _ in ws), sum(b for _, b in ws))


def check_equivalence(first, second, expected: bool, report) -> str | None:
    """``first``/``second`` are (kind, payloads) pairs over one alphabet."""
    if report.equivalent is not expected:
        return f"equivalent={report.equivalent}, expected {expected}"
    if expected:
        return None
    u, v = (tuple(w.indices) for w in report.witness)
    if len(u) != len(v) or u == v:
        return "witness is not a pair of distinct same-length words"
    a = [word_weight(*first, w) for w in (u, v)]
    b = [word_weight(*second, w) for w in (u, v)]
    if (a[0] < a[1], a[0] == a[1]) == (b[0] < b[1], b[0] == b[1]):
        return "witness pair compares the same way under both measures"
    return None


def check_gap_search(kind: str, payloads, expect_gap: bool, gap) -> str | None:
    if gap is None:
        return "no gap found, but the measure has one" if expect_gap else None
    if not expect_gap:
        return f"gap reported at {gap.word} for a gapfree measure"
    ref = Reference(kind, payloads, gap.word.indices)
    if not 1 <= gap.index <= len(ref.indices):
        return "gap index out of range"
    if any(ref.realises_step(gap.index, w) for w in set(payloads)):
        return f"step {gap.index} of {gap.word} is realised by a letter"
    return None


# The tail of a passing sweep's summary line.
CLEAN_SWEEP = ("VIOLATIONS", "0")


def check_sweep(exit_code: int, output: str) -> str | None:
    head = output.splitlines()[0] if output else ""
    parts = head.split()
    ok = (
        len(parts) == 6
        and parts[0] == "SUITE"
        and parts[2] == "CASES"
        and parts[3].isdigit()
        and int(parts[3]) > 0
        and tuple(parts[4:]) == CLEAN_SWEEP
    )
    if exit_code != 0 or not ok:
        return f"exit code {exit_code}, report {head!r}"
    return None
