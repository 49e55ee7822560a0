"""Factor-weight and prefix-weight profiles and the prefix-normal predicate.

The raw helpers at the top operate on bare payloads: ``factor_max_payloads``
is the O(n^2) kernel under every fast path (a running combine from every
start, with vec2-lex pairs folded into ints).  The brute-force oracles keep
their own definitional loop.  The public API wraps results into MonoidValue.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from operator import add
from typing import TYPE_CHECKING, Sequence

from .errors import OutOfRange
from .monoid import MonoidKind, MonoidValue, payload_combine

if TYPE_CHECKING:
    from .measure import Word, WeightMeasure

_VEC_ADD = payload_combine(MonoidKind.VEC2_LEX)


def factor_max_payloads(letter_weights: Sequence, indices: Sequence[int], ident, comb):
    """Per-length maximum factor weight and the leftmost start realising it.

    Returns the profile list (index 0 holds the identity) and, for each
    length, the leftmost start offset of a factor of that length with the
    maximum weight.  Start-major: a running combine from every start, one
    letter per step, so O(n^2) combines and one running value alive at a
    time.  Only combines are used, no inverse.

    vec2-lex pairs are folded into ints ``a * M + b`` for the kernel only,
    with ``M`` one more than the word's total second component.  No window
    sum can carry into the first component, so the ints order exactly as
    the pairs do lexicographically, and ``operator.add`` combines them in C;
    the maxima are decoded with ``divmod``.
    """
    letters = [letter_weights[i] for i in indices]
    scale = 0
    if comb is _VEC_ADD:
        scale = sum(b for _, b in letters) + 1
        letters = [a * scale + b for a, b in letters]
        ident, comb = 0, add
    # Every window weighs at least the identity, the minimum of every carrier,
    # so a strictly heavier window is the first to beat the initial entry.
    n = len(letters)
    best = [ident] * (n + 1)
    starts = [0] * (n + 1)
    for start in range(n):
        acc = ident
        for size, weight in enumerate(letters[start:], 1):
            acc = comb(acc, weight)
            if best[size] < acc:
                best[size] = acc
                starts[size] = start
    if scale:
        best = [divmod(v, scale) for v in best]
    return best, starts


def prefix_payloads(letter_weights: Sequence, indices: Sequence[int], ident, comb):
    out = [ident]
    acc = ident
    for i in indices:
        acc = comb(acc, letter_weights[i])
        out.append(acc)
    return out


def gap_indexes(measure: "WeightMeasure", word: "Word") -> list[int]:
    """Indexes whose factor-weight step no single letter can realise.

    A step is realised when its residual is a base weight.  This is the
    definition-level check; an empty list means the word
    exhibits no gap under the measure.
    """
    measure.check_word(word)
    f, _ = factor_max_payloads(
        measure.payloads, word.indices, measure.identity_payload, measure.combine
    )
    base, residual = set(measure.payloads), measure.residual
    return [i for i in range(1, len(f)) if residual(f[i - 1], f[i]) not in base]


@dataclass(frozen=True)
class WeightProfile:
    """Arrays of prefix and maximum-factor weights for one (measure, word) pair.

    ``factor_max[i]`` is the largest weight among the word's length-``i``
    factors, ``prefix[i]`` the weight of its length-``i`` prefix, and
    ``factor_starts[i]`` the leftmost offset where the maximum is attained.
    Index 0 always holds the identity.
    """

    word: "Word"
    measure: "WeightMeasure"
    factor_max: tuple[MonoidValue, ...]
    prefix: tuple[MonoidValue, ...]
    factor_starts: tuple[int, ...]

    def __len__(self):
        return len(self.word.indices)

    @cached_property
    def _prefix_payloads(self) -> list:
        return [value.payload for value in self.prefix]

    def _check_kind(self, bound: MonoidValue) -> None:
        if bound.kind is not self.measure.kind:
            raise ValueError(
                f"cannot query a {self.measure.kind.value} profile with a {bound.kind.value} value"
            )

    def last_at_most(self, bound: MonoidValue) -> int:
        """Largest prefix length whose weight does not exceed ``bound``.

        Always defined: the empty prefix weighs the identity, the minimum
        of every supported carrier.
        """
        self._check_kind(bound)
        return bisect_right(self._prefix_payloads, bound.payload) - 1

    def first_at_least(self, bound: MonoidValue) -> int:
        """Smallest prefix length whose weight reaches ``bound``."""
        self._check_kind(bound)
        payloads = self._prefix_payloads
        if bound.payload > payloads[-1]:
            raise OutOfRange(f"no prefix of {self.word} weighs {bound} or more")
        return bisect_left(payloads, bound.payload)

    def factor_witness(self, size: int) -> "Word":
        """The leftmost factor of the given length realising the maximum."""
        if not 0 <= size <= len(self):
            raise OutOfRange(f"no factor of {self.word} has length {size}")
        start = self.factor_starts[size]
        return replace(self.word, indices=self.word.indices[start:start + size])


def weight_profile(measure: "WeightMeasure", word: "Word") -> WeightProfile:
    measure.check_word(word)
    f, starts = factor_max_payloads(
        measure.payloads, word.indices, measure.identity_payload, measure.combine
    )
    p = prefix_payloads(measure.payloads, word.indices, measure.identity_payload, measure.combine)
    kind = measure.kind
    return WeightProfile(
        word=word,
        measure=measure,
        factor_max=tuple(MonoidValue(kind, v) for v in f),
        prefix=tuple(MonoidValue(kind, v) for v in p),
        factor_starts=tuple(starts),
    )


def is_prefix_normal(measure: "WeightMeasure", word: "Word") -> bool:
    """True iff every prefix attains the maximum weight of its length class."""
    measure.check_word(word)
    ws, ident, comb = measure.payloads, measure.identity_payload, measure.combine
    f, _ = factor_max_payloads(ws, word.indices, ident, comb)
    return prefix_payloads(ws, word.indices, ident, comb) == f


def normality_conditions(measure: "WeightMeasure", word: "Word") -> tuple[bool, bool, bool, bool]:
    """Evaluate four equivalent prefix-normality conditions independently.

    1. prefix weights equal the factor maxima;
    2. every prefix weight is bounded by the combine of the two prefix
       weights splitting it;
    3. every factor's weight is reached by a prefix no longer than it;
    4. position bound: last_at_most(a) + first_at_least(b) never exceeds
       first_at_least(a . b).

    Condition 4 is quantified over the finite set of factor weights of the
    word (plus the identity); the carrier itself is infinite.  Both position
    functions are step functions with at most n + 1 values, and a . b grows
    in both arguments, so only the least a of each last_at_most value and
    the least b of each first_at_least value are checked: O(n^2) pairs,
    where all pairs of factor weights would be O(n^4).
    """
    measure.check_word(word)
    ws, ident, comb = measure.payloads, measure.identity_payload, measure.combine
    idx = word.indices
    n = len(idx)
    f, _ = factor_max_payloads(ws, idx, ident, comb)
    p = prefix_payloads(ws, idx, ident, comb)

    direct = p == f

    split = True
    for j in range(1, n + 1):
        pj = p[j]
        if any(pj > comb(p[i], p[j - i]) for i in range(j)):
            split = False
            break

    # Shortest factor length per weight; checking the shortest occurrence
    # suffices because longer factors only weaken the inequality.
    shortest: dict = {}
    for start in range(n):
        acc = ident
        for end in range(start + 1, n + 1):
            acc = comb(acc, ws[idx[end - 1]])
            size = end - start
            known = shortest.get(acc)
            if known is None or size < known:
                shortest[acc] = size
    reach = all(bisect_left(p, weight) <= size for weight, size in shortest.items())

    total = p[n]
    least_a: dict = {}
    least_b: dict = {}
    for value in sorted(set(shortest) | {ident}):
        least_a.setdefault(bisect_right(p, value) - 1, value)
        least_b.setdefault(bisect_left(p, value), value)
    positions = all(
        last_a + first_b <= bisect_left(p, ab)
        for last_a, a in least_a.items()
        for first_b, b in least_b.items()
        if (ab := comb(a, b)) <= total
    )

    return (direct, split, reach, positions)
