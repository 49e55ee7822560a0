"""Factor-weight and prefix-weight profiles and the prefix-normal predicate.

The raw helpers at the top operate on bare payloads.  Two O(n^2) routes
compute factor maxima, both on ``monoid.int_view`` of the letter weights:

* ``factor_max_payloads`` builds the full profile, start-major (a running
  combine from every start).  ``weight_profile``, ``gap_indexes``,
  ``normality_conditions``, the sweeps and the class walk's target use it.
* ``factor_max_steps`` yields one length at a time, length-major (one row
  of window weights, grown by one letter per length with a C-level
  ``map``), so ``is_prefix_normal`` and ``prefix_normal_form`` stop at the
  first length that decides them.

Neither replaces the other.  On whole random words of 4-32 letters the
steps took 15-40 % longer than the full profile (CPython 3.11), as each
length pays for a new row; and a kept row value pins its allocation, so
collecting every step of a 2000-letter nat-product word raised peak RSS by
3.2 MiB where the full profile raised it by under 0.1 MiB.  Callers of the
steps therefore keep no yielded weight past the next step.  The
brute-force oracles keep their own definitional loop.  The public API
wraps results into MonoidValue.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from .errors import OutOfRange
from .monoid import MonoidValue, int_view

if TYPE_CHECKING:
    from .measure import Word, WeightMeasure


def factor_max_payloads(letter_weights: Sequence, indices: Sequence[int], ident, comb):
    """Per-length maximum factor weight and the leftmost start realising it.

    Returns the profile list (index 0 holds the identity) and, for each
    length, the leftmost start offset of a factor of that length with the
    maximum weight.  Start-major: a running combine from every start, one
    letter per step, so O(n^2) combines and one running value alive at a
    time.  Only combines are used, no inverse.

    The loop runs on ``monoid.int_view`` of the identity and the letter
    weights, with the word's length as the bound on a window; folded
    maxima are decoded with ``divmod``.
    """
    (ident, *ws), comb, scale = int_view((ident, *letter_weights), comb, len(indices))
    letters = [ws[i] for i in indices]
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


def factor_max_steps(letter_weights: Sequence, indices: Sequence[int], comb):
    """Yield ``(maximum factor weight, leftmost start)`` for lengths 1..n in order.

    Length-major: ``row[s]`` is the weight of the window of the current
    length at offset ``s``; each length extends every window by one letter,
    so a caller that stops after length k has paid for k rows.  Callers
    keep no yielded weight past the next step (see the module docstring).
    Takes the arguments of ``factor_max_payloads`` except the identity,
    which lengths from 1 never need, and runs on the same ``int_view``.
    """
    ws, comb, scale = int_view(letter_weights, comb, len(indices))
    letters = [ws[i] for i in indices]
    row = letters
    for size in range(1, len(letters) + 1):
        if size > 1:
            row = list(map(comb, row, letters[size - 1:]))
        best = max(row)
        yield (divmod(best, scale) if scale else best), row.index(best)


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

    def last_at_most(self, bound: MonoidValue) -> int:
        """Largest prefix length whose weight does not exceed ``bound``.

        Always defined: the empty prefix weighs the identity, the minimum
        of every supported carrier.  ``MonoidValue`` refuses a bound of
        another kind with ``ValueError``, and anything else with ``TypeError``.
        """
        return bisect_right(self.prefix, bound) - 1

    def first_at_least(self, bound: MonoidValue) -> int:
        """Smallest prefix length whose weight reaches ``bound``; refuses as ``last_at_most``."""
        if self.prefix[-1] < bound:
            raise OutOfRange(f"no prefix of {self.word} weighs {bound} or more")
        return bisect_left(self.prefix, bound)

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
    """True iff every prefix attains the maximum weight of its length class.

    That is, iff every length's leftmost maximising start is 0, so the
    steps stop at the first length where a later factor outweighs the prefix.
    """
    measure.check_word(word)
    steps = factor_max_steps(measure.payloads, word.indices, measure.combine)
    return not any(start for _, start in steps)


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
