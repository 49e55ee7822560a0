"""Factor-weight and prefix-weight profiles and the prefix-normal predicate.

The raw helpers at the top operate on bare payloads.  Three O(n^2) routes
compute factor maxima, all on ``monoid.int_view`` of the letter weights:

* ``factor_max_payloads`` builds the full profile, start-major (a running
  combine from every start).  ``weight_profile``, ``gap_indexes``,
  ``normality_conditions``, the sweeps and the class walk's target use it.
* ``factor_max_steps`` yields one length at a time, length-major (one row
  of window weights, grown by one letter per length with a C-level
  ``map``), so ``is_prefix_normal`` and ``prefix_normal_form`` stop at the
  first length that decides them.
* Both hand over to the packed rows of ``_packed_steps`` when the view is
  additive (``int_view`` returns ``operator.add``: nat-sum and folded
  vec2-lex), the word has at least ``_PACKED_MIN_LETTERS`` letters, and a
  field of at most ``_PACKED_MAX_FIELD_BITS`` bits holds the word's total
  weight below a spare guard bit.  All windows of one length then share
  one Python int, one field each, so a length costs a few big-int adds,
  shifts and masks that run in C instead of n Python-level combines.
  nat-product keeps its loops: a product does not add field by field.

The limits are measured crossovers (CPython 3.11.7, shared 2-CPU x86_64,
best of 9, packed against loops over the same words).  Prefix-normal
words, whose steps repeat, took 0.7-0.9x the loops' speed at 16 letters
and won from 24 (1.1-1.4x at 24, 1.8-2.0x at 48).  Uniform random words,
whose steps change at most lengths and cost several tests each, took
0.6-0.8x at 32 letters, 0.9-1.2x at 48 and 1.0-1.3x at 64.  At 250
letters the packed rows were 1.1-2.7x on random words and 3.3-5.2x on
prefix-normal ones; at 2000, 1.9-7.2x and 3.3-9.9x.  On 250-letter
nat-sum words they still won with 56-64-bit fields (random 1.0-1.1x,
prefix normal 1.8-2.1x) and lost from 72 bits (random 0.4-0.75x), as every
operation grows with the field while the loops' ints stay small.

A step that lies strictly between two letter steps, frequent for vec2-lex,
is settled by bisection while more than ``_FEW_WINDOWS`` windows reach the
lower step and read off those windows' bytes below that.  Each alone loses
(vec2-lex over the long-words letters, best of 9, against the split):
bisection alone took 1.7-2.3x as long on random words of 250-2000
letters, where a few windows pass; reading alone took 2.1x as long on
the 1000-letter periodic word ((0,3) (2,0) (1,1) (1,2) (1,1))^200, where
hundreds pass (slower than the loops), and 2.6x on ((0,3) (2,0)^6) repeated.
Thresholds from 8 to 64 read within 10 % of 16 on all of them.

The full profile and the steps do not replace each other.  On whole
random words of 4-32 letters the steps took 15-40 % longer than the full
profile, as each length pays for a new row; and a kept row value pins its
allocation, so collecting every step of a 2000-letter nat-product word
raised peak RSS by 3.2 MiB where the full profile raised it by under
0.1 MiB.  Callers of the steps therefore keep no yielded weight past the
next step.  The brute-force oracles keep their own definitional loop.
The public API wraps results into MonoidValue.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from operator import add
from typing import TYPE_CHECKING, Sequence

from .errors import OutOfRange
from .monoid import MonoidValue, int_view

if TYPE_CHECKING:
    from .measure import Word, WeightMeasure

# The packed rows run from this many letters, on fields of at most this many
# bits, and read off at most this many windows where they would otherwise
# bisect (see the module docstring).
_PACKED_MIN_LETTERS = 48
_PACKED_MAX_FIELD_BITS = 64
_FEW_WINDOWS = 16


def factor_max_payloads(letter_weights: Sequence, indices: Sequence[int], ident, comb):
    """Per-length maximum factor weight and the leftmost start realising it.

    Returns the profile list (index 0 holds the identity) and, for each
    length, the leftmost start offset of a factor of that length with the
    maximum weight.  Start-major: a running combine from every start, one
    letter per step, so O(n^2) combines and one running value alive at a
    time.  Only combines are used, no inverse.  Inputs that pack (see the
    module docstring) take the packed rows instead.

    The loop runs on ``monoid.int_view`` of the identity and the letter
    weights, with the word's length as the bound on a window; folded
    maxima are decoded with ``divmod``.
    """
    (ident, *ws), comb, scale = int_view((ident, *letter_weights), comb, len(indices))
    letters = [ws[i] for i in indices]
    packed = len(letters) >= _PACKED_MIN_LETTERS and _field_bytes(letters, comb)
    if packed:
        best, starts = [ident], [0]
        for weight, start in _packed_steps(letters, packed):
            best.append(weight)
            starts.append(start)
    else:
        # Every window weighs at least the identity, the minimum of every
        # carrier, so a strictly heavier window is the first to beat the
        # initial entry.
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
    which lengths from 1 never need, and runs on the same ``int_view``;
    inputs that pack take the packed rows.
    """
    ws, comb, scale = int_view(letter_weights, comb, len(indices))
    letters = [ws[i] for i in indices]
    if not letters:
        return
    # Length 1 is read off the letters, so a caller that stops there pays
    # for neither the route choice nor the packed rows.
    best = max(letters)
    yield (divmod(best, scale) if scale else best), letters.index(best)
    packed = len(letters) >= _PACKED_MIN_LETTERS and _field_bytes(letters, comb)
    if packed:
        steps = _packed_steps(letters, packed)
        next(steps)  # length 1, yielded above
        for best, start in steps:
            yield (divmod(best, scale) if scale else best), start
        return
    row = letters
    for size in range(1, len(letters)):
        row = list(map(comb, row, letters[size:]))
        best = max(row)
        yield (divmod(best, scale) if scale else best), row.index(best)


def _field_bytes(letters: list, comb) -> int:
    """Bytes per field of the packed rows for the word's letter weights, or 0 where they do not run.

    One field holds any window's weight with its top bit clear, the guard;
    the width limit is the measured crossover of the module docstring.
    Callers check the length limit first, as it costs no pass over the word
    and no call.
    """
    if comb is not add:
        return 0
    size = sum(letters).bit_length() // 8 + 1
    return size if 8 * size <= _PACKED_MAX_FIELD_BITS else 0


def _packed_steps(letters: list, size: int):
    """``factor_max_steps`` of a word's nonnegative int letter weights under ``+``, on packed rows.

    ``row`` holds every window of the current length k in fields of
    ``size`` bytes, field s the window that starts at s, less the maximum
    M(k-1) of the previous length, plus the guard (the top bit of a field,
    which no window's weight reaches).  Growing every window by a letter is
    one big-int add.  ``at_least(e)`` subtracts e from every field, so the
    guard bits left set mark the windows weighing at least M(k-1) + e, the
    lowest one the leftmost.  Fields past n - k hold shorter suffixes, which
    weigh at most M(k-1): they pass no test with e > 0, and a real window
    below them passes every test they pass.

    M(k) - M(k-1) lies between the lightest and the heaviest letter.  The
    previous step is tried first: when it repeats, two tests settle M(k).
    Otherwise the letter steps are tried from the heaviest down, and a step
    strictly between two letter steps is read off the few windows above
    the lower one, or bisected while they are many.
    """
    width = 8 * size
    guard = 1 << (width - 1)  # the guard bit of field 0
    n = len(letters)
    # Only the weights the word uses: the field is sized by its total.
    fields = {w: w.to_bytes(size, "little") for w in set(letters)}
    packed = int.from_bytes(b"".join(map(fields.__getitem__, letters)), "little")
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * n, "little")
    guards = ones << (width - 1)
    up = sorted(fields, reverse=True)
    row, best, step = guards, 0, up[0]

    def at_least(e):
        return (row - e * ones) & guards if best + e < guard else 0

    def settle(e, hit, above):
        # (M(k) - M(k-1), leftmost start) when the previous step e did not repeat.
        hi = up[0] + 1  # the step is below hi
        if hit:
            lo, hit = e + 1, above
        else:
            hi = e
            for lo in up:
                if lo < hi:
                    hit = at_least(lo)
                    if hit:
                        break
                    hi = lo
            above = at_least(lo + 1) if lo + 1 < hi else 0
            if not above:
                return lo, _leftmost(hit, width)
            lo, hit = lo + 1, above
        # lo <= the step < hi, and hit marks the windows that reach lo.
        while lo + 1 < hi and hit.bit_count() > _FEW_WINDOWS:
            mid = (lo + hi) // 2
            above = at_least(mid)
            if above:
                lo, hit = mid, above
            else:
                hi = mid
        if lo + 1 == hi:
            return lo, _leftmost(hit, width)
        top, start = _heaviest(row, hit, size)
        return top - guard, start

    for k in range(n):
        row += packed >> width * k
        hit = above = 0
        if best + step < guard:
            moved = row - step * ones
            hit = moved & guards
            if hit:
                above = (moved - ones) & guards
        if hit and not above:
            row = moved
            start = _leftmost(hit, width)
        else:
            step, start = settle(step, hit, above)
            row -= step * ones
        best += step
        yield best, start


def _leftmost(hit: int, width: int) -> int:
    """The field of the lowest guard bit set in ``hit``."""
    return (hit & -hit).bit_length() // width - 1


def _heaviest(row: int, hit: int, size: int) -> tuple[int, int]:
    """``(value, field)`` of the leftmost largest field of ``row`` whose guard bit is set in ``hit``."""
    weights = row.to_bytes((row.bit_length() + 7) // 8, "little")
    guards = hit.to_bytes(hit.bit_length() // 8, "little")
    top = start = -1
    end = guards.find(0x80)  # the top byte of a field
    while end >= 0:
        weight = int.from_bytes(weights[end + 1 - size:end + 1], "little")
        if weight > top:
            top, start = weight, end // size
        end = guards.find(0x80, end + 1)
    return top, start


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
