"""Factor-weight and prefix-weight profiles and the prefix-normal predicate.

The raw helpers at the top operate on bare payloads.  Three O(n^2) routes
compute factor maxima, all on the ints of ``monoid.int_view``; each public
kernel decodes its view maxima in one place, with the view's ``decode``:

* ``factor_max_payloads`` builds the full profile, start-major (a running
  combine from every start).  ``weight_profile``, ``gap_indexes``,
  ``normality_conditions`` and the sweeps use it; the class walk takes
  its target from the undecoded half, ``_factor_max_ints``, in its own view.
* ``factor_max_steps`` yields one length at a time, length-major (one row
  of window weights, grown by one letter per length with a C-level
  ``map``), so ``is_prefix_normal`` and ``prefix_normal_form`` stop at the
  first length that decides them.
* ``_route`` alone chooses, for both, the packed rows of ``_packed_steps``
  over the loops: when the view is additive (``int_view`` returns
  ``operator.add``: nat-sum and folded vec2-lex), the word has at least
  ``_PACKED_MIN_LETTERS`` letters, and a field of at most
  ``_PACKED_MAX_FIELD_BITS`` bits holds the word's total weight below a
  spare guard bit.  All windows of one length then share one Python int,
  one field each, so a length costs a few big-int adds, shifts and masks
  that run in C instead of n Python-level combines.  The rows keep only
  the live windows: once the n - k + 1 windows of length k fall below 7/8
  of the fields kept, the fields above them are dropped
  (``_CUT_SHARE``), so each length works on ints of about its live
  windows, not of the whole word.  nat-product words of
  at least ``_LOG_MIN_LETTERS`` letters take them on ``monoid.log_view``:
  each weight w becomes L = floor(2^b log2 w), b = ``monoid.LOG_BITS`` =
  16, and the rows add logs.  A window's log sum lies less than ``slack``
  units per letter (1, or 2 where a float's floor is in doubt) below its
  scaled log, so each length is certified before it is yielded (see
  ``_packed_steps``) and decoded with ``monoid.window_products``: both
  kernels still return exact products, and the class walk, whose
  ``int_view`` keeps the products, still compares them with ``==``.

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
Re-measured with the live-window rows (nat-sum (1,2,3,4) and vec2-lex,
median over 12 words): random words took 0.5-0.6x at 24 letters, 0.8-0.9x
at 48 and 1.0-1.1x at 64, prefix-normal ones 0.9x at 24, 1.1-1.2x at 32
and 1.6-1.7x at 48, so 48 stays.

The log view pays per length for the band test and the decode, and its
steps seldom repeat, so it needs longer words (nat-product (2,3,5,7), best
of 11, full profile, median over 12 words): random words took 0.5x the
loops' speed at 48 letters, 0.9x at 128 and 1.1x at 160 (0.75-1.9x),
prefix-normal ones 1.0x at 48, 1.9x at 128 and 2.2x at 160; at 2000
letters (four words) 3.5x and 6.5x.  With the live-window rows the full
profile of random words won from 128 letters (0.94x at 96, 1.16x at 128,
1.37x at 160), but ``prefix_normal_form``, which stops after a few
lengths and still pays the log view's setup, took 1.3-1.45x as long on
random words of 128 and 144 letters (median over 20): so 160 stays.  On
the nat-product calls of two long-words rounds, b = 12, 16, 20, 24 and 32
took 0.99, 0.87, 0.91, 0.89 and 1.24 s; b = 16 keeps a field at 4 bytes
up to about 11 000 letters of weight 7.

A step that lies strictly between two letter steps, frequent for vec2-lex,
is settled by bisection while more than ``_FEW_WINDOWS`` windows reach the
lower step and read off those windows' bytes below that.  Each alone loses
(vec2-lex over the long-words letters, best of 9, against the split):
bisection alone took 1.7-2.3x as long on random words of 250-2000
letters, where a few windows pass; reading alone took 2.1x as long on
the 1000-letter periodic word ((0,3) (2,0) (1,1) (1,2) (1,1))^200, where
hundreds pass (slower than the loops), and 2.6x on ((0,3) (2,0)^6) repeated.
Thresholds from 8 to 64 read within 10 % of 16 on all of them.

The cut share is measured over 27 full profiles (the three carriers at
250, 1000 and 2000 letters, random, sorted and periodic, best of 5,
summed): keeping every field took 790 ms; dropping the fields above the
live windows once those were more than 1/2, 1/4, 1/8, 1/16 or 1/32 of
the kept fields took 610, 562, 540, 589 and 528 ms, from 1/8 on within
the machine's noise.

The full profile and the steps do not replace each other.  On whole
random words of 4-32 letters the steps took 15-40 % longer than the full
profile, as each length pays for a new row; and a kept row value pins its
allocation, so collecting every step of a random 2000-letter nat-product
word on the loops raised peak RSS by 3.3-7.4 MiB where the full profile
raised it by under 0.1 MiB (on the log view, by 0.25-0.4 and 0.25 MiB).  Callers of the steps therefore keep no yielded weight past the
next step.  The brute-force oracles keep their own definitional loop.
The public API wraps results into MonoidValue.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from operator import add, mul
from typing import TYPE_CHECKING, Sequence

from .errors import OutOfRange
from .monoid import MonoidValue, computed_value, int_view, log_view, window_products

if TYPE_CHECKING:
    from .measure import Word, WeightMeasure

# The packed rows run from this many letters (on the log view, from the
# second count), on fields of at most this many bits, read off at most this
# many windows where they would otherwise bisect, and drop the fields above
# the live windows once those are more than 1/_CUT_SHARE of the fields kept
# (see the module docstring).
_PACKED_MIN_LETTERS = 48
_LOG_MIN_LETTERS = 160
_PACKED_MAX_FIELD_BITS = 64
_FEW_WINDOWS = 16
_CUT_SHARE = 8


def factor_max_payloads(letter_weights: Sequence, indices: Sequence[int], ident, comb):
    """Per-length maximum factor weight and the leftmost start realising it.

    Returns the profile list (index 0 holds the identity) and, for each
    length, the leftmost start offset of a factor of that length with the
    maximum weight.  The work runs on ``monoid.int_view`` of the identity
    and the letter weights, with the word's length as the bound on a
    window, and the view's maxima are decoded once at the end.
    """
    (ident, *ws), comb, decode = int_view((ident, *letter_weights), comb, len(indices))
    best, starts = _factor_max_ints([ws[i] for i in indices], ident, comb)
    return (list(map(decode, best)) if decode else best), starts


def _factor_max_ints(letters: list, ident, comb):
    """``factor_max_payloads`` of a word's letter weights in one ``int_view``, undecoded.

    Start-major: a running combine from every start, one letter per step,
    so O(n^2) combines and one running value alive at a time.  Only
    combines are used, no inverse.  Inputs that pack (see the module
    docstring) take the packed rows instead.
    """
    packed = _route(letters, comb)
    if packed:
        best, starts = [ident], [0]
        for weight, start in _packed_steps(*packed):
            best.append(weight)
            starts.append(start)
        return best, starts
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
    ws, comb, decode = int_view(letter_weights, comb, len(indices))
    letters = [ws[i] for i in indices]
    # ``rows`` holds the packed rows once they are chosen.  Length 1 is read
    # off the letters, so a caller that stops there pays for neither the
    # route choice nor the packed rows.
    row, rows = letters, None
    for k in range(len(letters)):  # windows of k + 1 letters
        if rows is None:
            if k:
                row = list(map(comb, row, letters[k:]))
            best = max(row)
            start = row.index(best)
        else:
            best, start = next(rows)
        yield (decode(best) if decode else best), start
        if not k and (packed := _route(letters, comb)):
            rows = _packed_steps(*packed)
            next(rows)  # length 1, yielded above


def _route(letters: list, comb):
    """The arguments of ``_packed_steps`` for a word's view letters, or None where the loops run.

    The packed rows take additive views of at least ``_PACKED_MIN_LETTERS``
    letters, and nat-product words of at least ``_LOG_MIN_LETTERS`` through
    ``monoid.log_view``, unless the logs of two of their weights lie within
    the band of the whole word, ``slack`` * n: windows that trade one such
    letter for the other would crowd the bands of long lengths into the
    exact fallback (random 250-letter words over (1000, 1001, 999, 7),
    logs 94 apart, fell back at 89 lengths and took 1.7x the loops' time).
    A field of at most ``_PACKED_MAX_FIELD_BITS`` bits must hold below a
    spare top bit, the guard, the word's total (the measured crossovers of
    the module docstring); on the log view n times the largest log bounds
    it, and the field must also hold the band and the certificate's count
    digits.  The length limit is tested first, as it costs no pass over
    the word.
    """
    n = len(letters)
    if n < _PACKED_MIN_LETTERS:
        return None
    if comb is add:
        top, exact = sum(letters), None
    elif comb is mul and n >= _LOG_MIN_LETTERS:
        logs, slack = exact = log_view(set(letters))
        ranked = sorted(logs.values())
        if any(high - low <= slack * n for low, high in zip(ranked, ranked[1:])):
            return None
        top = max(n * max(logs.values()), slack * n, (n + 1) ** max(len(logs) - 2, 0))
    else:
        return None
    size = top.bit_length() // 8 + 1
    return (letters, size, exact) if 8 * size <= _PACKED_MAX_FIELD_BITS else None


def _packed_steps(letters: list, size: int, exact=None):
    """``factor_max_steps`` of a word's nonnegative int letter weights under ``+``, on packed rows.

    ``row`` holds every window of the current length k in fields of
    ``size`` bytes, field s the window that starts at s, less the maximum
    M(k-1) of the previous length, plus the guard (the top bit of a field,
    which no window's weight reaches).  Growing every window by a letter is
    one big-int add.  ``at_least(e)`` subtracts e from every field, so the
    guard bits left set mark the windows weighing at least M(k-1) + e, the
    lowest one the leftmost.  Fields past n - k hold shorter suffixes, which
    weigh at most M(k-1): they pass no test with e > 0, and a real window
    below them passes every test they pass.  So the rows keep only
    ``kept`` fields: once the fields past n - k are more than
    1/``_CUT_SHARE`` of them, ``row``, ``ones`` and ``guards`` drop those
    fields, and every later length works on ints of about its live windows.
    The one-run mask of ``certify`` takes ``kept`` fields too.

    M(k) - M(k-1) lies between the lightest and the heaviest letter.  The
    previous step is tried first: when it repeats, two tests settle M(k).
    Otherwise the letter steps are tried from the heaviest down, and a step
    strictly between two letter steps is read off the few windows above
    the lower one, or bisected while they are many.

    With ``exact`` = ``(logs, slack)`` of ``monoid.log_view``, the letters
    are nat-product weights and the fields hold their logs; each length is
    certified and decoded before it is yielded.  Every window of the
    greatest product sums to less than ``slack`` * k below its scaled log,
    which is at least the largest log sum M: so it lies in the band of
    windows above M - ``slack`` * k, one more test.  ``certify`` then runs,
    in order of cost:

    1. The band, masked to the real windows once.  When it holds one
       window, at the leftmost start, that window is the answer.
    2. When every window of the band sits at M with the same letter
       counts, so the same product, their leftmost is.  They do when they
       form one run, as neighbours at M trade two letters of one log, and
       so of one weight (``_route`` admits no two weights of one log); or
       when no two multisets of k logs share a sum (tried while there are
       few).
    3. The count row: field s the count digits of the window at s, from
       the packed prefix digits of ``_prefix_digits``, built once.  When
       every window of the band sits at M and their digits agree, their
       leftmost is the answer; otherwise ``_exact_max`` compares exact
       products, one per distinct log sum and count digits of that row.

    The maximum is decoded with ``monoid.window_products``.
    """
    width = 8 * size
    guard = 1 << (width - 1)  # the guard bit of field 0
    low = (1 << width) - 1  # the bits of field 0
    n = len(letters)
    if exact:
        logs, slack = exact
        window = window_products(letters)
        digits = None  # ``_prefix_digits``, built when a band first needs them
        # Up to ``distinct`` letters, no two multisets of the logs share a sum;
        # ``level`` holds the sums of ``distinct`` logs while it is worth growing.
        distinct, level = 1, set(logs.values())
    # Only the weights the word uses: the field is sized by its total.
    view = logs if exact else {w: w for w in set(letters)}
    fields = {w: v.to_bytes(size, "little") for w, v in view.items()}
    packed = int.from_bytes(b"".join(map(fields.__getitem__, letters)), "little")
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * n, "little")
    guards = ones << (width - 1)
    up = sorted(view.values(), reverse=True)
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

    def certify(k, start):
        # (the exact maximum of the windows of k letters, its leftmost start)
        nonlocal digits, distinct, level
        real = width * (n + 1 - k)  # the bits of the fields of real windows
        band = (row + (slack * k - 1) * ones) & guards
        if band.bit_length() > real:  # shorter suffixes
            band &= (1 << real) - 1
        if band == guard << width * start:
            return window(start, k), start
        at_max = row & band == band  # every window of the band sits at M
        if at_max:
            # One run: neighbours at M trade letters of one log, so of one weight.
            end = band.bit_length() // width  # past the last one
            if band == guards >> width * (kept - end + start) << width * start:
                return window(start, k), start
            while distinct < k and level:
                grown = {total + log for total in level for log in up}
                if len(grown) < math.comb(len(up) + distinct, distinct + 1):
                    level = None  # two multisets of distinct + 1 logs share a sum
                else:
                    distinct += 1
                    # Grow it while that costs less than the digits.
                    level = grown if len(grown) * len(up) <= n else None
            if k <= distinct:
                return window(start, k), start  # no other multiset of k logs sums to M
        if digits is None:
            digits = _prefix_digits(letters, logs, size)
        # Field s: the count digits of the window of k letters at s (past n - k, garbage).
        counted = (digits >> width * k) - digits
        first = counted >> width * start & low
        if at_max and not (counted ^ first * ones) & (band >> width - 1) * low:
            return window(start, k), start
        return _exact_max(band, row, counted & (1 << real) - 1, size, k, window)

    kept, cut = n, n - n // _CUT_SHARE  # fields in the rows; cut them below ``cut`` live windows
    for k in range(n):
        if n - k < cut:  # drop the fields above the live windows
            kept = n - k
            cut = kept - kept // _CUT_SHARE
            mask = (1 << width * kept) - 1
            row &= mask
            ones &= mask
            guards &= mask
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
        yield certify(k + 1, start) if exact else (best, start)


def _exact_max(band: int, row: int, counted: int, size: int, k: int, window) -> tuple[int, int]:
    """``(greatest product, leftmost start)`` of the windows of k letters marked in ``band``.

    The certificate's fallback in ``_packed_steps``.  A window's field in
    ``row`` (its log sum less a constant) and in ``counted`` (its count
    digits, see ``_prefix_digits``) fix its letter counts, so one exact
    product is taken per distinct pair; the windows go in order, so the
    first to reach the greatest product is the leftmost.
    """
    length = (max(band.bit_length(), row.bit_length(), counted.bit_length()) + 7) // 8
    marks, sums, digits = (v.to_bytes(length, "little") for v in (band, row, counted))
    top, seen = 0, set()
    end = marks.find(0x80)  # the top byte of a marked field
    while end >= 0:
        key = sums[end + 1 - size:end + 1], digits[end + 1 - size:end + 1]
        if key not in seen:
            seen.add(key)
            value = window(end // size, k)
            if top < value:
                top, start = value, end // size
        end = marks.find(0x80, end + 1)
    return top, start


def _prefix_digits(words: list, logs: dict, size: int) -> int:
    """A nat-product word's prefix count digits, one field of ``size`` bytes each, field s for s letters.

    Every weight but the lightest and the heaviest gets a digit in base
    n + 1, so the digits of a window, the sum of its letters', count its
    letters of each such weight (``_route`` sizes the fields to hold them).
    Two windows of one length and one log sum with equal digits also hold
    equal counts of the other two weights, as these two weights' logs
    differ (``_route`` sees to that): so they weigh the same.  The prefix
    sums are taken on the packed letters, each pass adding the row to
    itself shifted by twice as many fields as the last.
    """
    n, width = len(words), 8 * size
    digit = dict.fromkeys(logs, bytes(size))
    digit.update((w, ((n + 1) ** i).to_bytes(size, "little")) for i, w in enumerate(sorted(logs)[1:-1]))
    row = int.from_bytes(b"".join(map(digit.__getitem__, words)), "little")
    shift = width
    while shift < width * n:
        row += row << shift
        shift *= 2
    return (row & (1 << width * n) - 1) << width


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
    """The prefix and factor-maximum weights of ``word`` under ``measure``."""
    measure.check_word(word)
    f, starts = factor_max_payloads(
        measure.payloads, word.indices, measure.identity_payload, measure.combine
    )
    p = prefix_payloads(measure.payloads, word.indices, measure.identity_payload, measure.combine)
    kind = measure.kind
    return WeightProfile(
        word=word,
        measure=measure,
        factor_max=tuple(computed_value(kind, v) for v in f),
        prefix=tuple(computed_value(kind, v) for v in p),
        factor_starts=tuple(starts),
    )


def is_prefix_normal(measure: "WeightMeasure", word: "Word") -> bool:
    """True iff every prefix attains the maximum weight of its length class.

    That is, iff every length's leftmost maximising start is 0, so the
    steps stop at the first length where a later factor outweighs the prefix.

    Powers of a word need only its square: for k ≥ 2, u^k is prefix normal
    iff u·u is (the finite side of Cicalese, Lipták and Rossi, "On infinite
    prefix normal words", SOFSEM 2019).  A prefix of a prefix-normal word is
    prefix normal, so u^k passing implies u·u does.  Conversely, all three
    carriers commute and keep their order under combining.  A factor of u^k
    of length q·|u| + r holds q rotations of u, each weighing w(u), and a
    cyclic window of u of r letters; the prefix of that length is q copies
    of u and the prefix of u of r letters.  Every cyclic window of u is a
    factor of u·u, so when u·u is prefix normal no window outweighs that
    prefix of u, and combining both sides with w(u) q times keeps the
    order.  Pinned by a hypothesis test over the three carriers; ultimately
    periodic words v·u^ω are open.
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
