import itertools
import random
from bisect import bisect_left, bisect_right
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ABC, ANB, ANCB, sum_measure, vec_measure, w
from prefixnorm import (
    Alphabet,
    MonoidValue,
    NoNormalForm,
    OutOfRange,
    WeightMeasure,
    Word,
    is_prefix_normal,
    normality_conditions,
    prefix_normal_form,
    subset_measure,
    weight_profile,
)
from prefixnorm import monoid, profile
from prefixnorm.monoid import MonoidKind, payload_combine, payload_identity
from prefixnorm.oracle import (
    _running_factor_max, _running_rows, classic_max_ones, is_prefix_normal_classic,
)
from prefixnorm.profile import factor_max_payloads, factor_max_steps, prefix_payloads

MU = sum_measure(ANB, 1, 2, 3)


def payloads(values):
    return [v.payload for v in values]


def test_profile_table_fixtures():
    nanaba = weight_profile(MU, w(ANB, "nanaba"))
    assert payloads(nanaba.prefix) == [0, 2, 3, 5, 6, 9, 10]
    assert payloads(nanaba.factor_max) == [0, 3, 4, 6, 7, 9, 10]
    banana = weight_profile(MU, w(ANB, "banana"))
    assert payloads(banana.prefix) == payloads(banana.factor_max)
    assert payloads(banana.prefix) == [0, 3, 4, 6, 7, 9, 10]


def test_profile_of_gapful_example():
    measure = sum_measure(ABC, 1, 2, 4)
    profile = weight_profile(measure, w(ABC, "ccabccb"))
    assert payloads(profile.factor_max) == [0, 4, 8, 10, 12, 15, 19, 21]


def test_factor_witnesses_are_leftmost_maximisers():
    profile = weight_profile(MU, w(ANB, "nanaba"))
    witnesses = [str(profile.factor_witness(i)) for i in range(1, 7)]
    assert witnesses == ["b", "ab", "nab", "anab", "nanab", "nanaba"]
    for size in range(7):
        witness = profile.factor_witness(size)
        assert len(witness) == size
        assert MU.weight(witness) == profile.factor_max[size]


@pytest.mark.parametrize("size", [-1, 4])
def test_factor_witness_rejects_sizes_outside_the_word(size):
    profile = weight_profile(sum_measure(ABC, 1, 2, 3), w(ABC, "cab"))
    assert str(profile.factor_witness(0)) == ""
    assert str(profile.factor_witness(3)) == "cab"
    with pytest.raises(OutOfRange):
        profile.factor_witness(size)


def test_is_prefix_normal_fixtures():
    assert is_prefix_normal(MU, w(ANB, "banana"))
    assert not is_prefix_normal(MU, w(ANB, "nanaba"))
    assert is_prefix_normal(MU, w(ANB, ""))


def test_empty_word_profile():
    profile = weight_profile(MU, w(ANB, ""))
    assert payloads(profile.prefix) == [0]
    assert payloads(profile.factor_max) == [0]


def value(payload):
    return MonoidValue(MonoidKind.NAT_SUM, payload)


def test_last_at_most_on_banana():
    profile = weight_profile(MU, w(ANB, "banana"))
    assert profile.last_at_most(value(6)) == 3
    assert profile.last_at_most(value(5)) == 2
    assert profile.last_at_most(value(0)) == 0
    assert profile.last_at_most(value(99)) == 6


def test_first_at_least_on_banana():
    profile = weight_profile(MU, w(ANB, "banana"))
    assert profile.first_at_least(value(6)) == 3
    assert profile.first_at_least(value(5)) == 3
    assert profile.first_at_least(value(0)) == 0
    with pytest.raises(OutOfRange):
        profile.first_at_least(value(11))


_QUERY_WEIGHTS = {
    MonoidKind.NAT_SUM: lambda rng: rng.randint(1, 9),
    MonoidKind.NAT_PRODUCT: lambda rng: rng.randint(2, 9),
    MonoidKind.VEC2_LEX: lambda rng: (rng.randint(0, 3), rng.choice((1, 2, 1000))),
}


@pytest.mark.parametrize("kind", list(MonoidKind), ids=lambda kind: kind.value)
def test_position_queries_match_a_linear_scan(kind):
    # Bounds: every prefix weight, every factor maximum, and one value
    # above the total, which no prefix reaches.
    rng = random.Random(2005)
    for _ in range(150):
        weights = [_QUERY_WEIGHTS[kind](rng) for _ in range(rng.randint(1, 4))]
        measure = WeightMeasure(Alphabet(tuple("abcd"[: len(weights)])), kind, weights)
        word = _random_word(measure, rng.randint(0, 60), rng.randrange(2**31))
        profile = weight_profile(measure, word)
        p = payloads(profile.prefix)
        above = measure.combine(p[-1], max(weights))
        for bound in {*p, *payloads(profile.factor_max), above}:
            query = MonoidValue(kind, bound)
            assert profile.last_at_most(query) == max(k for k, x in enumerate(p) if x <= bound)
            reached = [k for k, x in enumerate(p) if x >= bound]
            if reached:
                assert profile.first_at_least(query) == reached[0]
            else:
                assert bound == above
                with pytest.raises(OutOfRange):
                    profile.first_at_least(query)
        assert profile.last_at_most(MonoidValue(kind, above)) == len(word)


def test_position_queries_reject_foreign_kinds():
    profile = weight_profile(MU, w(ANB, "banana"))
    with pytest.raises(ValueError, match="nat-sum"):
        profile.last_at_most(MonoidValue(MonoidKind.NAT_PRODUCT, 5))


@pytest.mark.parametrize("query", ["last_at_most", "first_at_least"])
def test_position_queries_reject_bare_payloads(query):
    profile = weight_profile(MU, w(ANB, "banana"))
    with pytest.raises(TypeError, match="expected a MonoidValue, got int"):
        getattr(profile, query)(5)


def test_normality_conditions_fixtures():
    assert normality_conditions(MU, w(ANB, "banana")) == (True, True, True, True)
    assert normality_conditions(MU, w(ANB, "nanaba")) == (False, False, False, False)
    assert normality_conditions(MU, w(ANB, "")) == (True, True, True, True)


def test_binary_reduction_small():
    measure = subset_measure(Alphabet(("0", "1")), {"1"})
    for n in range(0, 9):
        for bits in itertools.product((0, 1), repeat=n):
            word = Word(measure.alphabet, bits)
            profile = weight_profile(measure, word)
            classic = classic_max_ones(bits)
            assert [v.payload - i for i, v in enumerate(profile.factor_max)] == classic
            assert is_prefix_normal(measure, word) == is_prefix_normal_classic(bits)


# --- randomized invariants ----------------------------------------------------


def _measures():
    sums = st.lists(st.integers(1, 9), min_size=2, max_size=4).map(
        lambda ws: sum_measure(Alphabet(tuple("abcd"[: len(ws)])), *ws)
    )
    vec_component = st.integers(0, 3)
    vecs = st.lists(
        st.tuples(vec_component, vec_component).filter(lambda p: p != (0, 0)),
        min_size=2,
        max_size=3,
    ).map(lambda ws: vec_measure(Alphabet(tuple("abc"[: len(ws)])), *ws))
    return st.one_of(sums, vecs)


measure_and_word = _measures().flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(st.integers(0, len(m.alphabet) - 1), max_size=6).map(
            lambda idx: Word(m.alphabet, tuple(idx))
        ),
    )
)


@given(measure_and_word)
def test_profiles_strictly_increase_and_prefix_below_factor_max(case):
    measure, word = case
    profile = weight_profile(measure, word)
    for i in range(len(word)):
        assert profile.factor_max[i] < profile.factor_max[i + 1]
        assert profile.prefix[i] < profile.prefix[i + 1]
    for i in range(len(word) + 1):
        assert profile.prefix[i] <= profile.factor_max[i]


@given(measure_and_word)
def test_factor_max_subadditive(case):
    measure, word = case
    f = payloads(weight_profile(measure, word).factor_max)
    for j in range(1, len(word) + 1):
        for i in range(j):
            assert f[j] <= measure.combine(f[i], f[j - i])


@given(measure_and_word)
def test_reversal_preserves_factor_profile(case):
    measure, word = case
    forward = weight_profile(measure, word)
    backward = weight_profile(measure, word.reversed())
    assert forward.factor_max == backward.factor_max


@given(measure_and_word)
def test_four_conditions_agree(case):
    measure, word = case
    verdicts = normality_conditions(measure, word)
    assert len(set(verdicts)) == 1
    assert verdicts[0] == is_prefix_normal(measure, word)


_CONDITION_WEIGHTS = {
    MonoidKind.NAT_SUM: st.integers(1, 6),
    MonoidKind.NAT_PRODUCT: st.integers(2, 9),
    MonoidKind.VEC2_LEX: st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda p: p != (0, 0)
    ),
}


@st.composite
def _condition_cases(draw):
    # Half of the words are sorted by descending weight, hence prefix normal.
    kind = draw(st.sampled_from(list(MonoidKind)))
    weights = draw(st.lists(_CONDITION_WEIGHTS[kind], min_size=1, max_size=4))
    measure = WeightMeasure(Alphabet(tuple("abcd"[: len(weights)])), kind, weights)
    indices = draw(st.lists(st.integers(0, len(weights) - 1), max_size=12))
    if draw(st.booleans()):
        indices.sort(key=lambda i: weights[i], reverse=True)
    return measure, Word(measure.alphabet, tuple(indices))


def _position_bound_over_all_pairs(measure, word):
    """Condition 4 over every pair of factor weights, the empty factor included."""
    p = payloads(weight_profile(measure, word).prefix)
    n = len(word)
    values = {
        measure.weight_payload(Word(word.alphabet, word.indices[i:j]))
        for i in range(n + 1)
        for j in range(i, n + 1)
    }
    comb = measure.combine
    return all(
        bisect_right(p, a) - 1 + bisect_left(p, b) <= bisect_left(p, comb(a, b))
        for a in values
        for b in values
        if comb(a, b) <= p[-1]
    )


@given(_condition_cases())
def test_position_bound_matches_all_pairs_of_factor_weights(case):
    measure, word = case
    assert normality_conditions(measure, word)[3] == _position_bound_over_all_pairs(measure, word)


def _heaviest_rotation(measure, period):
    """The rotation of the period with the heaviest prefixes, compared length by length.

    When some rotation's powers are prefix normal, its prefixes outweigh
    those of every other rotation, so this rotation's powers are too.
    """
    ws, ident, comb = measure.payloads, measure.identity_payload, measure.combine
    rotations = [period[i:] + period[:i] for i in range(len(period))]
    return max(rotations, key=lambda rotation: prefix_payloads(ws, rotation, ident, comb))


def _period_verdict(measure, period):
    """Whether u·u is prefix normal, by the oracle's rows, and whether u is unsorted.

    A period sorted by descending weight, one weight included, always
    passes, so only an unsorted one can disagree with a criterion.
    """
    ws, ident, comb = measure.payloads, measure.identity_payload, measure.combine
    prefix, best = _running_rows(ws, period * 2, ident, comb)
    letters = [ws[i] for i in period]
    return prefix == best, letters != sorted(letters, reverse=True)


@st.composite
def _periodic_cases(draw):
    # Periods of 2-6 letters over at least two weights; half of them are
    # turned to their heaviest rotation and kept when that is prefix normal
    # and unsorted.
    kind = draw(st.sampled_from(list(MonoidKind)))
    weights = draw(
        st.lists(_CONDITION_WEIGHTS[kind], min_size=2, max_size=4).filter(lambda ws: len(set(ws)) > 1)
    )
    measure = WeightMeasure(Alphabet(tuple("abcd"[: len(weights)])), kind, weights)
    periods = st.lists(st.integers(0, len(weights) - 1), min_size=2, max_size=6).map(tuple)
    periods = periods.filter(lambda p: len({weights[i] for i in p}) > 1)
    if draw(st.booleans()):
        periods = periods.map(lambda p: _heaviest_rotation(measure, p)).filter(
            lambda p: _period_verdict(measure, p) == (True, True)
        )
    return measure, draw(periods)


@given(_periodic_cases())
def test_a_power_of_a_word_is_prefix_normal_iff_its_square_is(case):
    measure, period = case
    square = is_prefix_normal(measure, Word(measure.alphabet, period * 2))
    for k in range(3, 7):
        assert is_prefix_normal(measure, Word(measure.alphabet, period * k)) == square


def _periodic_by_cyclic_windows(measure, period):
    """u^ω is prefix normal iff each proper prefix of u outweighs every cyclic window of its length.

    A longer factor of u^ω adds whole rotations of u, which all weigh w(u).
    """

    def weight(indices):
        return measure.weight_payload(Word(measure.alphabet, indices))

    n, doubled = len(period), period * 2
    return all(weight(period[:r]) >= weight(doubled[i : i + r]) for r in range(1, n) for i in range(n))


def _random_period(rng, kind):
    weights = [_QUERY_WEIGHTS[kind](rng) for _ in range(rng.randint(1, 4))]
    measure = WeightMeasure(Alphabet(tuple("abcd"[: len(weights)])), kind, weights)
    return measure, tuple(rng.randrange(len(weights)) for _ in range(rng.randint(1, 7)))


@pytest.mark.parametrize("kind", list(MonoidKind), ids=lambda kind: kind.value)
def test_a_periodic_word_is_prefix_normal_iff_its_cyclic_windows_are_outweighed(kind):
    rng = random.Random(2019)
    unsorted_normal = not_normal = 0
    for case in range(1000):
        # A third of the cases are redrawn until the period's heaviest
        # rotation is prefix normal and unsorted, a third until the period
        # is not prefix normal; the rest are kept as drawn.
        while True:
            measure, period = _random_period(rng, kind)
            if case % 3 == 1:
                period = _heaviest_rotation(measure, period)
            normal, unsorted = _period_verdict(measure, period)
            if case % 3 == 0 or (normal and unsorted if case % 3 == 1 else not normal):
                break
        square = is_prefix_normal(measure, Word(measure.alphabet, period * 2))
        assert _periodic_by_cyclic_windows(measure, period) == square == normal, (measure, period)
        for k in range(3, 7):
            assert is_prefix_normal(measure, Word(measure.alphabet, period * k)) == square
        unsorted_normal += square and unsorted
        not_normal += not square
    assert unsorted_normal >= 250 and not_normal >= 250


def test_prefix_normal_iff_profile_equality_on_exhaustive_small_words():
    measure = sum_measure(ANCB, 1, 2, 2, 3)
    for n in range(0, 4):
        for combo in itertools.product(range(4), repeat=n):
            word = Word(ANCB, combo)
            profile = weight_profile(measure, word)
            assert is_prefix_normal(measure, word) == (profile.prefix == profile.factor_max)


# --- the fast kernel against the oracle's running-combine loop ---------------

# Small weights collide (non-injective sums); second components of 1000
# outweigh every first-component total, so a fold of pairs into ints with
# too small a scale orders some windows wrongly.
_KERNEL_WEIGHTS = {
    MonoidKind.NAT_SUM: st.integers(0, 3),
    MonoidKind.NAT_PRODUCT: st.integers(1, 6),
    MonoidKind.VEC2_LEX: st.tuples(st.sampled_from((0, 1, 2)), st.sampled_from((0, 1, 2, 1000))),
}


def _kernel_case(kind):
    return st.tuples(
        st.lists(_KERNEL_WEIGHTS[kind], min_size=1, max_size=4), st.integers(0, 80)
    ).flatmap(
        lambda drawn: st.tuples(
            st.just(kind),
            st.just(tuple(drawn[0])),
            st.lists(
                st.integers(0, len(drawn[0]) - 1), min_size=drawn[1], max_size=drawn[1]
            ).map(tuple),
        )
    )


def _both_kernels(kind, weights, indices):
    """The fast kernel's profile, its maxima checked against the oracle loop.

    Each start is checked by definition: its window weighs the maximum and
    every window starting earlier weighs less.  The windows of each length
    are those of the last length, each combined with its next letter.
    """
    ident, comb = payload_identity(kind), payload_combine(kind)
    best, starts = factor_max_payloads(weights, indices, ident, comb)
    assert best == _running_factor_max(weights, indices, ident, comb)

    assert starts[0] == 0
    windows = [ident] * (len(indices) + 1)  # by start, of the current length
    for size in range(1, len(indices) + 1):
        windows = [comb(acc, weights[i]) for acc, i in zip(windows, indices[size - 1:])]
        assert windows[starts[size]] == best[size]
        assert all(window < best[size] for window in windows[:starts[size]])
    return best, starts


@given(st.sampled_from(list(MonoidKind)).flatmap(_kernel_case))
def test_kernel_matches_running_combine_loop(case):
    kind, weights, indices = case
    best, starts = _both_kernels(*case)
    steps = list(factor_max_steps(weights, indices, payload_combine(kind)))
    assert steps == list(zip(best[1:], starts[1:]))


def test_kernel_vec2_fold_outweighed_by_second_components():
    # (1,1) outranks (0,2000); folding pairs with a scale no larger than a
    # window's second-component total misorders or misdecodes such windows.
    weights = ((0, 1000), (1, 0), (0, 1))
    for indices in itertools.product(range(3), repeat=7):
        _both_kernels(MonoidKind.VEC2_LEX, weights, indices)
    best, starts = _both_kernels(MonoidKind.VEC2_LEX, weights, (1, 2) + (0,) * 18)
    assert best[:5] == [(0, 0), (1, 0), (1, 1), (1, 1001), (1, 2001)]
    assert best[20] == (1, 18001)
    assert starts == [0] * 21


def test_kernel_pins_a_long_vec2_word():
    weights = ((0, 3), (1, 1), (1, 2), (2, 0), (0, 1000))
    indices = tuple(random.Random(300).randrange(len(weights)) for _ in range(300))
    best, starts = _both_kernels(MonoidKind.VEC2_LEX, weights, indices)
    total = (sum(weights[i][0] for i in indices), sum(weights[i][1] for i in indices))
    assert best[300] == total and starts[300] == 0
    assert len(best) == len(starts) == 301


# --- the packed rows -----------------------------------------------------------

# Per magnitude, the largest weight (or pair of components) drawn.  On 28-96
# letters the word's total then needs fields of 1, 2, 3 or 4, and more than
# 8 bytes (beyond the packed rows' width limit), and often fills its last
# byte, where a field without a spare guard bit would overflow.
_SUM_TOPS = (3, 1000, 300_000, 2**70)
_VEC_TOPS = ((3, 0), (1, 1), (3, 30), (2**30, 2**10))
# The weights of nat-product words.  Powers of one base tie exactly across
# different letter counts (2 * 8 == 4 * 4), and their logs are integers; the
# float of 2^64 + 1 is 2^64, so its log is too.  Both put a float's floor in
# doubt.  10^40 adds far more to a window's log than the small weights.
# log 2 + log 26221 == 2 log 229 at b = 16, though 2 * 26221 > 229^2; and
# 12^3 == 8^2 * 27, though the logs of 8 and 12 are not exact.
_PRODUCT_WEIGHTS = (
    (2, 3, 5, 7), (2, 4, 8), (10**40, 3, 7), (2**64 + 1, 2, 5), (2, 229, 26221), (8, 12, 27)
)


def _near(top):
    return st.one_of(st.just(0), st.integers(top // 2, top))


@st.composite
def _packed_cases(draw):
    kind = draw(st.sampled_from(list(MonoidKind)))
    if kind is MonoidKind.NAT_SUM:
        top = draw(st.sampled_from(_SUM_TOPS))
        weight = _near(top)
    elif kind is MonoidKind.NAT_PRODUCT:
        weight = st.sampled_from(draw(st.sampled_from(_PRODUCT_WEIGHTS)))
    else:
        first, second = draw(st.sampled_from(_VEC_TOPS))
        weight = st.tuples(_near(first), _near(second))
    weights = draw(st.lists(weight, min_size=1, max_size=4))
    n = draw(st.integers(28, 300 if kind is MonoidKind.NAT_PRODUCT else 96))
    indices = draw(st.lists(st.integers(0, len(weights) - 1), min_size=n, max_size=n))
    if draw(st.booleans()):  # prefix normal, so most steps repeat
        indices.sort(key=weights.__getitem__, reverse=True)
    if draw(st.booleans()):  # a letter the word leaves out, heavier than its total
        if kind is MonoidKind.NAT_SUM:
            weights.append(draw(st.integers(100 * top, 2**80)))
        elif kind is MonoidKind.NAT_PRODUCT:
            weights.append(prod(weights[i] for i in indices) * draw(st.integers(2, 9)))
        else:
            weights.append((draw(st.integers(100 * first + 1, 2**40)), second))
    return kind, tuple(weights), tuple(indices)


@settings(max_examples=90, deadline=None)
@given(_packed_cases())
def test_packed_rows_match_the_running_combine_loop(case):
    kind, weights, indices = case
    best, starts = _both_kernels(*case)
    steps = list(factor_max_steps(weights, indices, payload_combine(kind)))
    assert steps == list(zip(best[1:], starts[1:]))


LONG_VEC = vec_measure(Alphabet(tuple("abcd")), (0, 3), (1, 1), (1, 2), (2, 0))


def _calls(monkeypatch, name):
    """The list of the arguments of every call to a helper of ``profile``."""
    calls = []
    real = getattr(profile, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(profile, name, counting)
    return calls


def _random_word(measure, n, seed):
    rng = random.Random(seed)
    return Word(measure.alphabet, tuple(rng.randrange(len(measure.alphabet)) for _ in range(n)))


LONG_PRODUCT = WeightMeasure(Alphabet(tuple("abcd")), MonoidKind.NAT_PRODUCT, (2, 3, 5, 7))


@pytest.mark.parametrize(
    "measure, n",
    [(sum_measure(Alphabet(tuple("abcd")), 1, 2, 3, 4), 64), (LONG_VEC, 64), (LONG_PRODUCT, 160)],
    ids=["sum", "vec2", "product"],
)
def test_long_additive_words_take_the_packed_rows(monkeypatch, measure, n):
    # nat-product words take them through the log view, from 160 letters.
    calls = _calls(monkeypatch, "_packed_steps")
    word = _random_word(measure, n, 1)
    # Heaviest letter first, so the steps go past length 1.
    heaviest = max(range(4), key=measure.payloads.__getitem__)
    word = Word(measure.alphabet, (heaviest, *word.indices[1:]))
    weight_profile(measure, word)
    is_prefix_normal(measure, word)
    prefix_normal_form(measure, word)
    assert [len(args[0]) for args in calls] == [n, n, n]


def test_steps_that_stop_at_length_one_build_no_packed_rows(monkeypatch):
    calls = _calls(monkeypatch, "_packed_steps")
    routes = _calls(monkeypatch, "_route")
    logs = _calls(monkeypatch, "log_view")
    windows = _calls(monkeypatch, "window_products")
    for measure in (sum_measure(Alphabet(tuple("abcd")), 1, 2, 3, 4), LONG_PRODUCT):
        word = Word(measure.alphabet, (0, 3) * 80)
        assert not is_prefix_normal(measure, word)
    assert calls == routes == logs == windows == []


@pytest.mark.parametrize(
    "weights, indices, kind",
    [
        ((1, 300), (0,) * 48, MonoidKind.NAT_SUM),
        (((1, 1), (2**30, 0), (0, 1)), (0, 2) * 30, MonoidKind.VEC2_LEX),
    ],
    ids=["sum", "vec2"],
)
def test_letters_the_word_leaves_out_do_not_size_the_fields(monkeypatch, weights, indices, kind):
    # The unused letter outweighs the word's total, which sizes the fields.
    calls = _calls(monkeypatch, "_packed_steps")
    best, starts = _both_kernels(kind, weights, indices)
    steps = list(factor_max_steps(weights, indices, payload_combine(kind)))
    assert steps == list(zip(best[1:], starts[1:]))
    assert len(calls) == 2


@pytest.mark.parametrize(
    "measure, n",
    [
        (sum_measure(Alphabet(tuple("abcd")), 1, 2, 3, 4), 31),
        (LONG_PRODUCT, 31),
        (LONG_PRODUCT, 159),
        (sum_measure(Alphabet(("a", "b")), 1, 10**40), 64),
        (WeightMeasure(Alphabet(tuple("abc")), MonoidKind.NAT_PRODUCT, (2**64, 2**64 + 1, 3)), 160),
        (WeightMeasure(Alphabet(tuple("abc")), MonoidKind.NAT_PRODUCT, (1000, 1001, 7)), 160),
    ],
    ids=["short", "product", "product-below-the-log-view", "wide-fields", "shared-log", "near-logs"],
)
def test_short_product_and_wide_words_keep_the_loops(monkeypatch, measure, n):
    calls = _calls(monkeypatch, "_packed_steps")
    word = _random_word(measure, n, 1)
    weight_profile(measure, word)
    is_prefix_normal(measure, word)
    prefix_normal_form(measure, word)
    assert calls == []


@pytest.mark.parametrize("weights", [(2, 3, 5, 7), (2, 4, 8)], ids=["primes", "powers"])
def test_coarse_logs_leave_the_exact_products_to_the_certificate(monkeypatch, weights):
    # With logs to 1/256 and the log view from 48 letters, the band of many
    # lengths holds windows of other letter counts (log 5 + log 5 lies within
    # 96 of log 3 + log 7), so the exact fallback runs; words of 4-letter
    # periods put the windows at M far apart, so the count digits run too.
    monkeypatch.setattr(monoid, "LOG_BITS", 8)
    monkeypatch.setattr(profile, "_LOG_MIN_LETTERS", 48)
    packed = _calls(monkeypatch, "_packed_steps")
    digits = _calls(monkeypatch, "_prefix_digits")
    fallbacks = _calls(monkeypatch, "_exact_max")
    comb = payload_combine(MonoidKind.NAT_PRODUCT)
    rng = random.Random(17)
    for n in (48, 56, 60):
        word = [rng.randrange(len(weights)) for _ in range(n)]
        for indices in (word, sorted(word, key=weights.__getitem__, reverse=True), (0, 2, 1, 1) * (n // 4)):
            best, starts = _both_kernels(MonoidKind.NAT_PRODUCT, weights, tuple(indices))
            steps = list(factor_max_steps(weights, indices, comb))
            assert steps == list(zip(best[1:], starts[1:]))
    assert len(packed) == 18 and digits and len(fallbacks) > 10


def test_windows_of_one_log_sum_and_other_letter_counts_are_told_apart(monkeypatch):
    # log 2 + log 26221 and log 229 + log 229 share their log sum, yet
    # 229 * 229 < 2 * 26221: the windows 229 229, 2 26221 and 26221 2 all sit
    # at the packed maximum of length 2, alone in the band, and only their
    # letter counts differ.
    digits = _calls(monkeypatch, "_prefix_digits")
    weights = (2, 229, 26221)
    logs, _ = monoid.log_view(weights)
    assert logs[2] + logs[26221] == 2 * logs[229]
    indices = (1, 1, 0, 2, 0) * 32
    best, starts = _both_kernels(MonoidKind.NAT_PRODUCT, weights, indices)
    assert (best[2], starts[2]) == (2 * 26221, 2)
    assert digits


@pytest.mark.parametrize("weights", [(2, 229, 26221), (8, 12, 27)], ids=["one-log-sum", "tied-products"])
def test_random_words_of_tied_logs_keep_their_exact_maxima_and_starts(weights):
    # Random words of 160-300 letters take the log view.  Over (2, 229, 26221)
    # the windows at M of many lengths hold other letter counts, so the count
    # digits must be those of each window itself.  Over (8, 12, 27),
    # 12^3 = 8^2 * 27 ties across letter counts whose logs are not exact, so
    # a band whose windows do not all sit at M leaves the exact fallback to
    # find the leftmost start.
    comb = payload_combine(MonoidKind.NAT_PRODUCT)
    rng = random.Random(18)
    for _ in range(30):
        indices = tuple(rng.randrange(3) for _ in range(rng.randrange(160, 301)))
        best, starts = _both_kernels(MonoidKind.NAT_PRODUCT, weights, indices)
        steps = list(factor_max_steps(weights, indices, comb))
        assert steps == list(zip(best[1:], starts[1:]))


def _a_shorter_suffix_enters_the_band(letters):
    """Whether, at some length k, a suffix shorter than k lies in the log view's band.

    The band holds the windows whose log sum is above M - slack * k, M the
    largest log sum of k letters; the certificate masks such suffixes out.
    The longest of them, of k - 1 letters, weighs the most.
    """
    logs, slack = monoid.log_view(set(letters))
    sums = [0, *itertools.accumulate(logs[w] for w in letters)]
    n = len(letters)
    return any(
        sums[n] - sums[n - k + 1] > max(sums[s + k] - sums[s] for s in range(n - k + 1)) - slack * k
        for k in range(2, n + 1)
    )


def test_shorter_suffixes_are_masked_out_of_the_log_view_band(monkeypatch):
    # log_view reads LOG_BITS per call, and the certificate holds for any
    # width.  With logs to 1/256 a letter 2 or 3 adds 256 or 405 to a log
    # sum, and a band of slack 2 reaches that far below M from 129 and 203
    # letters: so on words of 160-220 letters the suffix one letter shorter
    # than k enters the band (at 16 bits that takes 32 768 letters).
    monkeypatch.setattr(monoid, "LOG_BITS", 8)
    comb = payload_combine(MonoidKind.NAT_PRODUCT)
    rng = random.Random(23)
    routed = masked = 0
    for count in range(120):
        weights = ((2, 3, 5, 7), (2, 3), (3, 2**40), (2, 5, 11))[count % 4]
        used = rng.sample(range(len(weights)), rng.randint(1, len(weights)))
        indices = [rng.choice(used) for _ in range(rng.randint(160, 220))]
        if count % 8 >= 4:
            indices.sort(key=weights.__getitem__, reverse=True)
        letters = [weights[i] for i in indices]
        packed = profile._route(letters, comb)
        if not (packed and packed[2]):
            continue
        routed += 1
        masked += _a_shorter_suffix_enters_the_band(letters)
        _both_kernels(MonoidKind.NAT_PRODUCT, weights, tuple(indices))
    assert routed > 50 and masked > 10


def test_gap_steps_of_a_long_vec2_word_agree_with_the_start_major_profile(monkeypatch):
    # Steps such as (1,-2) lie between two letter steps: the packed rows
    # read them off the windows above the lower one.
    word = _random_word(LONG_VEC, 300, 300)
    weights, indices = LONG_VEC.payloads, word.indices
    f = _running_factor_max(weights, indices, (0, 0), payload_combine(MonoidKind.VEC2_LEX))
    gaps = [
        i
        for i in range(1, len(f))
        if (f[i][0] - f[i - 1][0], f[i][1] - f[i - 1][1]) not in weights
    ]
    assert len(gaps) == 41 and gaps[0] == 20
    read = _calls(monkeypatch, "_heaviest")
    assert payloads(weight_profile(LONG_VEC, word).factor_max) == f
    assert read
    result = prefix_normal_form(LONG_VEC, word)
    assert isinstance(result, NoNormalForm) and result.gap_index == gaps[0]
    assert not is_prefix_normal(LONG_VEC, word)
    assert payloads(weight_profile(LONG_VEC, word).prefix) != f


@pytest.mark.parametrize("few", [0, 16, 10**9], ids=["bisect", "split", "read"])
def test_gap_steps_settle_alike_by_bisection_and_by_reading_the_windows(monkeypatch, few):
    # The periodic word reaches gap steps that hundreds of windows pass,
    # the random one gap steps that a few windows pass.
    comb = payload_combine(MonoidKind.VEC2_LEX)
    for indices in ((0, 3, 1, 2, 1) * 60, _random_word(LONG_VEC, 300, 300).indices):
        monkeypatch.setattr(profile, "_PACKED_MIN_LETTERS", 10**9)
        loops = factor_max_payloads(LONG_VEC.payloads, indices, (0, 0), comb)
        monkeypatch.setattr(profile, "_PACKED_MIN_LETTERS", 48)
        monkeypatch.setattr(profile, "_FEW_WINDOWS", few)
        assert factor_max_payloads(LONG_VEC.payloads, indices, (0, 0), comb) == loops
        steps = list(factor_max_steps(LONG_VEC.payloads, indices, comb))
        assert steps == list(zip(loops[0][1:], loops[1][1:]))


def test_packed_rows_keep_only_the_live_windows(monkeypatch):
    # A random vec2-lex word reads hundreds of rows through ``_heaviest``;
    # past the first few lengths each must hold about the live windows
    # alone, not a field for every letter of the word.
    read = _calls(monkeypatch, "_heaviest")
    word = _random_word(LONG_VEC, 600, 600)
    comb = payload_combine(MonoidKind.VEC2_LEX)
    sizes = []  # (live windows, fields of the row read) per read
    for k, _ in enumerate(factor_max_steps(LONG_VEC.payloads, word.indices, comb), 1):
        sizes += [(601 - k, -(-row.bit_length() // (8 * size))) for row, _, size in read[len(sizes):]]
    assert len(sizes) > 100 and max(live for live, _ in sizes) > 500 and min(live for live, _ in sizes) < 100
    assert all(fields <= live + live // 7 + 1 for live, fields in sizes)


def test_one_byte_fields_read_the_window_at_start_zero(monkeypatch):
    # A total below 128 packs each window in one byte, so field 0's guard
    # byte is byte 0 of the row: ``_heaviest`` must read that field too.
    read = _calls(monkeypatch, "_heaviest")
    rng = random.Random(0)
    indices = tuple(rng.randrange(2) for _ in range(48))
    assert sum((1, 3)[i] for i in indices) < 128
    _both_kernels(MonoidKind.NAT_SUM, (1, 3), indices)
    assert any(size == 1 and hit & 0x80 for _, hit, size in read)


@pytest.mark.parametrize("n", [250, 400, 2000])
def test_sorted_product_words_need_no_count_digits(monkeypatch, n):
    # Each length's band is one run of windows at the maximum, so the
    # one-run test settles it before the count digits are built.
    digits = _calls(monkeypatch, "_prefix_digits")
    weights = LONG_PRODUCT.payloads
    rng = random.Random(n)
    for _ in range(2):
        indices = sorted((rng.randrange(4) for _ in range(n)), key=weights.__getitem__, reverse=True)
        assert is_prefix_normal(LONG_PRODUCT, Word(LONG_PRODUCT.alphabet, tuple(indices)))
        assert factor_max_payloads(weights, indices, 1, payload_combine(MonoidKind.NAT_PRODUCT))[1] == [0] * (n + 1)
    assert digits == []


@pytest.mark.parametrize("measure, n", [(MU, 60), (LONG_PRODUCT, 200), (LONG_VEC, 60)], ids=["sum", "product", "vec2"])
def test_profile_values_are_the_checked_values(measure, n):
    result = weight_profile(measure, _random_word(measure, n, 3))
    for got in result.factor_max + result.prefix:
        checked = MonoidValue(measure.kind, got.payload)
        assert got == checked and hash(got) == hash(checked) and vars(got) == vars(checked)
        assert type(got) is MonoidValue
    with pytest.raises(ValueError):
        MonoidValue(measure.kind, -1)
