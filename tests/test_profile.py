import functools
import itertools
import random
from bisect import bisect_left, bisect_right

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
from prefixnorm import profile
from prefixnorm.monoid import MonoidKind, payload_combine, payload_identity
from prefixnorm.oracle import _running_factor_max, classic_max_ones, is_prefix_normal_classic
from prefixnorm.profile import factor_max_payloads, factor_max_steps

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
    every window starting earlier weighs less.
    """
    ident, comb = payload_identity(kind), payload_combine(kind)
    best, starts = factor_max_payloads(weights, indices, ident, comb)
    assert best == _running_factor_max(weights, indices, ident, comb)

    def window(start, size):
        return functools.reduce(comb, (weights[i] for i in indices[start:start + size]), ident)

    assert starts[0] == 0
    for size in range(1, len(indices) + 1):
        assert window(starts[size], size) == best[size]
        assert all(window(start, size) < best[size] for start in range(starts[size]))
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


# --- the packed rows of the additive views ------------------------------------

# Per magnitude, the largest weight (or pair of components) drawn.  On 28-96
# letters the word's total then needs fields of 1, 2, 3 or 4, and more than
# 8 bytes (beyond the packed rows' width limit), and often fills its last
# byte, where a field without a spare guard bit would overflow.
_SUM_TOPS = (3, 1000, 300_000, 2**70)
_VEC_TOPS = ((3, 0), (1, 1), (3, 30), (2**30, 2**10))


def _near(top):
    return st.one_of(st.just(0), st.integers(top // 2, top))


@st.composite
def _packed_cases(draw):
    kind = draw(st.sampled_from((MonoidKind.NAT_SUM, MonoidKind.VEC2_LEX)))
    if kind is MonoidKind.NAT_SUM:
        top = draw(st.sampled_from(_SUM_TOPS))
        weight = _near(top)
    else:
        first, second = draw(st.sampled_from(_VEC_TOPS))
        weight = st.tuples(_near(first), _near(second))
    weights = draw(st.lists(weight, min_size=1, max_size=4))
    n = draw(st.integers(28, 96))
    indices = draw(st.lists(st.integers(0, len(weights) - 1), min_size=n, max_size=n))
    if draw(st.booleans()):  # prefix normal, so most steps repeat
        indices.sort(key=weights.__getitem__, reverse=True)
    if draw(st.booleans()):  # a letter the word leaves out, heavier than its total
        if kind is MonoidKind.NAT_SUM:
            weights.append(draw(st.integers(100 * top, 2**80)))
        else:
            weights.append((draw(st.integers(100 * first + 1, 2**40)), second))
    return kind, tuple(weights), tuple(indices)


@settings(max_examples=60, deadline=None)
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


@pytest.mark.parametrize(
    "measure", [sum_measure(Alphabet(tuple("abcd")), 1, 2, 3, 4), LONG_VEC], ids=["sum", "vec2"]
)
def test_long_additive_words_take_the_packed_rows(monkeypatch, measure):
    calls = _calls(monkeypatch, "_packed_steps")
    word = _random_word(measure, 64, 1)
    # Heaviest letter first, so the steps go past length 1.
    heaviest = max(range(4), key=measure.payloads.__getitem__)
    word = Word(measure.alphabet, (heaviest, *word.indices[1:]))
    weight_profile(measure, word)
    is_prefix_normal(measure, word)
    prefix_normal_form(measure, word)
    assert [len(letters) for letters, _ in calls] == [64, 64, 64]


def test_steps_that_stop_at_length_one_build_no_packed_rows(monkeypatch):
    calls = _calls(monkeypatch, "_packed_steps")
    routes = _calls(monkeypatch, "_route")
    measure = sum_measure(Alphabet(tuple("abcd")), 1, 2, 3, 4)
    word = Word(measure.alphabet, (0, 3) * 32)
    assert not is_prefix_normal(measure, word)
    assert calls == routes == []


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
        (WeightMeasure(Alphabet(tuple("abcd")), MonoidKind.NAT_PRODUCT, (2, 3, 5, 7)), 64),
        (sum_measure(Alphabet(("a", "b")), 1, 10**40), 64),
    ],
    ids=["short", "product", "wide-fields"],
)
def test_short_product_and_wide_words_keep_the_loops(monkeypatch, measure, n):
    calls = _calls(monkeypatch, "_packed_steps")
    word = _random_word(measure, n, 1)
    weight_profile(measure, word)
    is_prefix_normal(measure, word)
    prefix_normal_form(measure, word)
    assert calls == []


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
