import itertools
import random
from math import prod

import pytest

from helpers import (
    ABC,
    ANB,
    ANBX,
    ANCB,
    ANX,
    VEC_FIXTURE,
    product_measure,
    sum_measure,
    vec_measure,
    w,
    words,
)
from prefixnorm import (
    Alphabet,
    CapacityExceeded,
    MultipleNormalForms,
    NoNormalForm,
    UniqueNormalForm,
    Word,
    brute_equivalence_class,
    count_binary_prefix_normal,
    count_prefix_normal,
    count_prefix_normal_words,
    equivalence_class,
    is_prefix_normal,
    prefix_normal_form,
    prefix_normal_set,
    standard_measure,
    weight_profile,
)
from prefixnorm import normalform
from prefixnorm.profile import factor_max_payloads, gap_indexes, prefix_payloads

MU_ANB = sum_measure(ANB, 1, 2, 3)
NU_ANX = sum_measure(ANX, 1, 2, 4)
MU_ANCB = sum_measure(ANCB, 1, 2, 2, 3)
MU_ANBX = sum_measure(ANBX, 1, 2, 3, 4)


def test_unique_normal_form_of_bcac():
    result = prefix_normal_form(standard_measure(ABC), w(ABC, "bcac"))
    assert isinstance(result, UniqueNormalForm)
    assert str(result.word) == "cbbb"


def test_gap_blocks_normal_form_of_xaxn():
    result = prefix_normal_form(NU_ANX, w(ANX, "xaxn"))
    assert isinstance(result, NoNormalForm)
    assert str(result.gap_word) == "xaxn"
    assert result.gap_index == 3


def test_extra_letter_restores_the_normal_form():
    result = prefix_normal_form(MU_ANBX, w(ANBX, "xaxn"))
    assert isinstance(result, UniqueNormalForm)
    assert str(result.word) == "xnbn"


def test_multiple_normal_forms_of_nanaba():
    result = prefix_normal_form(MU_ANCB, w(ANCB, "nanaba"))
    assert isinstance(result, MultipleNormalForms)
    assert str(result.projected) == "{b}{a}{n,c}{a}{n,c}{a}"
    assert result.count == 4


def test_normal_form_of_empty_word_is_unique():
    for measure in (MU_ANB, MU_ANCB):
        result = prefix_normal_form(measure, Word(measure.alphabet, ()))
        assert isinstance(result, UniqueNormalForm)
        assert len(result.word) == 0


def test_prefix_normal_set_fixtures():
    assert words(prefix_normal_set(MU_ANCB, w(ANCB, "nanaba"))) == [
        "bacaca",
        "bacana",
        "banaca",
        "banana",
    ]
    assert prefix_normal_set(NU_ANX, w(ANX, "xaxn")) == set()
    assert words(prefix_normal_set(MU_ANB, w(ANB, "banana"))) == ["banana"]


def test_prefix_normal_set_respects_limit():
    with pytest.raises(CapacityExceeded) as info:
        prefix_normal_set(MU_ANCB, w(ANCB, "nanaba"), limit=3)
    assert info.value.count == 4


def test_count_prefix_normal_fixtures():
    assert count_prefix_normal(MU_ANCB, w(ANCB, "nanaba")) == 4
    assert count_prefix_normal(NU_ANX, w(ANX, "xaxn")) == 0
    assert count_prefix_normal(standard_measure(ABC), w(ABC, "bcac")) == 1
    assert count_prefix_normal(MU_ANCB, Word(ANCB, ())) == 1


def test_equivalence_class_of_banana():
    assert words(equivalence_class(MU_ANB, w(ANB, "banana"))) == [
        "abanan",
        "anaban",
        "ananab",
        "banana",
        "nabana",
        "nanaba",
    ]


def test_equivalence_class_of_xaxn_is_the_reversal_pair():
    assert words(equivalence_class(NU_ANX, w(ANX, "xaxn"))) == ["nxax", "xaxn"]


def test_equivalence_class_of_a_letter_is_its_weight_fiber():
    assert words(equivalence_class(MU_ANCB, w(ANCB, "n"))) == ["c", "n"]
    assert words(equivalence_class(MU_ANCB, w(ANCB, ""))) == [""]


def test_equivalence_class_respects_limit():
    with pytest.raises(CapacityExceeded) as info:
        equivalence_class(MU_ANB, w(ANB, "banana"), limit=100)
    assert info.value.count == 3**6


ABCD = Alphabet(("a", "b", "c", "d"))
# Three letters share one weight: the walk searches 2^n projected words.
TRIPLE = sum_measure(ABCD, 1, 1, 1, 2)


def test_equivalence_class_searches_the_projected_alphabet():
    # 4^9 words exceed the limit, the 2^9 projected candidates do not; the
    # class is every word over the three weight-1 letters.
    word = Word(ABCD, (0,) * 9)
    members = equivalence_class(TRIPLE, word)
    assert members == {Word(ABCD, c) for c in itertools.product(range(3), repeat=9)}
    assert len(members) == 3**9
    shorter = Word(ABCD, (0,) * 8)
    assert equivalence_class(TRIPLE, shorter) == brute_equivalence_class(TRIPLE, shorter)


def test_equivalence_class_refuses_a_large_expansion():
    with pytest.raises(CapacityExceeded) as info:
        equivalence_class(TRIPLE, Word(ABCD, (0,) * 9), limit=1000)
    assert info.value.count == 3**9


def test_equivalence_class_refuses_a_large_projection_fiber_before_the_walk(monkeypatch):
    # One projected letter: 1 candidate word, yet every one of the 2^1000
    # words over a, b is a member.  The walk would take seconds to find that.
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(normalform, "walk_words", no_walk)
    measure = sum_measure(Alphabet(("a", "b")), 1, 1)
    with pytest.raises(CapacityExceeded, match="at least") as info:
        equivalence_class(measure, Word(measure.alphabet, (0,) * 1000))
    assert info.value.count == 2**1000


def test_equivalence_class_walk_refuses_before_the_kernel(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("profiled")

    monkeypatch.setattr(normalform, "_factor_max_ints", no_kernel)
    measure = standard_measure(Alphabet(("a", "b")))
    with pytest.raises(CapacityExceeded):
        equivalence_class(measure, Word(measure.alphabet, (0, 1) * 2000))


@pytest.mark.parametrize(
    "measure, counts",
    [
        (sum_measure(ABC, 2, 4, 6), {6: 180, 8: 1133, 10: 7483}),
        (product_measure(ABC, 2, 6, 18), {6: 180, 8: 1133, 10: 7483}),
        (product_measure(ABC, 2, 3, 5), {6: 179, 8: 1116, 10: 7278}),
        (TRIPLE, {4: 142, 6: 1603}),
    ],
    ids=["sum-2-4-6", "product-2-6-18", "product-2-3-5", "sum-1-1-1-2"],
)
def test_count_prefix_normal_words_pins(measure, counts):
    assert {n: count_prefix_normal_words(measure, n) for n in counts} == counts


@pytest.mark.parametrize("n", range(7))
def test_count_prefix_normal_words_matches_the_predicate(n):
    size = len(TRIPLE.alphabet)
    words_of_n = (Word(ABCD, c) for c in itertools.product(range(size), repeat=n))
    assert count_prefix_normal_words(TRIPLE, n) == sum(
        is_prefix_normal(TRIPLE, word) for word in words_of_n
    )


def test_count_prefix_normal_words_generalises_the_binary_count():
    binary = sum_measure(Alphabet(("0", "1")), 1, 2)
    assert [count_prefix_normal_words(binary, n) for n in range(17)] == [
        count_binary_prefix_normal(n) for n in range(17)
    ]


def test_one_weight_measures_yield_their_one_projected_word_without_a_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("the walk ran")

    # The walk starts with the int view of the projected weights.
    monkeypatch.setattr(normalform, "int_view", no_walk)
    measure = sum_measure(Alphabet(("a", "b")), 1, 1)
    assert count_prefix_normal_words(measure, 20000) == 2**20000
    assert count_prefix_normal_words(sum_measure(Alphabet(("a",)), 5), 300) == 1
    every = {Word(measure.alphabet, c) for c in itertools.product(range(2), repeat=5)}
    assert equivalence_class(measure, Word(measure.alphabet, (0, 1, 1, 0, 1))) == every
    with pytest.raises(CapacityExceeded) as info:
        equivalence_class(measure, Word(measure.alphabet, (1,) * 12), limit=1000)
    assert info.value.count == 2**12


def test_count_prefix_normal_words_refuses_projected_candidates():
    # The cap counts projected words: 2^16 are searched for 4^16 words.
    assert count_prefix_normal_words(TRIPLE, 16) > 0
    with pytest.raises(CapacityExceeded) as info:
        count_prefix_normal_words(TRIPLE, 17)
    assert info.value.count == 2**17
    with pytest.raises(CapacityExceeded) as info:
        count_prefix_normal_words(MU_ANB, 11)
    assert info.value.count == 3**11
    with pytest.raises(ValueError):
        count_prefix_normal_words(MU_ANB, -1)


def test_class_members_share_profiles_and_contain_reversal():
    word = w(ANCB, "bcan")
    members = equivalence_class(MU_ANCB, word)
    assert word in members and word.reversed() in members
    target = weight_profile(MU_ANCB, word).factor_max
    for member in members:
        assert weight_profile(MU_ANCB, member).factor_max == target


def test_normal_form_members_are_prefix_normal_with_matching_profile():
    for measure, text in ((MU_ANCB, "nanaba"), (MU_ANB, "nanaba"), (MU_ANBX, "xaxn")):
        word = w(measure.alphabet, text)
        target = weight_profile(measure, word).factor_max
        for member in prefix_normal_set(measure, word):
            assert is_prefix_normal(measure, member)
            assert weight_profile(measure, member).factor_max == target


def test_count_matches_materialised_set_on_random_words():
    rng = random.Random(7)
    for _ in range(120):
        length = rng.randint(0, 5)
        word = Word(ANCB, tuple(rng.randrange(4) for _ in range(length)))
        assert count_prefix_normal(MU_ANCB, word) == len(prefix_normal_set(MU_ANCB, word))


def test_multiple_count_is_the_product_of_class_sizes():
    result = prefix_normal_form(MU_ANCB, w(ANCB, "nanaba"))
    sizes = [len(MU_ANCB.projected.classes[i]) for i in result.projected.indices]
    assert sizes == [1, 1, 2, 1, 2, 1]
    assert result.count == 4


def test_equivalent_measures_share_the_normal_form():
    word = w(ABC, "bcac")
    for measure in (sum_measure(ABC, 2, 4, 6), product_measure(ABC, 2, 6, 18)):
        result = prefix_normal_form(measure, word)
        assert isinstance(result, UniqueNormalForm)
        assert str(result.word) == "cbbb"


# --- the routes that stop early against the full profile ---------------------

ABCD = Alphabet(("a", "b", "c", "d"))
_LONG_MEASURES = (
    MU_ANB,  # gapfree, injective: unique forms
    MU_ANCB,  # gapfree, not injective: multiple forms
    NU_ANX,  # gapful nat-sum
    product_measure(ABCD, 2, 3, 5, 7),  # gapful prime product
    product_measure(ABC, 2, 4, 8),  # stepped product: unique forms
    VEC_FIXTURE,  # gapfree, unstepped
    vec_measure(ABCD, (0, 3), (1, 1), (1, 2), (2, 0)),  # gapful vec2-lex
)


def _long_words(measure, rng):
    """Random words of 200-240 letters, their descending sorts and any normal form."""
    weights = measure.payloads
    for n in (200, 240):
        word = Word(measure.alphabet, tuple(rng.randrange(len(weights)) for _ in range(n)))
        yield word
        descending = sorted(word.indices, key=weights.__getitem__, reverse=True)
        yield Word(word.alphabet, tuple(descending))
        result = prefix_normal_form(measure, word)
        if isinstance(result, UniqueNormalForm):
            yield result.word


def test_early_exit_routes_match_the_full_profile_on_long_words():
    rng = random.Random(11)
    verdicts, outcomes = set(), set()
    for measure in _LONG_MEASURES:
        ws, ident, comb = measure.payloads, measure.identity_payload, measure.combine
        for word in _long_words(measure, rng):
            f, _ = factor_max_payloads(ws, word.indices, ident, comb)
            verdict = is_prefix_normal(measure, word)
            assert verdict == (prefix_payloads(ws, word.indices, ident, comb) == f)
            verdicts.add(verdict)
            result = prefix_normal_form(measure, word)
            outcomes.add(type(result))
            gaps = gap_indexes(measure, word)
            if isinstance(result, NoNormalForm):
                assert result.gap_word == word and result.gap_index == gaps[0]
                continue
            assert gaps == []
            # By definition: the form is prefix normal and in the word's class,
            # so its prefix weights and its factor maxima both equal f.
            projected = measure.projected
            if isinstance(result, UniqueNormalForm):
                normal, under = result.word, measure
            else:
                normal, under = result.projected, projected.measure
                assert result.count == prod(len(projected.classes[c]) for c in normal.indices)
            args = (under.payloads, normal.indices, under.identity_payload, comb)
            assert prefix_payloads(*args) == factor_max_payloads(*args)[0] == f
    assert verdicts == {True, False}
    assert outcomes == {NoNormalForm, UniqueNormalForm, MultipleNormalForms}
