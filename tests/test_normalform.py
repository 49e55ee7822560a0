import itertools
import random

import pytest

from helpers import ABC, ANB, ANBX, ANCB, ANX, product_measure, sum_measure, w, words
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
