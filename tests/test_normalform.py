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
from prefixnorm import normalform, profile
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


def test_a_list_built_word_is_found_in_its_own_class():
    alphabet = Alphabet(["a", "b", "c"])
    measure = sum_measure(alphabet, 1, 2, 2)
    word = Word(alphabet, [1, 0, 2, 0])
    assert word in equivalence_class(measure, word)
    assert equivalence_class(measure, word) == brute_equivalence_class(measure, word)


def test_equivalence_class_of_xaxn_is_the_reversal_pair():
    assert words(equivalence_class(NU_ANX, w(ANX, "xaxn"))) == ["nxax", "xaxn"]


def test_equivalence_class_of_a_letter_is_its_weight_fiber():
    assert words(equivalence_class(MU_ANCB, w(ANCB, "n"))) == ["c", "n"]
    assert words(equivalence_class(MU_ANCB, w(ANCB, ""))) == [""]


def test_equivalence_class_respects_limit():
    with pytest.raises(CapacityExceeded) as info:
        equivalence_class(MU_ANB, w(ANB, "banana"), limit=100)
    assert info.value.count == 3**6


@pytest.mark.parametrize(
    "measure, word",
    [
        (standard_measure(ABC), Word(ABC, ())),
        (standard_measure(Alphabet(("a",))), Word(Alphabet(("a",)), (0,) * 5)),
    ],
    ids=["empty", "one-letter"],
)
def test_a_limit_of_one_answers_a_class_of_one_word(measure, word):
    assert equivalence_class(measure, word, limit=1) == {word}
    assert prefix_normal_set(measure, word, limit=1) == {word}


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
    # words over a, b is a member.  One projected class is yielded without a
    # walk, so only the count of the word's expansion refuses it, before the
    # walk is asked for anything.
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
    "length, text, message",
    [(3, "abcab", "5 letters, not 3"), (5, "abc", "3 letters, not 5"), (-1, None, "nonnegative")],
    ids=["longer-word", "shorter-word", "negative"],
)
def test_walk_words_refuses_a_length_it_cannot_serve(monkeypatch, length, text, message):
    def no_kernel(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(normalform, "int_view", no_kernel)
    monkeypatch.setattr(normalform, "_factor_max_ints", no_kernel)
    measure = standard_measure(ABC)
    word = None if text is None else w(ABC, text)
    with pytest.raises(ValueError, match=message):
        next(normalform.walk_words(measure, length, word))


def test_the_walk_compares_exact_products_where_the_profile_takes_the_log_view(monkeypatch):
    # a^47 b under (2, 3): every word with one b shares its factor maxima
    # 3 * 2^(k-1).  With the log view from 48 letters, the profile route
    # packs it, but the walk and the normal form see the exact products.
    monkeypatch.setattr(profile, "_LOG_MIN_LETTERS", 48)
    measure = product_measure(Alphabet(("a", "b")), 2, 3)
    word = Word(measure.alphabet, (0,) * 47 + (1,))
    views, targets, steps = [], [], []

    def recording(real, seen):
        def record(*args):
            out = real(*args)
            seen.append(out)
            return out

        return record

    monkeypatch.setattr(normalform, "int_view", recording(normalform.int_view, views))
    monkeypatch.setattr(normalform, "_factor_max_ints", recording(normalform._factor_max_ints, targets))
    real_steps = normalform.factor_max_steps

    def recording_steps(*args):
        for step in real_steps(*args):
            steps.append(step)
            yield step

    monkeypatch.setattr(normalform, "factor_max_steps", recording_steps)
    packed = []
    monkeypatch.setattr(profile, "_packed_steps", recording(profile._packed_steps, packed))
    members = equivalence_class(measure, word, limit=2**48)
    assert members == {Word(measure.alphabet, (0,) * i + (1,) + (0,) * (47 - i)) for i in range(48)}
    maxima = [1] + [3 * 2 ** (k - 1) for k in range(1, 49)]
    [(ints, comb, decode)] = views
    assert ints == (1, 2, 3) and comb is measure.combine and decode is None
    assert targets == [(maxima, [0] + [47 - k + 1 for k in range(1, 49)])]
    assert prefix_normal_set(measure, word, limit=2**48) == {Word(measure.alphabet, (1,) + (0,) * 47)}
    assert steps == list(zip(maxima[1:], [47 - k + 1 for k in range(1, 49)]))
    assert len(packed) == 2


def test_the_budget_cut_bounds_the_combines_of_a_class_walk(monkeypatch):
    # A member's letters after a node must weigh the rest of the word's
    # total, so at most that budget less the lightest of the others fits
    # in i of them.  Without the cut, the class of accaaaab took 2 557
    # combines under (2, 3, 5) and 2 566 under (1, 2, 3); without the
    # divisibility cut 464 under (2, 3, 5), and with the due test only for
    # lengths above the letters still to come 674 and 1 488.
    calls = []

    def counting(*args):
        ints, comb, decode = real(*args)

        def counted(a, b):
            calls.append(None)
            return comb(a, b)

        return ints, counted, decode

    real = normalform.int_view
    monkeypatch.setattr(normalform, "int_view", counting)
    for measure, bound in ((product_measure(ABC, 2, 3, 5), 420), (sum_measure(ABC, 1, 2, 3), 500)):
        calls.clear()
        word = w(ABC, "accaaaab")
        members = equivalence_class(measure, word)
        assert len(calls) <= bound
        assert members == brute_equivalence_class(measure, word)


@pytest.mark.parametrize(
    "measure, n",
    [(sum_measure(ABC, 1, 2, 3), 6), (product_measure(ABC, 2, 3, 5), 6), (VEC_FIXTURE, 6), (TRIPLE, 5)],
    ids=["sum-123", "product-235", "vec-lex", "sum-1-1-1-2"],
)
def test_walk_words_yields_in_lexicographic_order(measure, n):
    # Leaves of the prefix-normal walk are yielded without a push, in
    # letter order; class leaves are popped off the stack.
    size = len(measure.projected.classes)
    projected = measure.projected.measure
    candidates = [Word(projected.alphabet, c) for c in itertools.product(range(size), repeat=n)]
    assert list(normalform.walk_words(measure, n)) == [
        word.indices for word in candidates if is_prefix_normal(projected, word)
    ]
    for word in random.Random(n).sample(candidates, 20):
        target = weight_profile(projected, word).factor_max
        assert list(normalform.walk_words(projected, n, word)) == [
            other.indices for other in candidates if weight_profile(projected, other).factor_max == target
        ]


def test_class_members_are_words_like_checked_ones():
    measure = sum_measure(ABC, 1, 2, 2)
    for indices in ((0, 1, 2, 1, 0), (2, 2, 1, 0, 0, 1, 0)):
        for member in equivalence_class(measure, Word(ABC, indices)):
            checked = Word(ABC, member.indices)
            assert member == checked and hash(member) == hash(checked) and vars(member) == vars(checked)
            assert type(member) is Word and type(member.indices) is tuple
    with pytest.raises(ValueError, match="out of range"):
        Word(ABC, (0, 3))


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

    measure = sum_measure(Alphabet(("a", "b")), 1, 1)
    one_letter = sum_measure(Alphabet(("a",)), 5)
    # A one-class count is a power: it never builds the projected word.
    with monkeypatch.context() as patch:
        patch.setattr(normalform, "walk_words", no_walk)
        assert count_prefix_normal_words(measure, 20000) == 2**20000
        assert count_prefix_normal_words(one_letter, 300) == 1
        assert count_prefix_normal_words(one_letter, 10**6) == 1
    # The walk starts with the int view of the projected weights.
    monkeypatch.setattr(normalform, "int_view", no_walk)
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
