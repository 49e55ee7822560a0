import dataclasses
import gc
import itertools
import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import (
    ABC,
    ANB,
    ANCB,
    ANX,
    BITS,
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
    IncreasingPropertyViolation,
    MeasureSpecError,
    MonoidKind,
    MonoidValue,
    WeightMeasure,
    Word,
    bounded_equivalence,
    classify,
    find_gap,
    gap_indexes,
    measure_text,
    parikh,
    parse_measure_text,
    standard_measure,
    stepped_step,
    subset_measure,
)
from prefixnorm.measure import _PRIME_EXACT_BELOW, _is_prime


# --- alphabets and words ---------------------------------------------------


def test_alphabet_rejects_bad_tokens():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("a", "b c"))
    with pytest.raises(ValueError):
        Alphabet(("a", ""))
    with pytest.raises(ValueError, match="comment"):
        Alphabet(("#a", "b"))


def test_alphabets_and_words_built_from_lists_equal_and_hash_like_tuples():
    listed, tupled = Alphabet(["a", "b"]), Alphabet(("a", "b"))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed.letters == ("a", "b")
    word = Word(listed, [0, 1, 1])
    assert word == Word(tupled, (0, 1, 1)) and hash(word) == hash(Word(tupled, (0, 1, 1)))
    assert word.indices == (0, 1, 1)


def test_word_parse_single_characters():
    word = w(ANB, "banana")
    assert word.tokens() == ("b", "a", "n", "a", "n", "a")
    assert str(word) == "banana"
    assert len(word) == 6


def test_word_parse_comma_tokens():
    alphabet = Alphabet(("lo", "hi"))
    word = Word.parse(alphabet, "hi,lo,hi")
    assert word.tokens() == ("hi", "lo", "hi")
    assert str(word) == "hi,lo,hi"


def test_word_parse_empty_and_errors():
    assert len(Word.parse(ANB, "")) == 0
    with pytest.raises(ValueError, match="not in alphabet"):
        Word.parse(ANB, "banzna")


def test_word_parse_names_the_unknown_letter_and_keeps_the_comma_form():
    with pytest.raises(ValueError, match="^letter 'z' is not in alphabet a n b$"):
        Word.parse(ANB, "banzna")
    assert Word.parse(ANB, "b,a,n") == Word.parse(ANB, "ban")


@pytest.mark.parametrize(
    "letters,indices",
    [(("{a}", "{a}{b}", "{b}"), (0, 2)), (("a,b", "c"), (0, 1)), (("{a}", "{n,c}"), (1, 0))],
)
def test_word_text_round_trips_for_ambiguous_looking_tokens(letters, indices):
    word = Word(Alphabet(letters), indices)
    assert Word.parse(word.alphabet, str(word)) == word


letter_tokens = st.text(st.sampled_from("ab#{},=") | st.characters(), min_size=1, max_size=4)


@st.composite
def alphabets_and_words(draw, projected):
    tokens = draw(st.lists(letter_tokens, min_size=1, max_size=5, unique=True))
    try:
        alphabet = Alphabet(tuple(tokens))
    except ValueError:
        assume(False)  # a token the alphabet refuses never reaches a word
    if projected:
        weights = draw(st.lists(st.integers(1, 3), min_size=len(tokens), max_size=len(tokens)))
        alphabet = sum_measure(alphabet, *weights).projected.measure.alphabet
    indices = draw(st.lists(st.integers(0, len(alphabet) - 1), max_size=6))
    return Word(alphabet, tuple(indices))


@given(st.booleans().flatmap(alphabets_and_words))
def test_every_word_round_trips_through_its_text(word):
    assert Word.parse(word.alphabet, str(word)) == word


def test_word_reversal_and_parikh():
    word = w(ANX, "xaxn")
    assert str(word.reversed()) == "nxax"
    assert parikh(word) == (1, 1, 2)


# --- measure construction --------------------------------------------------


@pytest.mark.parametrize(
    "payloads",
    [(1, 2, 3), [1, 2, 3], range(1, 4), (p for p in (1, 2, 3))],
    ids=["tuple", "list", "range", "generator"],
)
def test_measure_stores_any_iterable_of_payloads_as_a_tuple(payloads):
    measure = WeightMeasure(ANB, MonoidKind.NAT_SUM, payloads)
    assert measure.payloads == (1, 2, 3) and type(measure.payloads) is tuple
    assert [f.name for f in dataclasses.fields(measure)] == ["alphabet", "kind", "payloads"]
    assert not hasattr(measure, "weights")
    alias = WeightMeasure.from_payloads(ANB, MonoidKind.NAT_SUM, (1, 2, 3))
    assert measure == alias and hash(measure) == hash(alias)


@pytest.mark.parametrize(
    "kind,payloads,error",
    [
        (MonoidKind.NAT_SUM, [MonoidValue(MonoidKind.NAT_SUM, p) for p in (1, 2, 3)], ValueError),
        (MonoidKind.VEC2_LEX, [MonoidValue(MonoidKind.VEC2_LEX, (0, 1))] * 3, ValueError),
        (MonoidKind.NAT_SUM, (1, True, 3), ValueError),
        (MonoidKind.NAT_SUM, (1, -2, 3), ValueError),
        (MonoidKind.NAT_PRODUCT, (2, 1, 3), IncreasingPropertyViolation),
        (MonoidKind.VEC2_LEX, ((0, 1), 2, (1, 0)), ValueError),
        (MonoidKind.NAT_SUM, (1, 2), ValueError),
        (MonoidKind.NAT_SUM, (1, 2, 3, 4), ValueError),
    ],
    ids=["values", "vec2-values", "bool", "negative-sum", "product-one", "bare-int-vec2",
         "too-few", "too-many"],
)
def test_measure_rejects_payloads_outside_the_carrier(kind, payloads, error):
    with pytest.raises(error):
        WeightMeasure(ANB, kind, payloads)


def test_product_weight_one_violates_increasing_property():
    with pytest.raises(IncreasingPropertyViolation):
        product_measure(BITS, 1, 2)


def test_sum_weight_zero_violates_increasing_property():
    with pytest.raises(IncreasingPropertyViolation):
        sum_measure(Alphabet(("a",)), 0)


def test_arity_mismatch_is_an_error():
    with pytest.raises(ValueError, match="base weights"):
        sum_measure(ABC, 1, 2)


def test_weights_of_words():
    mu = sum_measure(ANB, 1, 2, 3)
    assert mu.weight(w(ANB, "banana")).payload == 10
    assert mu.weight(w(ANB, "")).payload == 0
    nu = product_measure(ABC, 2, 6, 18)
    assert nu.weight(w(ABC, "ab")).payload == 12
    assert nu.weight(w(ABC, "")).payload == 1


def test_weight_rejects_foreign_word():
    mu = sum_measure(ANB, 1, 2, 3)
    with pytest.raises(ValueError, match="different alphabet"):
        mu.weight(w(ABC, "abc"))


# --- classification ----------------------------------------------------------


def test_classify_stepped_gapfree():
    flags = classify(sum_measure(ABC, 2, 4, 6))
    assert flags.stepped is not None and flags.stepped.payload == 2
    assert flags.gapfree and flags.gap_witness is None
    assert flags.injective and flags.alphabetically_ordered
    assert not flags.binary and not flags.unary and not flags.prime


def test_classify_gapful_measure():
    measure = sum_measure(ABC, 1, 3, 4)
    flags = classify(measure)
    assert flags.stepped is None
    assert not flags.gapfree
    witness = flags.gap_witness
    assert str(witness.word) == "cacb" and witness.index == 3
    assert gap_indexes(measure, witness.word) == [3]


def test_classify_vector_fixture():
    flags = classify(VEC_FIXTURE)
    assert flags.stepped is None
    assert flags.gapfree
    assert flags.injective and flags.alphabetically_ordered


def test_classify_prime_and_binary_flags():
    flags = classify(product_measure(ABC, 2, 3, 5))
    assert flags.prime and not flags.gapfree
    flags = classify(product_measure(BITS, 2, 3))
    assert flags.prime and flags.binary and flags.gapfree
    flags = classify(sum_measure(ABC, 2, 2, 2))
    assert flags.unary and flags.gapfree and flags.stepped.payload == 0
    flags = classify(sum_measure(ABC, 3, 1, 2))
    assert not flags.alphabetically_ordered


def test_prime_flag_agrees_with_trial_division():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(_is_prime(n) == trial(n) for n in range(20_000))


@pytest.mark.parametrize(
    "weight, prime",
    [
        (3_215_031_751, False),  # a strong pseudoprime to bases 2, 3, 5 and 7
        (100_000_000_000_000_000_039, True),
        (2**89, False),
    ],
)
def test_prime_flag_of_large_weights(weight, prime):
    assert classify(product_measure(BITS, 3, weight)).prime is prime


def test_prime_flag_refuses_beyond_the_exact_bound():
    # 2^89 - 1 is prime, but no Miller-Rabin base up to 41 proves that there.
    with pytest.raises(CapacityExceeded, match="Miller"):
        classify(product_measure(BITS, 3, 2**89 - 1))


def test_prime_flag_refuses_the_exact_bound_itself():
    # The bound is a strong pseudoprime to all 13 bases, so no witness
    # shows it composite, and it is the first number the bases cannot decide.
    with pytest.raises(CapacityExceeded, match="Miller"):
        _is_prime(_PRIME_EXACT_BELOW)


# --- gapfreeness decision ----------------------------------------------------


def test_prime_triple_is_gapful_with_shaped_witness():
    measure = product_measure(ABC, 2, 3, 5)
    gap = find_gap(measure)
    assert gap is not None and gap.index == 3
    weights = [measure.payloads[i] for i in gap.word.indices]
    assert weights[0] == weights[2]
    assert weights[1] < weights[3] < weights[0]
    assert gap.index in gap_indexes(measure, gap.word)


def test_gapful_sum_measures():
    assert find_gap(sum_measure(ABC, 1, 2, 4)) is not None
    assert find_gap(sum_measure(ABC, 1, 3, 4)) is not None


def test_standard_measure_is_gapfree():
    assert find_gap(standard_measure(ABC)) is None
    assert find_gap(standard_measure(Alphabet(("a", "b", "c", "d", "e")))) is None


def test_geometric_product_measure_is_gapfree_but_unstepped():
    # 6*6 == 4*9, so the single triple passes, yet 6/4 is not an integer.
    measure = product_measure(ABC, 4, 6, 9)
    assert find_gap(measure) is None
    assert stepped_step(measure) is None


def test_non_injective_measures_decide_through_projection():
    assert find_gap(sum_measure(ANCB, 1, 2, 2, 3)) is None
    assert find_gap(sum_measure(Alphabet(("a", "b", "c", "d")), 1, 1, 2, 4)) is not None


# --- stepped detection -------------------------------------------------------


@pytest.mark.parametrize(
    "measure,expected",
    [
        (sum_measure(ABC, 2, 4, 6), 2),
        (sum_measure(ABC, 1, 3, 4), None),
        (product_measure(ABC, 2, 6, 18), 3),
        (product_measure(ABC, 2, 6, 12), None),
        (VEC_FIXTURE, None),
        (sum_measure(ABC, 3, 3, 3), 0),
        (product_measure(ABC, 5, 5, 5), 1),
        (vec_measure(ABC, (0, 3), (1, 0), (2, 0)), None),
    ],
)
def test_stepped_step(measure, expected):
    step = stepped_step(measure)
    if expected is None:
        assert step is None
    else:
        assert step.payload == expected


def test_stepped_vector_measure():
    measure = WeightMeasure(ABC, MonoidKind.VEC2_LEX, ((1, 0), (2, 1), (3, 2)))
    assert stepped_step(measure).payload == (1, 1)
    assert find_gap(measure) is None


# --- projection --------------------------------------------------------------


def test_project_merges_equal_weights():
    projected = sum_measure(ANCB, 1, 2, 2, 3).projected
    assert projected.measure.alphabet.letters == ("{a}", "{n,c}", "{b}")
    assert projected.measure.payloads == (1, 2, 3)
    assert projected.class_sizes() == (1, 2, 1)
    assert projected.class_of == (0, 1, 1, 2)


def test_project_injective_measure_is_identity_partition():
    projected = sum_measure(ANB, 1, 2, 3).projected
    assert projected.class_sizes() == (1, 1, 1)
    assert projected.measure.alphabet.letters == ("{a}", "{n}", "{b}")


def test_project_all_equal_weights():
    projected = sum_measure(ABC, 2, 2, 2).projected
    assert len(projected.measure.alphabet) == 1
    assert projected.class_sizes() == (3,)


def test_project_word_examples():
    measure = sum_measure(ANCB, 1, 2, 2, 3)
    projected = measure.projected
    assert str(projected.project_word(w(ANCB, "nanaba"))) == "{n,c}{a}{n,c}{a}{b}{a}"
    assert str(projected.project_word(w(ANCB, "banana"))) == "{b}{a}{n,c}{a}{n,c}{a}"
    assert len(projected.project_word(w(ANCB, ""))) == 0
    with pytest.raises(ValueError, match="different alphabet"):
        projected.project_word(w(ANB, "nab"))


def test_projection_cache_leaves_no_cyclic_garbage():
    # The projection is cached on the measure; a reference back to the
    # measure would keep both alive until a full collection.
    gc.collect()
    gc.disable()
    try:
        assert sum_measure(ANCB, 1, 2, 2, 3).projected.class_sizes() == (1, 2, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_projection_preserves_weight():
    measure = sum_measure(ANCB, 1, 2, 2, 3)
    projected = measure.projected
    for text in ("nanaba", "bcbc", "a", ""):
        word = w(ANCB, text)
        assert projected.measure.weight_payload(projected.project_word(word)) == measure.weight_payload(word)


# --- bounded equivalence ------------------------------------------------------


def test_sum_and_product_fixture_measures_are_equivalent():
    report = bounded_equivalence(
        sum_measure(ABC, 2, 4, 6), product_measure(ABC, 2, 6, 18), max_len=6
    )
    assert report.equivalent
    assert "up to 6" in report.describe()


def test_inequivalent_measures_yield_a_witness_pair():
    for second in (sum_measure(ABC, 1, 2, 4), product_measure(ABC, 2, 3, 5)):
        report = bounded_equivalence(sum_measure(ABC, 1, 2, 3), second, max_len=4)
        assert not report.equivalent
        assert words(report.witness) == ["ac", "bb"]
        assert report.describe() == (
            "inequivalent: same-length words ac and bb compare differently "
            "(found within length bound 4)"
        )


def test_equivalence_is_reflexive():
    measure = sum_measure(ABC, 1, 3, 4)
    assert bounded_equivalence(measure, measure, 4).equivalent


def test_equivalence_refuses_oversized_levels():
    # The cap counts the letter multisets of lengths 1..max_len: 3 letters
    # give C(max_len + 3, 3) - 1, which first exceeds 100 000 at max_len 83.
    first, second = sum_measure(ABC, 1, 2, 3), sum_measure(ABC, 1, 2, 4)
    assert not bounded_equivalence(first, second, max_len=82).equivalent
    with pytest.raises(CapacityExceeded) as info:
        bounded_equivalence(first, second, max_len=83)
    assert info.value.count == math.comb(86, 3) - 1 == 102_339
    # Refused before any level is built, however far out of reach.
    with pytest.raises(CapacityExceeded):
        bounded_equivalence(first, second, max_len=10**9)


def test_one_letter_measures_are_equivalent_without_combining_a_weight(monkeypatch):
    # One word per length leaves no two words to order apart, so a one-letter
    # bound answers at once, up to the cap of 100 000 multisets.
    one = Alphabet(("a",))
    first = WeightMeasure(one, MonoidKind.NAT_SUM, (1,))
    second = WeightMeasure(one, MonoidKind.NAT_PRODUCT, (2,))

    def combine(measure):
        raise AssertionError("combined a weight")

    monkeypatch.setattr(WeightMeasure, "combine", property(combine))
    report = bounded_equivalence(first, second, 100_000)
    assert report.equivalent and report.witness is None and report.max_len == 100_000
    with pytest.raises(CapacityExceeded) as info:
        bounded_equivalence(first, second, 100_001)
    assert info.value.count == 100_001


def _orders_differently(first, second, u, v):
    a = [first.weight_payload(x) for x in (u, v)]
    b = [second.weight_payload(x) for x in (u, v)]
    return (a[0] < a[1], a[0] == a[1]) != (b[0] < b[1], b[0] == b[1])


def _order_alike_by_definition(first, second, max_len):
    """Every pair of same-length words, ties included, compares alike under both."""
    size = len(first.alphabet)
    for length in range(1, max_len + 1):
        level = [Word(first.alphabet, c) for c in itertools.product(range(size), repeat=length)]
        if any(_orders_differently(first, second, u, v) for u, v in itertools.combinations(level, 2)):
            return False
    return True


# Letter ranks mapped into each carrier so that equal ranks give equivalent
# measures: the weight of a word then grows with its rank sum at every length.
_RANKED = {
    MonoidKind.NAT_SUM: lambda rank: rank + 1,
    MonoidKind.NAT_PRODUCT: lambda rank: 2 * 3**rank,
    MonoidKind.VEC2_LEX: lambda rank: (rank, 1),
}
_FREE = {
    MonoidKind.NAT_SUM: st.integers(1, 6),
    MonoidKind.NAT_PRODUCT: st.integers(2, 9),
    MonoidKind.VEC2_LEX: st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any),
}


@st.composite
def measure_pairs(draw):
    size = draw(st.integers(2, 3))
    alphabet = Alphabet(tuple("abc"[:size]))
    ranks = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))

    def measure():
        kind = draw(st.sampled_from(MonoidKind))
        if draw(st.booleans()):
            payloads = [_RANKED[kind](rank) for rank in ranks]
        else:
            payloads = draw(st.lists(_FREE[kind], min_size=size, max_size=size))
        return WeightMeasure(alphabet, kind, payloads)

    return measure(), measure()


@given(measure_pairs(), st.integers(1, 4))
def test_bounded_equivalence_matches_the_definition(pair, max_len):
    first, second = pair
    report = bounded_equivalence(first, second, max_len)
    assert report.equivalent == _order_alike_by_definition(first, second, max_len)
    if report.equivalent:
        assert report.witness is None
    else:
        u, v = report.witness
        assert len(u) == len(v) <= max_len and u != v
        assert _orders_differently(first, second, u, v)


def test_equivalence_requires_shared_alphabet():
    with pytest.raises(ValueError, match="alphabet"):
        bounded_equivalence(sum_measure(ABC, 1, 2, 3), sum_measure(ANB, 1, 2, 3), 3)


# --- standard and subset measures ----------------------------------------------


def test_standard_measure_weights():
    assert standard_measure(ABC).payloads == (1, 2, 3)
    assert standard_measure(BITS).payloads == (1, 2)
    assert standard_measure(Alphabet(("x",))).payloads == (1,)
    flags = classify(standard_measure(ABC))
    assert flags.gapfree and flags.injective and flags.alphabetically_ordered


def test_subset_measure_weights():
    assert subset_measure(BITS, {"1"}).payloads == (1, 2)
    assert subset_measure(ABC, set()).payloads == (1, 1, 1)
    assert subset_measure(ABC, {"a", "b", "c"}).payloads == (2, 2, 2)
    with pytest.raises(ValueError, match="not in alphabet"):
        subset_measure(ABC, {"z"})


def test_exchange_identity_for_gapfree_ordered_measures():
    for measure in (standard_measure(Alphabet(("a", "b", "c", "d"))), VEC_FIXTURE):
        ws = measure.payloads
        comb = measure.combine
        n = len(ws)
        for i in range(n):
            for x in range(2, n - i):
                for y in range(1, x):
                    assert comb(ws[i], ws[i + x]) == comb(ws[i + y], ws[i + x - y])


# --- measure spec files ---------------------------------------------------------


SPEC_OK = """\
# alphabetic order matters
letters = a n b
weights = 1 2 3   # one per letter
monoid = nat-sum
"""


def test_parse_measure_text_any_key_order():
    measure = parse_measure_text(SPEC_OK)
    assert measure.alphabet.letters == ("a", "n", "b")
    assert measure.kind is MonoidKind.NAT_SUM
    assert measure.payloads == (1, 2, 3)


def test_parse_measure_text_vector_values():
    measure = parse_measure_text(
        "monoid = vec2-lex\nletters = a b c\nweights = (0,2) (1,1) (2,0)\n"
    )
    assert measure.payloads == ((0, 2), (1, 1), (2, 0))


def test_measure_text_roundtrip():
    measure = parse_measure_text(SPEC_OK)
    assert parse_measure_text(measure_text(measure)) == measure


spec_payloads = {
    MonoidKind.NAT_SUM: st.integers(1, 10**6),
    MonoidKind.NAT_PRODUCT: st.integers(2, 10**6),
    MonoidKind.VEC2_LEX: st.tuples(st.integers(0, 50), st.integers(0, 50)).filter(
        lambda pair: pair != (0, 0)
    ),
}


@given(
    st.lists(letter_tokens, min_size=1, max_size=5, unique=True),
    st.sampled_from(MonoidKind),
    st.data(),
)
def test_every_accepted_measure_round_trips_through_its_spec(tokens, kind, data):
    try:
        alphabet = Alphabet(tuple(tokens))
    except ValueError:
        return  # a token the alphabet refuses never reaches a spec
    payloads = data.draw(st.lists(spec_payloads[kind], min_size=len(tokens), max_size=len(tokens)))
    measure = WeightMeasure(alphabet, kind, payloads)
    assert parse_measure_text(measure_text(measure)) == measure


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("monoid = nat-sum\nletters = a b\nbogus = 1\nweights = 1 2\n", 3, "unknown key"),
        ("monoid = maybe\nletters = a\nweights = 1\n", 1, "unknown monoid"),
        ("monoid = nat-sum\nmonoid = nat-sum\nletters = a\nweights = 1\n", 2, "duplicate"),
        ("monoid = nat-sum\nletters = a a\nweights = 1 1\n", 2, "duplicate letter"),
        ("monoid = nat-sum\nletters = a b\nweights = 1 x\n", 3, "decimal integer"),
        ("monoid = nat-sum\nletters = a b\nweights = 1\n", 3, "2 letters but 1 weights"),
        ("letters = a b\nweights = 1 2\n", None, "missing 'monoid'"),
        ("monoid = nat-sum\nletters = a b\nno equals sign\n", 3, "key = value"),
        ("monoid = nat-sum\nletters = a b\nweights =\n", 3, "empty value for 'weights'"),
        # Keys out of order: each error still names the line of its own entry.
        ("weights = 1 x\nmonoid = nat-sum\nletters = a b\n", 1, "decimal integer"),
        ("weights = 1 1\nmonoid = nat-sum\nletters = a a\n", 3, "duplicate letter"),
        ("letters = a\nweights = 1\nmonoid = maybe\n", 3, "unknown monoid"),
        ("monoid = nat-sum\nweights = 1 2\nletters = a b c\n", 2, "3 letters but 2 weights"),
    ],
)
def test_parse_measure_text_errors(text, line, fragment):
    with pytest.raises(MeasureSpecError) as info:
        parse_measure_text(text)
    assert fragment in str(info.value)
    assert info.value.line == line


def test_parse_measure_text_increasing_property_passthrough():
    with pytest.raises(IncreasingPropertyViolation):
        parse_measure_text("monoid = nat-product\nletters = 0 1\nweights = 1 2\n")


# --- randomized invariants -------------------------------------------------------


small_sum_measures = st.lists(st.integers(1, 8), min_size=2, max_size=4).map(
    lambda ws: sum_measure(Alphabet(tuple("abcd"[: len(ws)])), *ws)
)


@given(small_sum_measures)
def test_classification_invariants(measure):
    flags = classify(measure)
    assert flags.gapfree == (flags.gap_witness is None)
    if flags.stepped is not None:
        assert flags.gapfree
    projected = measure.projected
    assert len(set(projected.measure.payloads)) == len(projected.measure.payloads)
    assert flags.injective == (len(projected.measure.alphabet) == len(measure.alphabet))
