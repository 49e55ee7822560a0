import pytest

from helpers import ABC, ANB, ANCB, sum_measure, w
from prefixnorm import (
    Alphabet,
    CapacityExceeded,
    Word,
    bounded_equivalence,
    count_binary_prefix_normal,
    count_prefix_normal_words,
    equivalence_class,
    prefix_normal_set,
    run_suite,
)
from prefixnorm.errors import refuse

ABCD = Alphabet(("a", "b", "c", "d"))
TRIPLE = sum_measure(ABCD, 1, 1, 1, 2)
PAIR = sum_measure(Alphabet(("a", "b")), 1, 1)


def test_refuse_passes_the_limit_itself():
    refuse(10, "words", limit=10)
    with pytest.raises(CapacityExceeded, match="^refusing: 11 words exceed the limit of 10$"):
        refuse(11, "words", limit=10)


@pytest.mark.parametrize(
    "call,count",
    [
        (lambda: prefix_normal_set(sum_measure(ANCB, 1, 2, 2, 3), w(ANCB, "nanaba"), limit=3), 4),
        (lambda: equivalence_class(sum_measure(ANB, 1, 2, 3), w(ANB, "banana"), limit=100), 3**6),
        (lambda: equivalence_class(PAIR, Word(PAIR.alphabet, (0,) * 1000)), 2**1000),
        # More digits than Python's default int -> str limit.
        (lambda: equivalence_class(PAIR, Word(PAIR.alphabet, (0,) * 20000)), 2**20000),
        # 2^6 candidates and a fiber of 3^4 pass; the walk finds 5 projected words.
        (lambda: equivalence_class(TRIPLE, Word(ABCD, (0, 0, 0, 0, 3, 3)), limit=81), 5 * 3**4),
        (lambda: count_prefix_normal_words(TRIPLE, 17), 2**17),
        (lambda: count_prefix_normal_words(sum_measure(ANB, 1, 2, 3), 11), 3**11),
        (lambda: count_binary_prefix_normal(10**9), None),
        (lambda: bounded_equivalence(sum_measure(ABC, 1, 2, 3), sum_measure(ABC, 1, 2, 4), 83), 102_339),
        (lambda: run_suite("trichotomy", max_len=7), 1_347_272),
    ],
    ids=["pnset", "class-candidates", "class-fiber", "class-fiber-past-str", "class-expansion",
         "count-pn-projected", "count-pn", "binary-huge", "bounded-equivalence", "trichotomy-corpus"],
)
def test_every_count_refusal_goes_through_one_gate(call, count):
    with pytest.raises(CapacityExceeded) as info:
        call()
    assert info.value.count == count
    assert str(info.value).startswith("refusing: ")


def test_refuse_writes_a_count_past_str_as_a_power_of_ten():
    with pytest.raises(CapacityExceeded, match=r"^refusing: more than 10\^6020 words exceed") as info:
        refuse(2**20000, "words")
    assert info.value.count == 2**20000


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Word(PAIR.alphabet, (0, 2)), "letter index 2 out of range for a 2-letter alphabet"),
        (lambda: bounded_equivalence(PAIR, PAIR, 0), "max_len must be at least 1"),
        (lambda: equivalence_class(PAIR, w(PAIR.alphabet, "ab"), limit=0), "limit must be at least 1"),
        (lambda: prefix_normal_set(PAIR, w(PAIR.alphabet, "ab"), limit=0), "limit must be at least 1"),
    ],
    ids=["word-index", "equivalence-bound", "class-limit", "pnset-limit"],
)
def test_usage_errors_are_value_errors(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
