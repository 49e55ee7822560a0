import copy
import dataclasses
import gc
import itertools
import pickle
import random
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    ABC, ANB, ANCB, ANX, VEC_FIXTURE, product_measure, sum_measure, vec_measure, w, words,
)
from prefixnorm import (
    Alphabet,
    CapacityExceeded,
    Gap,
    MonoidKind,
    WeightMeasure,
    Word,
    brute_equivalence_class,
    brute_gap_search,
    brute_prefix_normal_set,
    corpus_measures,
    count_binary_prefix_normal,
    count_prefix_normal,
    equivalence_class,
    find_gap,
    gap_indexes,
    prefix_normal_set,
    SweepReport,
    run_suite,
    standard_measure,
    suite_names,
)
from prefixnorm import oracle
from prefixnorm.oracle import classic_max_ones, classic_prefix_ones, is_prefix_normal_classic


def test_brute_gap_search_returns_first_gap_in_scan_order():
    # (1,3,4) has its documented gap over bcac at index 3, but the scan order
    # (length, lexicographic, index) reaches bbac first: f = (4,6,8,11) and no
    # letter weighs 6-4 = 2.
    measure = sum_measure(ABC, 1, 3, 4)
    gap = brute_gap_search(measure, 4)
    assert (str(gap.word), gap.index) == ("bbac", 2)
    assert gap_indexes(measure, w(ABC, "bcac")) == [3]


def test_brute_gap_search_on_powers_of_two_weights():
    measure = sum_measure(ABC, 1, 2, 4)
    gap = brute_gap_search(measure, 4)
    assert (str(gap.word), gap.index) == ("bcac", 3)


def test_brute_gap_search_standard_measure_finds_nothing():
    assert brute_gap_search(standard_measure(ABC), 5) is None


def test_brute_and_fast_gap_decisions_agree_on_fixtures():
    for payloads in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 4, 6), (3, 5, 7)):
        measure = sum_measure(ABC, *payloads)
        assert (find_gap(measure) is None) == (brute_gap_search(measure, 6) is None)


def test_brute_prefix_normal_set_fixtures():
    assert words(brute_prefix_normal_set(sum_measure(ANCB, 1, 2, 2, 3), w(ANCB, "nanaba"))) == [
        "bacaca",
        "bacana",
        "banaca",
        "banana",
    ]
    assert brute_prefix_normal_set(sum_measure(ANX, 1, 2, 4), w(ANX, "xaxn")) == set()
    assert words(brute_prefix_normal_set(sum_measure(ANB, 1, 2, 3), Word(ANB, ()))) == [""]


def test_brute_set_agrees_with_fast_path_on_random_words():
    rng = random.Random(11)
    measures = [
        sum_measure(ANCB, 1, 2, 2, 3),
        sum_measure(ABC, 1, 2, 4),
        standard_measure(ABC),
    ]
    for _ in range(60):
        measure = rng.choice(measures)
        size = len(measure.alphabet)
        word = Word(measure.alphabet, tuple(rng.randrange(size) for _ in range(rng.randint(0, 5))))
        brute = brute_prefix_normal_set(measure, word)
        assert prefix_normal_set(measure, word) == brute
        assert count_prefix_normal(measure, word) == len(brute)


@pytest.mark.parametrize(
    "measure, max_len",
    [
        (sum_measure(ABC, 1, 2, 3), 5),
        (sum_measure(ABC, 1, 2, 2), 5),
        (product_measure(ABC, 2, 3, 5), 5),
        (product_measure(ABC, 2, 6, 18), 5),
        (VEC_FIXTURE, 5),
        (vec_measure(ABC, (0, 1), (0, 1), (1, 0)), 5),
        # Four letters sum to second components past 1 * 2 + 1: a walk folded
        # for one letter instead of the word's length misjudges the class of bbbc.
        (vec_measure(ABC, (0, 1), (0, 2), (1, 0)), 5),
        (sum_measure(ANCB, 1, 3, 3, 4), 4),
    ],
    ids=[
        "sum-123", "sum-122", "product-235", "product-2-6-18", "vec-lex", "vec-tied",
        "vec-second-heavy", "sum-1334",
    ],
)
def test_equivalence_class_matches_brute_force_on_all_short_words(measure, max_len):
    size = len(measure.alphabet)
    for length in range(max_len + 1):
        covered = set()
        for combo in itertools.product(range(size), repeat=length):
            if combo in covered:
                continue
            # Scan each class once; every member must map back to all of it.
            brute = brute_equivalence_class(measure, Word(measure.alphabet, combo))
            for member in brute:
                assert equivalence_class(measure, member) == brute
                covered.add(member.indices)


_PAYLOADS = {
    MonoidKind.NAT_SUM: st.integers(1, 6),
    MonoidKind.NAT_PRODUCT: st.integers(2, 12),
    # Second components up to 1000, and often tiny ones: a fold whose scale
    # is too small then maps distinct sums to one int.
    MonoidKind.VEC2_LEX: st.tuples(
        st.integers(0, 3), st.integers(0, 2) | st.integers(0, 1000)
    ).filter(any),
}


@st.composite
def measures_and_words(draw, tied: bool):
    kind = draw(st.sampled_from(MonoidKind))
    size = draw(st.integers(2, 3))
    payloads = draw(st.lists(_PAYLOADS[kind], min_size=size, max_size=size))
    if tied:
        # One letter takes another's weight, so the projection merges them.
        first, second = draw(st.permutations(range(size)))[:2]
        payloads[first] = payloads[second]
    alphabet = Alphabet(tuple("abc"[:size]))
    indices = draw(st.lists(st.integers(0, size - 1), max_size=6))
    return WeightMeasure(alphabet, kind, payloads), Word(alphabet, tuple(indices))


@pytest.mark.parametrize("tied", [True, False], ids=["tied", "free"])
@given(data=st.data())
def test_equivalence_class_matches_brute_force_on_random_measures(tied, data):
    measure, word = data.draw(measures_and_words(tied))
    assert equivalence_class(measure, word) == brute_equivalence_class(measure, word)


@pytest.mark.parametrize(
    "payloads",
    [(1, 2, 3), (1, 2, 4), (1, 2, 2, 3)],
)
def test_verify_trichotomy_fixtures(payloads):
    alphabet = Alphabet(tuple("abcd"[: len(payloads)]))
    cases, violations = oracle._check_trichotomy(sum_measure(alphabet, *payloads), max_len=4)
    assert not violations
    assert cases == sum(len(alphabet) ** n for n in range(1, 5))


def test_count_binary_prefix_normal_small_values():
    assert [count_binary_prefix_normal(n) for n in range(0, 4)] == [1, 2, 3, 5]


def test_count_binary_prefix_normal_matches_classic_oracle():
    for n in range(0, 9):
        classic = sum(
            is_prefix_normal_classic(bits) for bits in itertools.product((0, 1), repeat=n)
        )
        assert count_binary_prefix_normal(n) == classic


def test_count_binary_prefix_normal_matches_oeis_a194850():
    a194850 = [1, 2, 3, 5, 8, 14, 23, 41, 70, 125, 218, 395, 697, 1273, 2279, 4185, 7568]
    assert [count_binary_prefix_normal(n) for n in range(17)] == a194850


def test_enumerators_leave_no_cyclic_garbage():
    # Cyclic garbage, such as a self-recursive walk's frames, stays alive
    # until a full collection and inflates peak memory.
    gc.collect()
    gc.disable()
    try:
        equivalence_class(sum_measure(ABC, 1, 2, 3), w(ABC, "cabbacb"))
        count_binary_prefix_normal(12)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_count_binary_prefix_normal_bound():
    with pytest.raises(CapacityExceeded) as info:
        count_binary_prefix_normal(17)
    assert info.value.count == 2**17
    # A huge length is refused before 2^n is built, so the count stays unknown.
    with pytest.raises(CapacityExceeded) as info:
        count_binary_prefix_normal(10**9)
    assert info.value.count is None
    with pytest.raises(ValueError):
        count_binary_prefix_normal(-1)


@pytest.mark.parametrize(
    "scan,count",
    [
        (lambda: run_suite("binary-reduction", max_len=17), 2**17),
        (lambda: run_suite("gap-decision", max_len=9), 4**9),
        (lambda: run_suite("vector-gapfree", max_len=11), 3**11),
        (lambda: run_suite("trichotomy", max_len=9), 4**9),
        # Every 4-letter alphabet accepts length 7, but not the whole corpus's words.
        (lambda: run_suite("trichotomy", max_len=7), 1_347_272),
        (lambda: run_suite("gap-decision", max_len=7), 1_347_272),
        (lambda: brute_gap_search(standard_measure(ABC), 10**9), None),
        # Refused by the call itself: the returned scan is never iterated.
        (lambda: oracle._scan(standard_measure(Alphabet(tuple("abcd"))), range(1, 10)), 4**9),
        (lambda: brute_prefix_normal_set(standard_measure(ABC), Word(ABC, (0,) * 11)), 3**11),
    ],
    ids=["binary-reduction", "gap-decision", "vector-gapfree", "trichotomy", "trichotomy-corpus",
         "gap-decision-corpus", "gap-search", "scan-uniterated", "prefix-normal-set"],
)
def test_oversized_word_scans_are_refused_up_front(scan, count):
    # The sweeps refuse for their largest corpus alphabet before the first measure.
    with pytest.raises(CapacityExceeded) as info:
        scan()
    assert info.value.count == count


def test_word_scans_over_one_letter_are_never_refused():
    unary = Alphabet(("a",))
    word = Word(unary, (0,) * 80)
    assert brute_equivalence_class(sum_measure(unary, 1), word) == {word}


def test_classic_oracle_direct_examples():
    bits = (1, 1, 0, 1, 0, 0, 1)
    assert classic_prefix_ones(bits) == [0, 1, 2, 2, 3, 3, 3, 4]
    assert classic_max_ones(bits) == [0, 1, 2, 2, 3, 3, 3, 4]
    assert is_prefix_normal_classic(bits)
    assert not is_prefix_normal_classic((1, 0, 0, 1, 1, 0, 1))


def test_corpus_is_deterministic_and_sized():
    first = corpus_measures(99)
    corpus_measures.cache_clear()
    second = corpus_measures(99)
    assert first == second
    assert len(first) == 220
    assert corpus_measures(100) != first


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("no-such-suite")


def test_run_suite_rejects_unknown_parameters():
    with pytest.raises(ValueError, match="max_lenn"):
        run_suite("trichotomy", max_lenn=2)
    # Sizes no suite takes any more are unknown too, not sweeps over nothing.
    with pytest.raises(ValueError, match="prime_bound"):
        run_suite("prime-gapful", prime_bound=4)
    with pytest.raises(ValueError, match="corpus_size"):
        run_suite("trichotomy", corpus_size=0)


def test_run_suite_passes_shared_parameters_only_where_declared():
    # The CLI hands --max-len and --cases to every suite; exchange takes only cases.
    report = run_suite("exchange", cases=5, max_len=3)
    assert report.passed
    assert report.params == {"cases": 5}


@pytest.mark.parametrize("name", ["cases", "max_len"])
@pytest.mark.parametrize("size", [0, -1])
def test_run_suite_rejects_sweeps_over_nothing(name, size):
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        run_suite("subadditivity", **{name: size})


def test_suite_registry_contents():
    names = suite_names()
    for expected in (
        "position-functions",
        "subadditivity",
        "pn-equivalences",
        "exchange",
        "prime-gapful",
        "projection",
        "vector-gapfree",
        "stepped-gapfree",
        "trichotomy",
        "gap-decision",
        "equivalence",
        "binary-reduction",
    ):
        assert expected in names


@pytest.mark.parametrize(
    "suite,params",
    [
        ("position-functions", {"cases": 400}),
        ("subadditivity", {"cases": 400}),
        ("pn-equivalences", {"cases": 400}),
        ("exchange", {"cases": 400}),
        ("prime-gapful", {}),
        ("projection", {"cases": 400}),
        ("vector-gapfree", {"max_len": 5}),
        ("stepped-gapfree", {"cases": 300}),
        ("trichotomy", {"max_len": 4}),
        ("gap-decision", {"max_len": 5}),
        ("equivalence", {}),
        ("binary-reduction", {"max_len": 6}),
    ],
)
def test_suites_pass_at_reduced_scale(suite, params):
    report = run_suite(suite, seed=5, **params)
    assert report.passed, report.violations[:3]
    assert report.cases > 0


# Per suite, with cases=20 and max_len=4 passed to every suite as the CLI
# does: the sizes it declares and the cases it counts at seed 5.
SMALL_SWEEPS = {
    "binary-reduction": ({"max_len": 4}, 30),
    "equivalence": ({"max_len": 4}, 7588),
    "exchange": ({"cases": 20}, 20),
    "gap-decision": ({"max_len": 4}, 220),
    "pn-equivalences": ({"cases": 20, "max_len": 4}, 20),
    "position-functions": ({"cases": 20, "max_len": 4}, 20),
    "prime-gapful": ({}, 56),
    "projection": ({"cases": 20, "max_len": 4}, 20),
    "stepped-gapfree": ({"cases": 20}, 20),
    "subadditivity": ({"cases": 20, "max_len": 4}, 20),
    "trichotomy": ({"max_len": 4}, 34880),
    "vector-gapfree": ({"max_len": 4}, 122),
}


@pytest.mark.parametrize("suite", suite_names())
def test_report_params_are_the_sizes_the_suite_ran_with(suite):
    sizes, cases = SMALL_SWEEPS[suite]
    report = run_suite(suite, seed=5, cases=20, max_len=4)
    assert report.suite == suite
    assert report.params == sizes
    assert report.cases == cases


def test_report_rendering_formats():
    report = run_suite("vector-gapfree", seed=1)
    lines = report.render("lines").splitlines()
    assert lines[0] == f"SUITE vector-gapfree CASES {report.cases} VIOLATIONS 0"
    text = report.render("text")
    assert text.startswith("vector-gapfree: pass")
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.cases = 0
    with pytest.raises(TypeError):
        report.params["max_len"] = 99
    assert report.render("text") == text
    assert text.endswith("; max_len=6)")
    assert run_suite("prime-gapful", seed=1).render("text") == "prime-gapful: pass (56 cases)"


def test_report_survives_pickle_and_deepcopy():
    report = SweepReport("demo", {"cases": 5}, cases=5, violations=("x",))
    for copied in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert copied == report
        with pytest.raises(TypeError):
            copied.params["cases"] = 6


def test_reports_are_replayable_on_forced_failure(monkeypatch):
    # Conditions that never agree fail every case; the lines pin the draw
    # order (a measure, then a word) and the counterexample format.
    disagree = (True, False, True, True)
    monkeypatch.setattr(oracle, "normality_conditions", lambda measure, word: disagree)
    report = run_suite("pn-equivalences", seed=5, cases=3)
    assert not report.passed
    assert report.violations == (
        "measure[nat-sum; letters a b; weights 6 7] | word  | "
        "conditions disagree: (True, False, True, True)",
        "measure[nat-product; letters a b c; weights 9 10 11] | word bb | "
        "conditions disagree: (True, False, True, True)",
        "measure[nat-product; letters a b; weights 8 3] | word abbbb | "
        "conditions disagree: (True, False, True, True)",
    )
    assert report.render("text").splitlines() == [
        "pn-equivalences: FAIL (3 cases; cases=3 max_len=5)",
        *(f"  counterexample: {line}" for line in report.violations),
    ]


def test_gap_decision_reports_are_replayable_on_forced_failure(monkeypatch):
    # A one-letter witness for every measure: gapfree measures disagree with
    # the brute force, gapful ones get a badly shaped witness.
    monkeypatch.setattr(oracle, "find_gap", lambda measure: Gap(Word(measure.alphabet, (0,)), 1))
    report = run_suite("gap-decision", seed=5, max_len=4)
    assert (report.cases, len(report.violations)) == (220, 220)
    assert report.violations[5:8] == (
        "measure[nat-sum; letters a n b x; weights 1 2 3 4] | "
        "decision says gapful, brute force says gapfree",
        "measure[nat-sum; letters a n x; weights 1 2 4] | "
        "witness a is not high-low-high-mid shaped",
        "measure[nat-sum; letters a b c; weights 1 2 4] | "
        "witness a is not high-low-high-mid shaped",
    )


def test_trichotomy_reports_are_replayable_on_forced_failure(monkeypatch):
    # A predicted count of 1 for every class fails each class of another size;
    # the lines pin the scan order, length 1 before length 2.
    monkeypatch.setattr(oracle, "count_prefix_normal", lambda measure, word: 1)
    report = run_suite("trichotomy", seed=5, max_len=2)
    assert (report.cases, len(report.violations)) == (2752, 165)
    assert report.violations[:3] == (
        "measure[nat-sum; letters a n c b; weights 1 2 2 3] | word n | "
        "predicted count 1, brute force found 2",
        "measure[nat-sum; letters a n c b; weights 1 2 2 3] | word an | "
        "predicted count 1, brute force found 2",
        "measure[nat-sum; letters a n c b; weights 1 2 2 3] | word nn | "
        "predicted count 1, brute force found 4",
    )


def test_equivalence_reports_are_replayable_on_forced_failure(monkeypatch):
    # Inequivalent at the suite's length fails the fixture pair and every
    # eligible corpus measure; equivalent at length 4 makes each sampled pair
    # with diverging flags fail.  Pairs start with both measures.
    def forced(first, second, max_len):
        return SimpleNamespace(equivalent=max_len == 4, describe=lambda: "forced")

    monkeypatch.setattr(oracle, "bounded_equivalence", forced)
    report = run_suite("equivalence", seed=5)
    assert (report.cases, len(report.violations)) == (105, 88)
    assert sum(" vs " in line for line in report.violations) == 44
    assert report.violations[:2] == (
        "measure[nat-sum; letters a b c; weights 2 4 6] vs "
        "measure[nat-product; letters a b c; weights 2 6 18] | "
        "expected equivalence up to length 6",
        "measure[nat-sum; letters 0 1; weights 1 2] | "
        "not equivalent to the standard measure: forced",
    )
    assert report.violations[-1] == (
        "measure[nat-sum; letters a b c; weights 4 1 7] vs "
        "measure[nat-product; letters a b c; weights 2 6 18] | "
        "equivalent pair with diverging classifications"
    )


def test_binary_reduction_reports_are_replayable_on_forced_failure(monkeypatch):
    # A classic predicate that never holds fails every weighted prefix-normal
    # word and every length's count; each line starts with the measure.
    monkeypatch.setattr(oracle, "is_prefix_normal_classic", lambda bits: False)
    report = run_suite("binary-reduction", max_len=2)
    head = "measure[nat-sum; letters 0 1; weights 1 2] | "
    assert report.cases == 6
    assert report.violations == tuple(
        head + line
        for line in (
            "word 0 | weighted=True classic=False",
            "word 1 | weighted=True classic=False",
            "length 1 | counts disagree: op=2 classic=0 weighted=2",
            "word 00 | weighted=True classic=False",
            "word 10 | weighted=True classic=False",
            "word 11 | weighted=True classic=False",
            "length 2 | counts disagree: op=3 classic=0 weighted=3",
        )
    )
