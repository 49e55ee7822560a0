"""Acceptance gate: fixed fixtures plus the full verification sweeps.

Each test prints one PASS/FAIL line; all comparisons are exact (integer
payloads, zero violation counts).  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

from helpers import ABC, ANB, ANBX, ANCB, ANX, sum_measure, w, words
from prefixnorm import (
    DEFAULT_SEED,
    NoNormalForm,
    UniqueNormalForm,
    brute_gap_search,
    corpus_measures,
    count_prefix_normal,
    equivalence_class,
    find_gap,
    gap_indexes,
    prefix_normal_form,
    prefix_normal_set,
    run_suite,
    standard_measure,
    weight_profile,
)


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert passed, f"{criterion}{suffix}"


def _payloads(values):
    return tuple(v.payload for v in values)


def test_criterion_1_profile_table():
    mu = sum_measure(ANB, 1, 2, 3)
    nanaba = weight_profile(mu, w(ANB, "nanaba"))
    banana = weight_profile(mu, w(ANB, "banana"))
    ok = (
        _payloads(nanaba.prefix[1:]) == (2, 3, 5, 6, 9, 10)
        and _payloads(nanaba.factor_max[1:]) == (3, 4, 6, 7, 9, 10)
        and _payloads(banana.prefix[1:]) == (3, 4, 6, 7, 9, 10)
        and _payloads(banana.factor_max[1:]) == (3, 4, 6, 7, 9, 10)
    )
    _report("criterion 1: profile table fixtures", ok)


def test_criterion_2_class_and_normal_form_fixtures():
    mu = sum_measure(ANB, 1, 2, 3)
    expected_class = ["abanan", "anaban", "ananab", "banana", "nabana", "nanaba"]
    class_ok = words(equivalence_class(mu, w(ANB, "banana"))) == expected_class

    four = sum_measure(ANCB, 1, 2, 2, 3)
    nanaba = w(ANCB, "nanaba")
    set_ok = words(prefix_normal_set(four, nanaba)) == ["bacaca", "bacana", "banaca", "banana"]
    count_ok = count_prefix_normal(four, nanaba) == 4

    nu = sum_measure(ANX, 1, 2, 4)
    gap_ok = (
        prefix_normal_set(nu, w(ANX, "xaxn")) == set()
        and isinstance(prefix_normal_form(nu, w(ANX, "xaxn")), NoNormalForm)
    )

    extended = sum_measure(ANBX, 1, 2, 3, 4)
    restored = prefix_normal_form(extended, w(ANBX, "xaxn"))
    restored_ok = isinstance(restored, UniqueNormalForm) and str(restored.word) == "xnbn"

    std = standard_measure(ABC)
    unique = prefix_normal_form(std, w(ABC, "bcac"))
    unique_ok = isinstance(unique, UniqueNormalForm) and str(unique.word) == "cbbb"

    _report(
        "criterion 2: class and normal form fixtures",
        class_ok and set_ok and count_ok and gap_ok and restored_ok and unique_ok,
    )


def test_criterion_3_gap_fixtures():
    nu = sum_measure(ABC, 1, 3, 4)
    # bcac exhibits its gap exactly at index 3 (f = 4,7,9,12; no letter weighs 2).
    bcac_ok = gap_indexes(nu, w(ABC, "bcac")) == [3]
    bcac_profile_ok = _payloads(weight_profile(nu, w(ABC, "bcac")).factor_max[1:]) == (4, 7, 9, 12)
    # The exhaustive scan agrees the measure is gapful, finding the scan-order
    # first gap (bbac at index 2 precedes bcac lexicographically).
    brute = brute_gap_search(nu, 4)
    brute_ok = brute is not None and (str(brute.word), brute.index) == ("bbac", 2)

    # The frequently quoted vector (4,6,9,11) is the xaxn fixture's profile.
    xnu = sum_measure(ANX, 1, 2, 4)
    xaxn_ok = _payloads(weight_profile(xnu, w(ANX, "xaxn")).factor_max[1:]) == (4, 6, 9, 11)

    mu = sum_measure(ABC, 1, 2, 4)
    long_ok = _payloads(weight_profile(mu, w(ABC, "ccabccb")).factor_max[1:]) == (
        4, 8, 10, 12, 15, 19, 21,
    )
    mu_brute = brute_gap_search(mu, 4)
    mu_brute_ok = mu_brute is not None and (str(mu_brute.word), mu_brute.index) == ("bcac", 3)
    gap = find_gap(mu)
    witness_ok = (
        gap is not None
        and len(gap.word) == 4
        and gap.index == 3
        and gap.index in gap_indexes(mu, gap.word)
    )

    _report(
        "criterion 3: gap fixtures",
        bcac_ok and bcac_profile_ok and brute_ok and xaxn_ok and long_ok and mu_brute_ok and witness_ok,
    )


def test_criterion_4_trichotomy_sweep():
    measures = corpus_measures(DEFAULT_SEED)
    report = run_suite("trichotomy", seed=DEFAULT_SEED, max_len=5)
    ok = len(measures) >= 200 and report.passed
    _report("criterion 4: trichotomy sweep", ok, report.summary_line())


def test_criterion_5_gap_decision_agreement():
    report = run_suite("gap-decision", seed=DEFAULT_SEED, max_len=6)
    _report("criterion 5: gap decision agreement", report.passed, report.summary_line())


def test_criterion_6_equivalence_suite():
    report = run_suite("equivalence", seed=DEFAULT_SEED, max_len=6)
    _report("criterion 6: equivalence suite", report.passed, report.summary_line())


def test_criterion_7_theorem_suites():
    reports = [
        run_suite("position-functions", seed=DEFAULT_SEED, cases=10_000),
        run_suite("subadditivity", seed=DEFAULT_SEED, cases=10_000),
        run_suite("pn-equivalences", seed=DEFAULT_SEED, cases=10_000),
        run_suite("prime-gapful", seed=DEFAULT_SEED),
        run_suite("vector-gapfree", seed=DEFAULT_SEED, max_len=6),
    ]
    randomized = reports[:3]
    ok = all(r.passed for r in reports) and all(r.cases >= 10_000 for r in randomized)
    detail = "; ".join(r.summary_line() for r in reports)
    _report("criterion 7: theorem suites", ok, detail)


def test_criterion_8_binary_reduction():
    report = run_suite("binary-reduction", seed=DEFAULT_SEED, max_len=12)
    _report("criterion 8: binary reduction", report.passed, report.summary_line())
