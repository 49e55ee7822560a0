"""Weighted prefix normality for finite words over arbitrary finite alphabets.

Words are weighed by a morphism into a strictly ordered commutative
monoid; a word is prefix normal when each of its prefixes attains the
maximum weight among same-length factors.  The package classifies weight
measures, decides gapfreeness, constructs prefix-normal forms (projecting
non-injective measures), and ships brute-force oracles that re-derive
every fast-path result from the definitions.
"""

from .errors import (
    CapacityExceeded,
    IncreasingPropertyViolation,
    MeasureSpecError,
    OutOfRange,
)
from .measure import (
    Alphabet,
    EquivalenceReport,
    Gap,
    MeasureClassification,
    ProjectedMeasure,
    WeightMeasure,
    Word,
    bounded_equivalence,
    classify,
    find_gap,
    load_measure,
    measure_line,
    measure_text,
    parikh,
    parse_measure_text,
    standard_measure,
    stepped_step,
    subset_measure,
)
from .monoid import MonoidKind, MonoidValue
from .normalform import (
    MultipleNormalForms,
    NoNormalForm,
    NormalFormResult,
    UniqueNormalForm,
    count_prefix_normal,
    count_prefix_normal_words,
    equivalence_class,
    prefix_normal_form,
    prefix_normal_set,
)
from .oracle import (
    DEFAULT_SEED,
    SweepReport,
    brute_equivalence_class,
    brute_gap_search,
    brute_prefix_normal_set,
    corpus_measures,
    count_binary_prefix_normal,
    run_suite,
    suite_names,
)
from .profile import (
    WeightProfile,
    gap_indexes,
    is_prefix_normal,
    normality_conditions,
    weight_profile,
)

__version__ = "0.1.0"
