"""Alphabets, words, and weight measures.

A weight measure assigns every letter a base weight strictly above the
monoid identity; the weight of a word is the combine-fold of its letters.
This module classifies measures (injective, alphabetically ordered,
binary, prime, stepped), decides gapfreeness, projects non-injective
measures onto letter classes, and compares measures for bounded
equivalence.  It also owns the plain-text measure spec format used by the
CLI and the test fixtures.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import CapacityExceeded, IncreasingPropertyViolation, MeasureSpecError, refuse
from .monoid import (
    MonoidKind,
    MonoidValue,
    check_payload,
    format_payload,
    parse_payload,
    payload_combine,
    payload_identity,
    payload_residual,
)
from .profile import gap_indexes


@dataclass(frozen=True)
class Alphabet:
    """An ordered tuple of distinct letter tokens; tuple order is the letter order.

    Any iterable of tokens is accepted and stored as a tuple, so equal
    alphabets compare and hash alike however they were built.
    """

    letters: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.letters:
            raise ValueError("alphabet must not be empty")
        seen = set()
        for token in self.letters:
            if not token or any(ch.isspace() for ch in token):
                raise ValueError(
                    f"bad letter token {token!r}: tokens are non-empty and contain no whitespace"
                )
            if token.startswith("#"):
                raise ValueError(
                    f"bad letter token {token!r}: a token starting with '#' reads as a "
                    f"comment in a measure spec"
                )
            if token in seen:
                raise ValueError(f"duplicate letter {token!r}")
            seen.add(token)

    def __len__(self):
        return len(self.letters)

    def index_of(self, token: str) -> int:
        try:
            return self.letters.index(token)
        except ValueError:
            raise ValueError(
                f"letter {token!r} is not in alphabet {' '.join(self.letters)}"
            ) from None

    @cached_property
    def single_char(self) -> bool:
        return all(len(token) == 1 for token in self.letters)

    @cached_property
    def self_delimiting(self) -> bool:
        # Class tokens such as {n,c}, closed by their only '}', read
        # unambiguously when concatenated.
        return all(t.startswith("{") and t.find("}") == len(t) - 1 for t in self.letters)

    @cached_property
    def separator(self) -> str:
        # What joins a word's tokens in text: nothing when tokens read alone,
        # else a comma, or a space (never inside a token) when one holds a comma.
        if self.single_char or self.self_delimiting:
            return ""
        return " " if any("," in t for t in self.letters) else ","


@dataclass(frozen=True)
class Word:
    """A finite sequence of letter indices over a fixed alphabet.

    Any iterable of indices is accepted and stored as a tuple.
    """

    alphabet: Alphabet
    indices: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.indices, tuple):
            object.__setattr__(self, "indices", tuple(self.indices))
        size = len(self.alphabet)
        for i in self.indices:
            if not 0 <= i < size:
                raise ValueError(f"letter index {i} out of range for a {size}-letter alphabet")

    @classmethod
    def parse(cls, alphabet: Alphabet, text: str) -> "Word":
        """Parse the text ``str`` prints; single characters may also come comma-separated."""
        if text == "":
            return cls(alphabet, ())
        if alphabet.single_char:
            try:
                return cls(alphabet, tuple(alphabet.index_of(ch) for ch in text))
            except ValueError:
                if "," not in text:
                    raise  # names the first unknown character
        if alphabet.self_delimiting:
            return cls.from_tokens(alphabet, text.replace("}", "} ").split())
        return cls.from_tokens(alphabet, text.split(alphabet.separator or ","))

    @classmethod
    def from_tokens(cls, alphabet: Alphabet, tokens) -> "Word":
        return cls(alphabet, tuple(alphabet.index_of(t) for t in tokens))

    def tokens(self) -> tuple[str, ...]:
        return tuple(self.alphabet.letters[i] for i in self.indices)

    def reversed(self) -> "Word":
        return Word(self.alphabet, self.indices[::-1])

    def __len__(self):
        return len(self.indices)

    def __str__(self):
        return self.alphabet.separator.join(self.tokens())


def computed_word(alphabet: Alphabet, indices: tuple[int, ...]) -> Word:
    """``Word(alphabet, indices)`` for an index tuple the package computed from checked ones, unchecked.

    Set like ``monoid.computed_value``: two ``object.__setattr__`` calls,
    so the word keeps CPython's key-sharing instance dict and equals,
    hashes and ``vars()`` like a checked one.  Public construction still
    checks every index.
    """
    word = object.__new__(Word)
    object.__setattr__(word, "alphabet", alphabet)
    object.__setattr__(word, "indices", indices)
    return word


def parikh(word: Word) -> tuple[int, ...]:
    """Letter-occurrence counts in alphabet order."""
    counts = [0] * len(word.alphabet)
    for i in word.indices:
        counts[i] += 1
    return tuple(counts)


@dataclass(frozen=True)
class WeightMeasure:
    """Base weights for every letter of an alphabet, over one monoid kind.

    ``payloads`` holds one bare carrier payload per letter, in alphabet
    order; any iterable is accepted and stored as a tuple.  Each payload
    must lie in the kind's carrier and strictly exceed the identity, so the
    weight of a word strictly grows under every extension.  For
    nat-product measures this forces all weights to be at least 2.
    """

    alphabet: Alphabet
    kind: MonoidKind
    payloads: tuple

    def __post_init__(self):
        payloads = tuple(self.payloads)
        object.__setattr__(self, "payloads", payloads)
        if len(payloads) != len(self.alphabet):
            raise ValueError(f"expected {len(self.alphabet)} base weights, got {len(payloads)}")
        ident = payload_identity(self.kind)
        for letter, payload in zip(self.alphabet.letters, payloads):
            check_payload(self.kind, payload)
            if not payload > ident:
                raise IncreasingPropertyViolation(
                    f"base weight of {letter!r} is {format_payload(self.kind, payload)}; every "
                    f"base weight must exceed the identity {format_payload(self.kind, ident)}"
                )

    @classmethod
    def from_payloads(cls, alphabet: Alphabet, kind: MonoidKind, payloads) -> "WeightMeasure":
        """The constructor under its old name, kept only because perfbench still calls it."""
        return cls(alphabet, kind, payloads)

    @cached_property
    def combine(self):
        return payload_combine(self.kind)

    @cached_property
    def residual(self):
        return payload_residual(self.kind)

    @cached_property
    def identity_payload(self):
        return payload_identity(self.kind)

    @cached_property
    def projected(self) -> "ProjectedMeasure":
        groups: dict = {}
        for position, payload in enumerate(self.payloads):
            groups.setdefault(payload, []).append(position)
        classes = tuple(tuple(group) for group in groups.values())
        tokens = tuple(
            "{" + ",".join(self.alphabet.letters[i] for i in group) + "}" for group in classes
        )
        projected_measure = WeightMeasure(Alphabet(tokens), self.kind, groups.keys())
        class_index = {payload: c for c, payload in enumerate(groups)}
        return ProjectedMeasure(
            source_alphabet=self.alphabet,
            classes=classes,
            class_of=tuple(class_index[payload] for payload in self.payloads),
            measure=projected_measure,
        )

    def check_word(self, word: Word) -> None:
        if word.alphabet != self.alphabet:
            raise ValueError("word is over a different alphabet than the measure")

    def weight_payload(self, word: Word):
        comb = self.combine
        ws = self.payloads
        acc = self.identity_payload
        for i in word.indices:
            acc = comb(acc, ws[i])
        return acc

    def weight(self, word: Word) -> MonoidValue:
        self.check_word(word)
        return MonoidValue(self.kind, self.weight_payload(word))


@dataclass(frozen=True)
class Gap:
    """A word and an index where no letter fills the factor-weight step."""

    word: Word
    index: int


@dataclass(frozen=True)
class MeasureClassification:
    injective: bool
    alphabetically_ordered: bool
    binary: bool
    unary: bool
    prime: bool
    stepped: MonoidValue | None
    gapfree: bool
    gap_witness: Gap | None

    def __post_init__(self):
        if self.gapfree != (self.gap_witness is None):
            raise ValueError("gapfree flag must match the absence of a witness")
        if self.stepped is not None and not self.gapfree:
            raise ValueError("stepped base weights imply gapfreeness")


def find_gap(measure: WeightMeasure) -> Gap | None:
    """Decide gapfreeness; O(k^3) in the number of distinct base weights.

    The distinct base weights, sorted ascending, stand in for the projected
    and weight-relabelled measure.  With at most two of them every measure
    is gapfree.  Otherwise each sorted triple (low, mid, high) must admit a
    letter x with mid . x == low . high, that is, the residual of mid and
    low . high must be a base weight; the first failing triple yields a
    four-letter witness word shaped high-low-high-mid (letters of weights
    w_high, w_low, w_high, w_mid), whose gap sits at index 3.

    Triples are scanned in lexicographic index order, so the witness is
    deterministic.
    """
    payloads = measure.payloads
    distinct = sorted(set(payloads))
    if len(distinct) <= 2:
        return None
    representative = {}
    for position, payload in enumerate(payloads):
        representative.setdefault(payload, position)
    comb, residual = measure.combine, measure.residual
    for low, mid, high in itertools.combinations(distinct, 3):
        if residual(mid, comb(low, high)) in representative:
            continue
        witness = Word(
            measure.alphabet,
            (
                representative[high],
                representative[low],
                representative[high],
                representative[mid],
            ),
        )
        return Gap(word=witness, index=3)
    return None


def stepped_step(measure: WeightMeasure) -> MonoidValue | None:
    """The single step whose repeated action generates the distinct weights.

    Sorted ascending, each distinct weight must be the previous one combined
    with one fixed carrier element, their residual.  A single distinct
    weight is trivially stepped (by the identity).
    """
    distinct = sorted(set(measure.payloads))
    if len(distinct) == 1:
        return MonoidValue(measure.kind, measure.identity_payload)
    steps = set(map(measure.residual, distinct, distinct[1:]))
    if len(steps) != 1 or None in steps:
        return None
    return MonoidValue(measure.kind, steps.pop())


# Miller–Rabin with these bases decides primality exactly below the bound
# (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Miller–Rabin over the primes 2…41, exact below ``_PRIME_EXACT_BELOW``.

    A witness proves ``n`` composite at any size; an ``n`` at or above the
    bound without one raises ``CapacityExceeded`` rather than guess.
    """
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    shift = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = odd * 2**shift
    odd = (n - 1) >> shift
    for a in _PRIME_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(shift - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PRIME_EXACT_BELOW:
        raise CapacityExceeded(
            f"refusing: {n} has no Miller–Rabin witness among the primes up to 41, "
            f"which decide primality only below {_PRIME_EXACT_BELOW}"
        )
    return True


def classify(measure: WeightMeasure) -> MeasureClassification:
    """Compute all classification flags.

    A gap witness is re-verified against the definition; full brute-force
    cross-validation lives in the oracle module's sweeps.
    """
    payloads = measure.payloads
    distinct = set(payloads)
    gap = find_gap(measure)
    if gap is not None and gap.index not in gap_indexes(measure, gap.word):
        raise AssertionError("internal error: gap witness fails the definitional check")
    return MeasureClassification(
        injective=len(distinct) == len(payloads),
        alphabetically_ordered=all(a <= b for a, b in zip(payloads, payloads[1:])),
        binary=len(distinct) == 2,
        unary=len(distinct) == 1,
        prime=measure.kind is MonoidKind.NAT_PRODUCT and all(_is_prime(p) for p in distinct),
        stepped=stepped_step(measure),
        gapfree=gap is None,
        gap_witness=gap,
    )


@dataclass(frozen=True)
class ProjectedMeasure:
    """Equal-weight letters merged into classes, giving an injective measure.

    Classes are ordered by first occurrence in the source alphabet and named
    by brace-joined member tokens, e.g. ``{n,c}``.  Keeping the source
    alphabet, not the measure, leaves its ``projected`` cache cycle-free.
    """

    source_alphabet: Alphabet
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    measure: WeightMeasure

    def project_word(self, word: Word) -> Word:
        if word.alphabet != self.source_alphabet:
            raise ValueError("word is over a different alphabet than the measure")
        return Word(self.measure.alphabet, tuple(self.class_of[i] for i in word.indices))

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(group) for group in self.classes)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the bounded equivalence semi-decision.

    ``equivalent`` only certifies agreement for word lengths up to
    ``max_len``; the bound always travels with the verdict.
    """

    equivalent: bool
    max_len: int
    witness: tuple[Word, Word] | None

    def describe(self) -> str:
        if self.equivalent:
            return f"equivalent for all word lengths up to {self.max_len}"
        u, v = self.witness
        return (
            f"inequivalent: same-length words {u} and {v} compare differently "
            f"(found within length bound {self.max_len})"
        )


def bounded_equivalence(first: WeightMeasure, second: WeightMeasure, max_len: int) -> EquivalenceReport:
    """Check that both measures order all same-length words identically, up to max_len.

    A weight folds its letters in a commutative monoid, so it depends only
    on the word's letter counts.  Each level therefore holds one sorted word
    per letter multiset, extended only by letters no smaller than its last,
    with both measures' weights; it is sorted by the first measure and the
    second measure's comparisons are replayed along consecutive pairs.  A
    semi-decision: disagreement yields a witness pair of sorted words,
    agreement only certifies lengths up to the bound.  Refuses, before any
    level is built, bounds whose multisets over all levels would exceed the
    default enumeration cap.  A one-letter alphabet has one word per length,
    none to order apart, so it is equivalent at once.
    """
    if first.alphabet != second.alphabet:
        raise ValueError("measures must share an alphabet to be compared")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    size = len(first.alphabet)
    refuse(math.comb(max_len + size, size) - 1, f"letter multisets of lengths 1 to {max_len}")
    if size == 1:
        return EquivalenceReport(equivalent=True, max_len=max_len, witness=None)
    comb1, comb2 = first.combine, second.combine
    ws1, ws2 = first.payloads, second.payloads
    level = [((), first.identity_payload, second.identity_payload)]
    for _ in range(max_len):
        level = [
            (word + (x,), comb1(p1, ws1[x]), comb2(p2, ws2[x]))
            for word, p1, p2 in level
            for x in range(word[-1] if word else 0, size)
        ]
        level.sort(key=itemgetter(1))
        for (u, a1, a2), (v, b1, b2) in zip(level, level[1:]):
            if (a1 == b1) != (a2 == b2) or b2 < a2:
                return EquivalenceReport(
                    equivalent=False,
                    max_len=max_len,
                    witness=(Word(first.alphabet, u), Word(first.alphabet, v)),
                )
    return EquivalenceReport(equivalent=True, max_len=max_len, witness=None)


def standard_measure(alphabet: Alphabet) -> WeightMeasure:
    """The nat-sum measure weighting the i-th letter i: gapfree, injective, ordered."""
    return WeightMeasure(alphabet, MonoidKind.NAT_SUM, range(1, len(alphabet) + 1))


def subset_measure(alphabet: Alphabet, members) -> WeightMeasure:
    """Weight 2 on the given letters and 1 elsewhere.

    A word is prefix normal under this measure exactly when its prefixes
    contain at least as many member letters as any factor of equal length.
    """
    member_set = set(members)
    for token in member_set:
        alphabet.index_of(token)
    return WeightMeasure(
        alphabet,
        MonoidKind.NAT_SUM,
        (2 if token in member_set else 1 for token in alphabet.letters),
    )


_COMMENT_RE = re.compile(r"(?:^|(?<=\s))#")
_SPEC_KEYS = ("monoid", "letters", "weights")


def _strip_comment(line: str) -> str:
    match = _COMMENT_RE.search(line)
    return line[: match.start()] if match else line


def parse_measure_text(text: str) -> WeightMeasure:
    """Parse the measure spec format.

    Line-oriented ``key = value`` entries with ``#`` comments; keys may come
    in any order::

        monoid = nat-sum | nat-product | vec2-lex
        letters = <token> <token> ...   # list order defines the letter order
        weights = <value> <value> ...   # one per letter; vec2-lex as (a,b)

    Syntax errors raise MeasureSpecError carrying the offending line number.
    """
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise MeasureSpecError("expected 'key = value'", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SPEC_KEYS:
            raise MeasureSpecError(
                f"unknown key {key!r} (expected monoid, letters, or weights)", line=lineno
            )
        if key in entries:
            raise MeasureSpecError(f"duplicate key {key!r}", line=lineno)
        if not value:
            raise MeasureSpecError(f"empty value for {key!r}", line=lineno)
        entries[key] = (lineno, value)
    for key in _SPEC_KEYS:
        if key not in entries:
            raise MeasureSpecError(f"missing {key!r} line")

    def read(key, parse):
        line, value = entries[key]
        try:
            return parse(value)
        except ValueError as err:
            raise MeasureSpecError(str(err), line=line) from None

    kind = read("monoid", MonoidKind)
    alphabet = read("letters", lambda value: Alphabet(tuple(value.split())))
    payloads = read("weights", lambda value: [parse_payload(kind, w) for w in value.split()])
    if len(payloads) != len(alphabet):
        raise MeasureSpecError(
            f"{len(alphabet)} letters but {len(payloads)} weights", line=entries["weights"][0]
        )
    # Outside ``read``, so an IncreasingPropertyViolation passes through without a line.
    return WeightMeasure(alphabet, kind, payloads)


def load_measure(path) -> WeightMeasure:
    with open(path, encoding="utf-8") as handle:
        return parse_measure_text(handle.read())


def format_weights(measure: WeightMeasure) -> str:
    """The base weights in spec syntax, space-separated in alphabet order."""
    return " ".join(format_payload(measure.kind, payload) for payload in measure.payloads)


def measure_text(measure: WeightMeasure) -> str:
    """Render a measure back into the measure-file format."""
    return (
        f"monoid = {measure.kind.value}\n"
        f"letters = {' '.join(measure.alphabet.letters)}\n"
        f"weights = {format_weights(measure)}\n"
    )


def measure_line(measure: WeightMeasure) -> str:
    """One-line rendering used in sweep counterexample replays."""
    return (
        f"measure[{measure.kind.value}; "
        f"letters {' '.join(measure.alphabet.letters)}; weights {format_weights(measure)}]"
    )
