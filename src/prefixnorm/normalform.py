"""Prefix-normal forms, their counts, and factor-weight equivalence classes."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from operator import gt

from .errors import DEFAULT_LIMIT, CapacityExceeded
from .measure import Word, WeightMeasure
from .profile import factor_max_payloads


@dataclass(frozen=True)
class NoNormalForm:
    """No prefix-normal word shares the input's factor-weight profile."""

    gap_word: Word
    gap_index: int


@dataclass(frozen=True)
class UniqueNormalForm:
    word: Word


@dataclass(frozen=True)
class MultipleNormalForms:
    """Compressed form over the projected alphabet, plus the expansion count.

    Reading the projected word as independent per-position letter choices
    yields every prefix-normal member of the class, so ``count`` is the
    product of the class sizes along it.
    """

    projected: Word
    count: int


NormalFormResult = NoNormalForm | UniqueNormalForm | MultipleNormalForms


def prefix_normal_form(measure: WeightMeasure, word: Word) -> NormalFormResult:
    """Walk the factor-weight profile, picking the letter class for each step.

    Each step's residual is the one weight that can realise it; a step whose
    residual is no class weight means the class of the word holds no
    prefix-normal member at all; otherwise injective measures give one word
    and non-injective measures a projected word with a count.
    """
    measure.check_word(word)
    if not word.indices:
        return UniqueNormalForm(word)
    projected = measure.projected
    f, _ = factor_max_payloads(
        measure.payloads, word.indices, measure.identity_payload, measure.combine
    )
    class_of_weight = {weight: c for c, weight in enumerate(projected.measure.payloads)}
    residual = measure.residual
    picks = []
    for i in range(1, len(f)):
        pick = class_of_weight.get(residual(f[i - 1], f[i]))
        if pick is None:
            return NoNormalForm(gap_word=word, gap_index=i)
        picks.append(pick)
    if all(len(group) == 1 for group in projected.classes):
        letters = tuple(projected.classes[c][0] for c in picks)
        return UniqueNormalForm(Word(measure.alphabet, letters))
    return MultipleNormalForms(
        projected=Word(projected.measure.alphabet, tuple(picks)),
        count=prod(len(projected.classes[c]) for c in picks),
    )


def count_prefix_normal(measure: WeightMeasure, word: Word) -> int:
    """Number of prefix-normal words in the word's class, never materialised."""
    result = prefix_normal_form(measure, word)
    if isinstance(result, NoNormalForm):
        return 0
    if isinstance(result, UniqueNormalForm):
        return 1
    return result.count


def prefix_normal_set(measure: WeightMeasure, word: Word, limit: int = DEFAULT_LIMIT) -> set[Word]:
    """Expand the projected normal form into all concrete prefix-normal words."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    result = prefix_normal_form(measure, word)
    if isinstance(result, NoNormalForm):
        return set()
    if isinstance(result, UniqueNormalForm):
        return {result.word}
    if result.count > limit:
        raise CapacityExceeded(
            f"{result.count} prefix-normal words exceed the limit of {limit}",
            count=result.count,
        )
    choices = [measure.projected.classes[c] for c in result.projected.indices]
    return {Word(measure.alphabet, combo) for combo in itertools.product(*choices)}


def walk_words(measure: WeightMeasure, length: int, target: list | None = None):
    """Depth-first walk of the word trie, yielding index tuples in lexicographic order.

    With ``target`` (a factor-max payload list of ``length + 1`` entries) it
    yields the words whose factor maxima equal it; without, the prefix-normal
    words.  A node carries its suffix weights by length, so a child costs
    O(depth) combines.  Every suffix of a node is a factor of each word below
    it, so a node is cut when a suffix outweighs the target (for prefix-normal
    words: the node's own prefix) of the same length, or when its weight
    cannot reach the target's total even when followed by the heaviest factor
    of the remaining length.

    The walk keeps an explicit stack: a self-recursive closure would form a
    reference cycle holding every call's frame until a full collection.
    """
    ws, ident, comb = measure.payloads, measure.identity_payload, measure.combine
    letters = tuple(reversed(range(len(ws))))  # reversed, so the stack pops them in order
    # Per node: its letters, its suffix weights by length (index 0 holds the
    # identity, the last entry the node's weight), and its factor maxima by
    # length, which for a prefix-normal node are its prefix weights.
    stack = [((), [ident], [ident])]
    while stack:
        indices, suffixes, maxima = stack.pop()
        depth = len(indices)
        if depth == length:
            if target is None or maxima == target:
                yield indices
            continue
        if target is None:
            for letter in letters:
                weight = ws[letter]
                grown = [ident, *[comb(s, weight) for s in suffixes]]
                if not any(map(gt, grown, maxima)):
                    stack.append((indices + (letter,), grown, [*maxima, grown[-1]]))
            continue
        rest = target[length - depth - 1]
        for letter in letters:
            weight = ws[letter]
            total = comb(suffixes[-1], weight)
            if comb(total, rest) < target[length]:
                continue
            grown = [ident, *[comb(s, weight) for s in suffixes]]
            if not any(map(gt, grown, target)):
                stack.append((indices + (letter,), grown, [*map(max, maxima, grown), total]))


def equivalence_class(measure: WeightMeasure, word: Word, limit: int = DEFAULT_LIMIT) -> set[Word]:
    """All same-length words with the same factor-weight profile, by pruned trie walk.

    Exponential by design; the cap still counts all |alphabet|^length
    candidate words, pruned or not, and refuses alphabets/lengths beyond it.
    The result always contains the word and its reverse.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    measure.check_word(word)
    size = len(measure.alphabet)
    length = len(word.indices)
    total = size ** length
    if total > limit:
        raise CapacityExceeded(
            f"{size}^{length} = {total} candidate words exceed the limit of {limit}",
            count=total,
        )
    target, _ = factor_max_payloads(
        measure.payloads, word.indices, measure.identity_payload, measure.combine
    )
    return {Word(measure.alphabet, combo) for combo in walk_words(measure, length, target)}
