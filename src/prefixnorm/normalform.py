"""Prefix-normal forms, their counts, and factor-weight equivalence classes."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from math import prod
from operator import eq, ge, gt, or_

from .errors import DEFAULT_LIMIT, refuse, refuse_power
from .measure import Word, WeightMeasure
from .monoid import int_view
from .profile import _factor_max_ints, factor_max_steps


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
    yields every prefix-normal member of the class, so ``count`` is its
    ``_expansion``.
    """

    projected: Word
    count: int


NormalFormResult = NoNormalForm | UniqueNormalForm | MultipleNormalForms


def prefix_normal_form(measure: WeightMeasure, word: Word) -> NormalFormResult:
    """Walk the factor-weight profile, picking the letter class for each step.

    Each step's residual is the one weight that can realise it; a step whose
    residual is no class weight means the class of the word holds no
    prefix-normal member at all, so the walk stops there without computing
    the longer lengths; otherwise injective measures give one word and
    non-injective measures a projected word with a count.
    """
    measure.check_word(word)
    if not word.indices:
        return UniqueNormalForm(word)
    projected = measure.projected
    class_of_weight = {weight: c for c, weight in enumerate(projected.measure.payloads)}
    residual = measure.residual
    previous = measure.identity_payload
    picks = []
    steps = factor_max_steps(measure.payloads, word.indices, measure.combine)
    for i, (weight, _) in enumerate(steps, 1):
        pick = class_of_weight.get(residual(previous, weight))
        if pick is None:
            return NoNormalForm(gap_word=word, gap_index=i)
        picks.append(pick)
        previous = weight
    if all(len(group) == 1 for group in projected.classes):
        letters = tuple(projected.classes[c][0] for c in picks)
        return UniqueNormalForm(Word(measure.alphabet, letters))
    return MultipleNormalForms(
        projected=Word(projected.measure.alphabet, tuple(picks)),
        count=_expansion(measure, [picks]),
    )


def count_prefix_normal(measure: WeightMeasure, word: Word) -> int:
    """Number of prefix-normal words in the word's class, never materialised."""
    result = prefix_normal_form(measure, word)
    if isinstance(result, NoNormalForm):
        return 0
    if isinstance(result, UniqueNormalForm):
        return 1
    return result.count


def _expansion(measure: WeightMeasure, projected_words) -> int:
    """How many source words project onto the projected index tuples.

    Each tuple stands for the product of its class sizes; classes of one
    letter add nothing.
    """
    shared = [(c, size) for c, size in enumerate(measure.projected.class_sizes()) if size > 1]
    return sum(prod([size ** word.count(c) for c, size in shared]) for word in projected_words)


def _members(measure: WeightMeasure, projected_words: list, limit: int, what: str) -> set[Word]:
    """Every source word whose projection is one of ``projected_words`` (index tuples).

    Refuses more than ``limit`` of them before it builds any word.  The
    projection of an injective measure renames no letter, so its tuples
    are the words themselves.
    """
    refuse(_expansion(measure, projected_words), what, limit)
    classes, alphabet = measure.projected.classes, measure.alphabet
    if len(classes) == len(alphabet):
        return {Word(alphabet, projected) for projected in projected_words}
    return {
        Word(alphabet, combo)
        for projected in projected_words
        for combo in product(*map(classes.__getitem__, projected))
    }


def prefix_normal_set(measure: WeightMeasure, word: Word, limit: int = DEFAULT_LIMIT) -> set[Word]:
    """Expand the projected normal form into all concrete prefix-normal words."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    result = prefix_normal_form(measure, word)
    if isinstance(result, NoNormalForm):
        return set()
    if isinstance(result, UniqueNormalForm):
        return {result.word}
    return _members(measure, [result.projected.indices], limit, "prefix-normal words")


def walk_words(measure: WeightMeasure, length: int, word: Word | None = None, limit: int = DEFAULT_LIMIT):
    """Depth-first walk of the word trie, yielding index tuples in lexicographic order.

    The walk runs over the measure's projected alphabet Σ′, one letter per
    distinct weight, and yields projected index tuples.  It refuses more
    than ``limit`` candidate words |Σ′|^length, pruned or not, before any
    kernel work.  With ``word`` (of ``length`` letters) it yields the words
    whose factor maxima, the target, equal the word's; without, the
    prefix-normal words.  A node carries its suffix weights by length, so a
    child costs O(depth) combines.  Every suffix of a node is a factor of
    each word below it, so a node is cut when a suffix outweighs the target
    (for prefix-normal words: the node's own prefix) of the same length, or
    when its weight cannot reach the target's total even when followed by
    the heaviest factor of the remaining length.

    As no factor of a surviving target-mode node outweighs the target, the
    node keeps one flag per length instead of maxima: whether some factor
    attains the target.  A word is a member when every flag is set.  A
    length longer than the letters still to come can only be attained by a
    factor that starts in the node and ends in those letters, so a node is
    also cut when no suffix of it, combined with the target of each
    remaining length, reaches an unattained length's target.  For the last
    letter this is the member test itself.

    Payloads are walked as ``monoid.int_view`` of the identity and the
    projected weights, bounded by ``length`` letters, and never decoded:
    the target is the projected word's factor maxima in that same view.

    The walk keeps an explicit stack: a self-recursive closure would form a
    reference cycle holding every call's frame until a full collection.
    A one-letter Σ′ has one word of each length, prefix normal and the only
    candidate for any target, so it is yielded without a walk.
    """
    refuse_power(len(measure.projected.classes), length, "candidate words", limit)
    if len(measure.projected.classes) == 1:
        yield (0,) * length
        return
    weights = (measure.identity_payload, *measure.projected.measure.payloads)
    (ident, *ws), comb, _ = int_view(weights, measure.combine, length)
    letters = tuple(reversed(range(len(ws))))  # reversed, so the stack pops them in order
    if word is None:
        # Per node: its letters, its suffix weights by length (index 0 holds
        # the identity, the last entry the node's weight) and its prefix weights.
        stack = [((), [ident], [ident])]
        while stack:
            indices, suffixes, prefixes = stack.pop()
            if len(indices) == length:
                yield indices
                continue
            for letter in letters:
                weight = ws[letter]
                grown = [ident, *[comb(s, weight) for s in suffixes]]
                if not any(map(gt, grown, prefixes)):
                    stack.append((indices + (letter,), grown, [*prefixes, grown[-1]]))
        return
    class_of = measure.projected.class_of
    target, _ = _factor_max_ints([ws[class_of[i]] for i in word.indices], ident, comb)
    # Per node: its letters, its suffix weights by length, and per length
    # whether a factor of the node weighs the target.
    whole = target[length]
    stack = [((), [ident], [True])]
    while stack:
        indices, suffixes, hits = stack.pop()
        depth = len(indices)
        if depth == length:
            yield indices
            continue
        left = length - depth - 1  # letters still to come after a child
        rest, reached = target[left], target[depth + 1]
        for letter in letters:
            weight = ws[letter]
            total = comb(suffixes[-1], weight)
            if total > reached or comb(total, rest) < whole:
                continue
            grown = [ident, *[comb(s, weight) for s in suffixes]]
            if any(map(gt, grown, target)):
                continue
            hit = [*map(or_, hits, map(eq, grown, target)), total == reached]
            # A length above ``left`` that no factor attains yet needs a factor
            # that ends in the letters to come: a suffix of the child followed
            # by i of them, which weighs at most that suffix times target[i].
            due = hit[left + 1:]
            if due:
                for i in range(1, left + 1):
                    ends = map(comb, grown[left + 1 - i:depth + 2 - i], repeat(target[i]))
                    due = map(or_, due, map(ge, ends, target[left + 1:depth + 2]))
            if all(due):
                stack.append((indices + (letter,), grown, hit))


def equivalence_class(measure: WeightMeasure, word: Word, limit: int = DEFAULT_LIMIT) -> set[Word]:
    """All same-length words with the same factor-weight profile, by pruned trie walk.

    Profiles depend only on letter weights, so the walk runs over the
    projected alphabet Σ′ (one letter per distinct weight) and each
    surviving projected word is expanded into its letter classes.
    Exponential by design: every word with the word's projection is a
    member, so a word that alone expands past ``limit`` is refused first;
    then the walk refuses more than ``limit`` candidate words, and the
    expansion more than ``limit`` members.  The result always contains the
    word and its reverse.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    measure.check_word(word)
    least = _expansion(measure, [measure.projected.project_word(word).indices])
    refuse(least, "class members, at least,", limit)
    leaves = list(walk_words(measure, len(word.indices), word, limit))
    return _members(measure, leaves, limit, "class members")


def count_prefix_normal_words(measure: WeightMeasure, n: int) -> int:
    """Number of prefix-normal words of length ``n`` under the measure, never listed.

    Walks the prefix-normal words of the projected alphabet Σ′ and adds up
    how many source words each one stands for (the product of its class
    sizes).  The walk refuses when the |Σ′|^n candidate words exceed
    ``DEFAULT_LIMIT``, pruned or not.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _expansion(measure, walk_words(measure, n))
