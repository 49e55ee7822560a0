"""Prefix-normal forms, their counts, and factor-weight equivalence classes."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from operator import floordiv, sub

from .errors import DEFAULT_LIMIT, refuse, refuse_power
from .measure import Word, WeightMeasure, computed_word
from .monoid import MonoidKind, int_view
from .profile import _factor_max_ints, factor_max_steps


@dataclass(frozen=True)
class NoNormalForm:
    """No prefix-normal word shares the input's factor-weight profile."""

    gap_word: Word
    gap_index: int
    count = 0


@dataclass(frozen=True)
class UniqueNormalForm:
    """The one prefix-normal word that shares the input's factor-weight profile."""

    word: Word
    count = 1


@dataclass(frozen=True)
class MultipleNormalForms:
    """Compressed form over the projected alphabet, plus the expansion count.

    Reading the projected word as independent per-position letter choices
    yields every prefix-normal member of the class, so ``count`` is its
    ``_expansion``.
    """

    projected: Word
    count: int


# Every result's ``count`` is the number of prefix-normal words in the class;
# the fixed counts 0 and 1 are class attributes, not dataclass fields.
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
    if len(projected.classes) == len(measure.alphabet):
        return UniqueNormalForm(Word(measure.alphabet, tuple(picks)))
    return MultipleNormalForms(
        projected=Word(projected.measure.alphabet, tuple(picks)),
        count=_expansion(measure, [picks]),
    )


def count_prefix_normal(measure: WeightMeasure, word: Word) -> int:
    """Number of prefix-normal words in the word's class, never materialised."""
    return prefix_normal_form(measure, word).count


def _expansion(measure: WeightMeasure, projected_words) -> int:
    """How many source words project onto the projected index tuples.

    Each tuple stands for the product of its class sizes; classes of one
    letter add nothing, so without a larger class the tuples are counted.
    """
    shared = [(c, size) for c, size in enumerate(measure.projected.class_sizes()) if size > 1]
    if not shared:
        return sum(1 for _ in projected_words)
    return sum(prod([size ** word.count(c) for c, size in shared]) for word in projected_words)


def _members(measure: WeightMeasure, projected_words: list, limit: int, what: str) -> set[Word]:
    """Every source word whose projection is one of ``projected_words`` (index tuples).

    Refuses more than ``limit`` of them before it builds any word.  The
    projection of an injective measure renames no letter, so its tuples
    are the words themselves.  Every index comes from the measure's own
    letter classes, so the words are built unchecked.
    """
    refuse(_expansion(measure, projected_words), what, limit)
    classes, alphabet = measure.projected.classes, measure.alphabet
    if len(classes) == len(alphabet):
        return {computed_word(alphabet, projected) for projected in projected_words}
    return {
        computed_word(alphabet, combo)
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
    distinct weight, and yields projected index tuples.  It refuses a
    negative ``length`` or a ``word`` of another length, and then more than
    ``limit`` candidate words |Σ′|^length, pruned or not, before any kernel
    work.  With ``word`` it yields the words whose factor maxima, the
    target, equal the word's; without, the prefix-normal words.  Every
    suffix of a node is a factor of each word below it, so a node is cut
    when a suffix outweighs the target (for prefix-normal words: the node's
    own prefix) of the same length.

    As no factor of a surviving target-mode node outweighs the target, the
    node keeps one flag per length instead of maxima: whether some factor
    attains the target.  A word is a member when every flag is set.

    Budget cut (target mode).  Every member weighs the target's total W,
    so the L letters after a child of weight v weigh exactly B = W − v on
    the additive views and B = W / v on nat-product, where a v that does
    not divide W has no member below it and is cut.  Each of those letters
    weighs at least the lightest, w, so i of them weigh at most cap_i, the
    least of target[i] and B less the lightest L − i letters: B − (L − i)·w
    on the additive views, B // w^(L − i) on nat-product.  A child whose B
    exceeds target[L] or falls below the lightest L letters is cut, which
    is one window of weights per depth.  A factor of a member below the
    child lies in the child, or is a suffix of k ≥ 0 of its letters
    followed by i ≥ 1 letters to come, weighing at most suffix_k ∘ cap_i
    (suffix_0, the identity, for a factor wholly in the letters to come).
    So a child is also cut when a length 1..n that no factor of it attains
    has no such k and i with suffix_k ∘ cap_i ≥ target[k + i].  For the
    last letter this is the member test itself.  The bounds assume a
    member below the child, so where there is none a cut loses nothing.
    On folded vec2-lex ints they hold as on pairs: folding is exact and
    keeps the order for sums of at most ``length`` letters, so the ints of
    a member's letters add up to W as the pairs do.

    Payloads are walked as ``monoid.int_view`` of the identity and the
    projected weights, bounded by ``length`` letters, and never decoded:
    the target is the projected word's factor maxima in that same view.

    Node layout.  A node of depth d keeps its suffix weights in one int,
    field k the suffix of k letters (field 0 the identity), each field one
    guard bit wider than the heaviest word of ``length`` letters:
    ``max(ws) * length`` for the additive views (nat-sum, folded vec2-lex),
    ``max(ws) ** length`` for nat-product.  No field then carries into the
    next when every field grows by a letter: a child's suffixes are
    ``(s + w * ones) << width`` for the additive views and
    ``(s * w) << width | 1`` for nat-product, one combine of the whole int
    with a per-depth constant.  Flags are the guard bits of a field each.
    A field of a - b + guard keeps its guard bit exactly when a ≥ b, so
    every per-length comparison is one big-int test:

    * prefix-normal mode: the node also keeps its prefix weights, guards
      added, and a child is cut unless ``(prefixes - grown) & guards ==
      guards``; a survivor's new prefix is its longest suffix.  O(1)
      big-int operations a child.  A node of depth ``length - 1`` yields
      its surviving children in letter order instead of pushing them;
    * target mode: ``diff = target + guards - grown`` cuts a child whose
      suffix outweighs the target, and ``guards & ~(diff - ones)`` are the
      lengths it hits.  The due test combines, for each i of the ``left``
      letters still to come, the suffixes shifted up i fields with cap_i,
      compares them with the target in one step, and keeps the child when
      every length 1..n is reached: O(left) big-int operations a child.
      On the additive views cap_i goes into fields i..n only: the fields
      below i hold no suffix, and a cap there would mark a shorter length.

    The fields grow with the letter weights: ``length`` times the bits of
    the heaviest nat-product weight.  Against a walk that combines
    each suffix on its own, the binary nat-product count at
    n = 16 (one 2-CPU Xeon, Python 3.11, best of 7) went from 37.7 to
    9.9 ms on (2, 3) and 43.2 to 21.2 ms on (2^16 + 1, 2^17), about even
    at (2^32 + 1, 2^33), 49.3 to 43.4 ms, but slower on
    (2^64 + 1, 2^65), 56.9 to 81.7 ms.  No corpus measure has such
    weights (their products are 2 to 13).

    The walk keeps an explicit stack: a self-recursive closure would form a
    reference cycle holding every call's frame until a full collection.
    A one-letter Σ′ has one word of each length, prefix normal and the only
    candidate for any target, so it is yielded without a walk, and so is
    the one word of length 0.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if word is not None and len(word.indices) != length:
        raise ValueError(f"the word has {len(word.indices)} letters, not {length}")
    refuse_power(len(measure.projected.classes), length, "candidate words", limit)
    if len(measure.projected.classes) == 1 or not length:
        yield (0,) * length
        return
    weights = (measure.identity_payload, *measure.projected.measure.payloads)
    (ident, *ws), comb, _ = int_view(weights, measure.combine, length)
    product_view = measure.kind is MonoidKind.NAT_PRODUCT
    width = (max(ws) ** length if product_view else max(ws) * length).bit_length() + 1
    ones = [0]  # ones[k]: a 1 in each of the fields 0..k-1
    for _ in range(length + 2):
        ones.append(ones[-1] << width | 1)
    guards = [one << (width - 1) for one in ones]
    # steps[d]: (letter, its weight, what a node of depth d combines its
    # suffixes with), reversed, so the stack pops the letters in order.
    backwards = [*enumerate(ws)][::-1]
    steps = [
        tuple((letter, w, w if product_view else w * one) for letter, w in backwards)
        for one in ones[1:length + 1]
    ]
    if word is None:
        leaf = length - 1
        # Per depth: the children's steps, the guards of fields 0..depth, the
        # bits of field depth+1 and the guard of field depth+2.  A node of
        # the last depth yields its children in letter order, unpushed.
        field = (1 << width) - 1
        levels = [
            (steps[d], guards[d + 1], field << width * (d + 1), guards[d + 3] ^ guards[d + 2])
            for d in range(leaf)
        ]
        leaves, leaf_mask = steps[leaf][::-1], guards[length]
        # Per node: its letters, its suffixes, and its prefixes plus the
        # guards of fields 0..depth+1.  Field depth+1 holds a bare guard,
        # so the borrow from it stays above the mask.
        stack = [((), ident, ident + guards[2])]
        while stack:
            indices, suffixes, prefixes = stack.pop()
            depth = len(indices)
            if depth == leaf:
                for letter, _, step in leaves:
                    if (prefixes - (comb(suffixes, step) << width | ident)) & leaf_mask == leaf_mask:
                        yield indices + (letter,)
                continue
            children, mask, last, guard = levels[depth]
            for letter, _, step in children:
                grown = comb(suffixes, step) << width | ident
                if (prefixes - grown) & mask == mask:
                    stack.append((indices + (letter,), grown, prefixes | grown & last | guard))
        return
    class_of = measure.projected.class_of
    target, _ = _factor_max_ints([ws[class_of[i]] for i in word.indices], ident, comb)
    packed = sum(t << width * k for k, t in enumerate(target))
    whole = target[length]
    # The guards less the target, added after each combine of the due test,
    # which asks for every length 1..n.
    offset = guards[length + 1] - packed
    due_mask = guards[length + 1] ^ guards[1]
    # What is left of a budget once some letters are taken off it, the
    # least weight j letters have, and where a cap of i letters goes: into
    # fields i..n, as the fields below i hold no suffix to add it to.
    less = floordiv if product_view else sub
    lightest = min(ws)
    lighter = [lightest**j if product_view else lightest * j for j in range(length)]
    spread = [1 if product_view else ones[length + 1] - ones[i] for i in range(length)]
    # Per depth: the children's steps, the window of weights a child may
    # have, the guards and the ones of fields 0..depth+1, and for each i of
    # the letters still to come: target[i], the least weight of the other
    # letters still to come, and the cap's fields.
    levels = []
    for depth in range(length):
        left = length - depth - 1
        low = -(-whole // target[left]) if product_view else whole - target[left]
        high = min(target[depth + 1], less(whole, lighter[left]))
        spans = [(target[i], lighter[left - i], spread[i]) for i in range(1, left + 1)]
        levels.append((steps[depth], low, high, guards[depth + 2], ones[depth + 2], spans))
    # Per node: its letters, its suffixes, the guards of the lengths some
    # factor of it attains, and its weight.
    stack = [((), ident, guards[1], ident)]
    while stack:
        indices, suffixes, hits, total = stack.pop()
        depth = len(indices)
        if depth == length:
            yield indices
            continue
        children, low, high, mask, below, spans = levels[depth]
        for letter, w, step in children:
            weight = comb(total, w)
            if not low <= weight <= high:
                continue
            if product_view:
                budget, rest = divmod(whole, weight)
                if rest:
                    continue
            else:
                budget = whole - weight
            grown = comb(suffixes, step) << width | ident
            diff = packed + mask - grown
            if diff & mask != mask:
                continue
            hit = hits | mask & ~(diff - below)
            # The child hits lengths up to its own, depth + 1, and span i marks
            # lengths k + i with k <= depth + 1, so length n is reached only at the
            # last span (i = n - depth - 1): every span runs, then the member test.
            due = hit & due_mask
            shifted = grown
            for t, light, span in spans:
                shifted <<= width
                cap = less(budget, light)
                due |= comb(shifted, (t if t < cap else cap) * span) + offset & due_mask
            if due == due_mask:
                stack.append((indices + (letter,), grown, hit, weight))


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
    ``DEFAULT_LIMIT``, pruned or not.  When every letter weighs the same,
    every word is prefix normal, so the count is |Σ|^n without a walk.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if len(measure.projected.classes) == 1:
        return len(measure.alphabet) ** n
    return _expansion(measure, walk_words(measure, n))
