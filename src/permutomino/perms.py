"""Order-theoretic machinery for 1-indexed permutations.

A permutation of size n is a plain tuple whose entries are exactly 1..n;
``p[i-1]`` is the value at position i.  Everything here is pure and works on
immutable values.

The central object is the envelope decomposition: the *upper envelope* of p is
its maximal upper-unimodal sublist (the left-right maxima followed by the
right-left maxima, the value n counted once), and the *lower envelope* is the
complementary sublist together with both endpoints.  Both sublists retain the
positions they came from.  A permutation is *square* when its lower envelope
is lower unimodal; equivalently, when it avoids sixteen forbidden patterns of
length five, or when every entry is a left-right or right-left maximum or
minimum (the form square_permutations generates from).
"""
from __future__ import annotations

from itertools import combinations
from operator import index
from typing import Iterable, Iterator, NamedTuple, Sequence


def as_perm(values: Iterable[int]) -> tuple[int, ...]:
    """Validate an iterable as a permutation of 1..n and return it as a tuple.

    An entry that is not an integer (by `operator.index`), such as 1.7 or "2",
    is a ValueError: it is neither rounded nor parsed.
    """
    try:
        p = tuple(map(index, values))
    except TypeError:
        raise ValueError(f"not a permutation of integers: {values!r}") from None
    n = len(p)
    if n < 1:
        raise ValueError("a permutation has size at least 1")
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {p!r}")
    return p


def reversal(p: Sequence[int]) -> tuple[int, ...]:
    """The reversal: value at position i becomes the value at position n+1-i."""
    return tuple(p[::-1])


def complement(p: Sequence[int]) -> tuple[int, ...]:
    """The complement: every value v is replaced by n+1-v."""
    n = len(p)
    return tuple(n + 1 - v for v in p)


def direct_difference(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Stack a above-left of b: (a1+m', ..., am+m', b1, ..., bm')."""
    shift = len(b)
    return tuple(v + shift for v in a) + tuple(b)


def split_points(p: Sequence[int]) -> set[int]:
    """All r in 1..n-1 such that the length-r prefix holds the top r values.

    Equivalently { r : min(p[0..r-1]) == n-r+1 }; empty iff p is indecomposable
    (not a direct difference of two permutations).  This is the one definition
    of a split: the component count is one more than the number of split points.
    """
    n = len(p)
    splits = set()
    low = bottom = n  # bottom = n-r+1, the least of the top r values
    for v in p:
        if v < low:
            low = v
        if low == bottom:
            splits.add(n - bottom + 1)
        bottom -= 1
    splits.discard(n)  # the whole of p is not a split
    return splits


def is_indecomposable(p: Sequence[int]) -> bool:
    return not split_points(p)


def _standardize(values: Sequence[int]) -> tuple[int, ...]:
    """Relabel distinct values to 1..k preserving order (the pattern of the list)."""
    ranked = sorted(values)
    rank = {v: i + 1 for i, v in enumerate(ranked)}
    return tuple(rank[v] for v in values)


def decompose(p: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The unique maximal factorization of p as a direct difference of indecomposables.

    Folding the result with direct_difference reproduces p; the result has one
    component iff p is indecomposable.
    """
    n = len(p)
    cuts = sorted(split_points(p)) + [n]
    parts = []
    start = 0
    for cut in cuts:
        parts.append(_standardize(p[start:cut]))
        start = cut
    return tuple(parts)


class Subsequence(NamedTuple):
    """An index-retaining sublist: ordered (position, value) pairs.

    A NamedTuple like Envelopes, so it also equals the tuple (entries,).
    """

    entries: tuple[tuple[int, int], ...]

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple([pos for pos, _ in self.entries])

    @property
    def values(self) -> tuple[int, ...]:
        return tuple([val for _, val in self.entries])


class Envelopes(NamedTuple):
    """The upper/lower envelope decomposition of a permutation.

    upper: the maximal upper-unimodal sublist (lr-maxima then rl-maxima, the
    value n counted once).  lower: positions 1 and n plus every position whose
    value is absent from the upper envelope.  Every position appears in one of
    the two; positions 1 and n appear in both.
    """

    upper: Subsequence
    lower: Subsequence


def _envelope_positions(p: Sequence[int]) -> tuple[list[int], list[int]]:
    """0-based positions of the upper and of the lower envelope, left to right.

    A position is on the upper envelope iff its entry is a left-right or a
    right-left maximum; the lower envelope holds both ends and the rest.
    """
    n = len(p)
    upper = [False] * n
    high = 0
    for i in range(n):
        if p[i] > high:
            high = p[i]
            upper[i] = True
    high = 0
    for i in range(n - 1, -1, -1):
        if p[i] > high:
            high = p[i]
            upper[i] = True
    last = n - 1
    return (
        [i for i in range(n) if upper[i]],
        [i for i in range(n) if not upper[i] or i == 0 or i == last],
    )


def envelopes(p: Sequence[int]) -> Envelopes:
    upper, lower = _envelope_positions(p)
    # tuples through lists, as in boundary.from_boundary_word: see the reason there
    return Envelopes(
        Subsequence(tuple([(i + 1, p[i]) for i in upper])),
        Subsequence(tuple([(i + 1, p[i]) for i in lower])),
    )


def lower_unimodal_break(values: Sequence[int]) -> tuple[int, int, int] | None:
    """None iff the (distinct) values strictly decrease then strictly increase;
    otherwise the indices a < b < c of the first ascent and the first descent
    after it, so values[a] < values[b] > values[c]."""
    i, last = 0, len(values) - 1
    while i < last and values[i] > values[i + 1]:
        i += 1
    ascent = i
    while i < last and values[i] < values[i + 1]:
        i += 1
    return None if i >= last else (ascent, i, i + 1)


def is_lower_unimodal(values: Sequence[int]) -> bool:
    """True iff the (distinct) values strictly decrease then strictly increase."""
    return lower_unimodal_break(values) is None


# The sixteen forbidden length-5 patterns whose joint avoidance characterizes
# square permutations.
FORBIDDEN_PATTERNS: frozenset[tuple[int, ...]] = frozenset(
    {
        (5, 2, 3, 4, 1), (5, 2, 3, 1, 4), (5, 1, 3, 4, 2), (5, 1, 3, 2, 4),
        (4, 2, 3, 5, 1), (4, 2, 3, 1, 5), (4, 1, 3, 5, 2), (4, 1, 3, 2, 5),
        (2, 5, 3, 4, 1), (2, 5, 3, 1, 4), (1, 5, 3, 4, 2), (1, 5, 3, 2, 4),
        (2, 4, 3, 5, 1), (2, 4, 3, 1, 5), (1, 4, 3, 5, 2), (1, 4, 3, 2, 5),
    }
)
# the same patterns with 0-based values, the form is_square_by_patterns ranks into
_FORBIDDEN_RANKS = frozenset(tuple(v - 1 for v in pat) for pat in FORBIDDEN_PATTERNS)


def is_square(p: Sequence[int], env: Envelopes | None = None) -> bool:
    """True iff the lower envelope of p is lower unimodal.

    env is envelopes(p) when the caller already holds it; otherwise only the
    lower envelope's positions are computed.
    """
    if env is not None:
        return is_lower_unimodal(env.lower.values)
    return is_lower_unimodal([p[i] for i in _envelope_positions(p)[1]])


def square_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """The square permutations of size n in lexicographic order.

    A third characterization, independent of the envelope and pattern routes:
    p is square iff every entry is a left-right or right-left maximum or
    minimum.  So a value may extend a prefix iff it is a new maximum, a new
    minimum, or the smallest or largest value still unused (_kernels.moves,
    where each move's offset picks its value from the unused values).  The
    largest unused value always qualifies, so every prefix extends and the
    depth-first search visits only square permutations and their prefixes.
    """
    from ._kernels import moves

    if n < 1:
        raise ValueError("size must be at least 1")
    values = tuple(range(1, n + 1))
    # a node is (prefix, the unused values in increasing order, the moves' state)
    todo = [((f,), values[: f - 1] + values[f:], (f - 1, n - f, 0)) for f in range(n, 0, -1)]
    push = todo.append
    children = {}  # state -> its moves, largest value first
    while todo:
        prefix, unused, state = todo.pop()
        if len(unused) < 2:  # the last value always extends the prefix
            yield prefix + unused
            continue
        kids = children.get(state)
        if kids is None:
            kids = children[state] = moves(*state)[::-1]
        # children go on the stack largest first, so they come off in increasing order
        for offset, child in kids:
            push((prefix + (unused[offset],), unused[:offset] + unused[offset + 1:], child))


def is_square_by_patterns(p: Sequence[int]) -> bool:
    """Independent route: true iff p avoids all sixteen forbidden patterns.

    Ranks every 5-element subsequence in place (the rank of an entry is how
    many of the other four it exceeds) and looks the rank tuple up in the
    forbidden set, which is the cheapest exhaustive form for fixed length 5.
    """
    if len(p) < 5:
        return True
    for a, b, c, d, e in combinations(p, 5):
        ranks = (
            (a > b) + (a > c) + (a > d) + (a > e),
            (b > a) + (b > c) + (b > d) + (b > e),
            (c > a) + (c > b) + (c > d) + (c > e),
            (d > a) + (d > b) + (d > c) + (d > e),
            (e > a) + (e > b) + (e > c) + (e > d),
        )
        if ranks in _FORBIDDEN_RANKS:
            return False
    return True
