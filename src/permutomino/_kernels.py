"""The counting kernels behind every count.

count_stats, the one the counts read, returns the per-permutation statistics
the identities need for size n without visiting a permutation: it counts over
the states of the depth-first search in permutomino.perms.square_permutations,
memoised.  It evaluates the generator's own rules by counting, so it is not a
further characterization of square permutations; the independent checks stay
the closed forms, the envelope-vs-pattern agreement and the interval oracle.

scan_stats is the reference count_stats is tested against: it folds the same
statistics over the square permutations the generator yields; no non-square
permutation is visited.
square_agreement walks all of S_n, because it has to see the non-squares.

The kernels define no predicate of their own: split points, indecomposability,
the envelope square test and the pattern square test come from
permutomino.perms, free fixed points from permutomino.membership.
"""
from __future__ import annotations

from functools import cache
from itertools import permutations
from math import factorial

from .membership import free_fixed_values
from .perms import (
    is_indecomposable,
    is_square,
    is_square_by_patterns,
    reversal,
    split_points,
    square_permutations,
)

BACKEND = "python"


def scan_stats(n: int) -> dict:
    """One pass over the square permutations of size n, accumulating:

    - square: number of square permutations
    - components: {k: number of square permutations with k indecomposable parts}
    - ctilde_by_fixed: list where entry f counts square indecomposable
      permutations with f free fixed points
    - both_ways: square indecomposable permutations whose reversal is also
      indecomposable (realizable from both vertex classes)
    - assoc_first_lt_last: square indecomposable permutations with p(1) < p(n)
    """
    square = 0
    components: dict[int, int] = {}
    by_fixed = [0] * max(n - 1, 1)
    both_ways = 0
    first_lt_last = 0
    for p in square_permutations(n):
        square += 1
        comps = len(split_points(p)) + 1
        components[comps] = components.get(comps, 0) + 1
        if comps == 1:
            by_fixed[len(free_fixed_values(p))] += 1
            if is_indecomposable(reversal(p)):
                both_ways += 1
            if p[0] < p[n - 1]:
                first_lt_last += 1
    return {
        "square": square,
        "components": components,
        "ctilde_by_fixed": by_fixed,
        "both_ways": both_ways,
        "assoc_first_lt_last": first_lt_last,
    }


def count_stats(n: int) -> dict:
    """The scan_stats dict of size n, counted over the generator's states.

    After the first value f, the moves of square_permutations depend only on
    four numbers: a and b, the unused values below the prefix's minimum and
    above its maximum, and the gap of unused values between the two, g1 of
    them below f and g2 above (the gap is consumed only at its ends).  The
    prefix length is r = n - a - b - g1 - g2, and every field reads off the
    states a permutation passes through:

    - a split point is a state with r < n, b == 0 and an empty gap (the
      prefix holds the top r values);
    - the reversal has a split where a == 0 and the gap is empty (the prefix
      holds 1..r); only there can the next new maximum, r + 1, land at
      position r + 1, and it is a free fixed point when 1 < r + 1 < n;
    - p(1) < p(n) when the last move takes a value above f.

    The split counts and the free-fixed-point counts are polynomials packed
    into one int, `width` bits per coefficient (no coefficient reaches n!),
    so adding two is one int addition and multiplying by x one shift.  The
    table is built per call over O(n^4) states.
    """
    if n < 1:
        raise ValueError("size must be at least 1")
    width = factorial(n).bit_length()

    @cache
    def walk(a, b, g1, g2):
        """Over the completions from state (a, b, g1, g2): the polynomial of
        their split counts; for the split-free ones, the polynomial of their
        free fixed points, how many have no reversal split and how many end
        above f."""
        gap = g1 + g2
        left = a + b + gap
        if left == 0:
            return 1, 1, 1, 0
        # the generator's moves, each with whether it takes a value above f
        moves = [((a, b - j, g1, g2 + j - 1), True) for j in range(1, b + 1)]  # new maxima
        if gap and b == 0 and (a or gap > 1):  # the largest unused value, in the gap
            moves.append(((a, b, g1, g2 - 1), True) if g2 else ((a, b, g1 - 1, g2), False))
        if gap and a == 0:  # the smallest unused value, in the gap
            moves.append(((a, b, g1 - 1, g2), False) if g1 else ((a, b, g1, g2 - 1), True))
        moves += [((a - j, b, g1 + j - 1, g2), False) for j in range(1, a + 1)]  # new minima
        reversal_split = a == 0 and gap == 0
        # the prefix is 1..r, so the first move puts the new maximum r + 1 at position r + 1
        free_fixed = reversal_split and 1 < n - left + 1 < n
        splits = fixed = both_ways = rising = 0
        for i, (state, above) in enumerate(moves):
            s, f, w, up = walk(*state)
            splits += s
            fixed += f << width if free_fixed and i == 0 else f
            both_ways += w
            rising += above if left == 1 else up
        if b == 0 and gap == 0:  # a split point
            return splits << width, 0, 0, 0
        return splits, fixed, 0 if reversal_split else both_ways, rising

    splits, fixed, both_ways, rising = (
        sum(field) for field in zip(*(walk(f - 1, n - f, 0, 0) for f in range(1, n + 1)))
    )
    mask = (1 << width) - 1
    by_splits = [(splits >> (k * width)) & mask for k in range(n)]
    return {
        "square": sum(by_splits),
        "components": {k + 1: v for k, v in enumerate(by_splits) if v},
        "ctilde_by_fixed": [(fixed >> (k * width)) & mask for k in range(max(n - 1, 1))],
        "both_ways": both_ways,
        "assoc_first_lt_last": rising,
    }


def square_agreement(n: int) -> dict:
    """Compare the envelope route and the pattern route over all of S_n.

    Returns counts from both routes plus the number of disagreements (zero if
    the two characterizations really coincide).
    """
    by_envelope = 0
    by_patterns = 0
    disagree = 0
    for p in permutations(range(1, n + 1)):
        a = is_square(p)
        b = is_square_by_patterns(p)
        by_envelope += a
        by_patterns += b
        disagree += a != b
    return {"by_envelope": by_envelope, "by_patterns": by_patterns, "disagreements": disagree}
