"""The square generator's moves and the counting kernels behind every count.

moves is the one definition of which values extend a prefix of a square
permutation, on the states of the depth-first search: perms.square_permutations
maps each move to its value and count_stats counts over the same children.
count_stats returns the one record of size n that every permutation count
and identity reads (square, decomposable, realizable and convex counts and
their strata), without visiting a permutation.  No state's count depends on
n, so one memoised table serves every size up to COUNT_BOUND and stays filled
between calls.  It evaluates the generator's own rules by counting, so it is
not a further characterization of square permutations; the independent checks
stay the closed forms and the interval oracle, and tier-1 compares the
envelope and pattern tests over S_n.  Its reference, a fold over the
value-level search in tests/references.py, is in tests/test_kernels.py.  The
module imports nothing from the package but `errors`, so a count loads no
permutation or shape code.
"""
from __future__ import annotations

from functools import cache
from math import factorial

from .errors import check_size

# count_stats(30) fills the table from empty in ~0.05 s: 4,525 states, which
# hold every smaller size too.  The table grows as O(n^3) states.
COUNT_BOUND = 30
# bits per packed coefficient: each counts square permutations of a size
# <= COUNT_BOUND, so it stays below COUNT_BOUND!
_WIDTH = factorial(COUNT_BOUND).bit_length()


def moves(a: int, b: int, gap: int) -> list[tuple[int, tuple[int, int, int]]]:
    """The children of state (a, b, gap) (see count_stats) in increasing
    value order, as (offset, child): offset ranks the value taken among the
    unused ones (the a below the prefix, the gap, the b above it).  A value
    extends the prefix iff it is a new minimum or maximum, or an end of the
    gap that is also the smallest or largest unused value.
    """
    children = [(a - j, (a - j, b, gap + j - 1)) for j in range(a, 0, -1)]  # new minima
    if gap and a == 0:  # the gap's bottom end, the smallest unused value
        children.append((0, (a, b, gap - 1)))
    if gap and b == 0 and (a or gap > 1):  # the gap's top end, the largest unused value
        children.append((a + gap - 1, (a, b, gap - 1)))
    children += [(a + gap + j - 1, (a, b - j, gap + j - 1)) for j in range(1, b + 1)]  # new maxima
    return children


@cache
def _walk(a: int, b: int, gap: int) -> tuple[int, int, int]:
    """Over the completions from state (a, b, gap) (see count_stats): the
    polynomial of their split counts; for the split-free ones, the polynomial
    of their free fixed points and how many have no reversal split."""
    left = a + b + gap
    if left == 0:
        return 1, 1, 1
    reversal_split = a == 0 and gap == 0
    # the prefix is 1..r, so the first move (offset 0) puts the new maximum
    # r + 1 at position r + 1: free when 1 < r + 1 < n, that is when left > 1
    free_fixed = reversal_split and left > 1
    splits = fixed = both_ways = 0
    for offset, child in moves(a, b, gap):
        s, f, w = _walk(*child)
        splits += s
        fixed += f << _WIDTH if free_fixed and offset == 0 else f
        both_ways += w
    if b == 0 and gap == 0:  # a split point
        return splits << _WIDTH, 0, 0
    return splits, fixed, 0 if reversal_split else both_ways


def count_stats(n: int) -> dict:
    """The count record of the square permutations of size n; its dicts hold
    their nonzero entries in increasing key order:

    - square, decomposable: square permutations, and those of >= 2 components
    - components: {k: square permutations with k indecomposable parts}
    - ctilde: the indecomposable ones, which are the realizable permutations
    - by_free_fixed_points: {k: realizable permutations with k free fixed points}
    - convex: convex permutominoes, the fiber sum of 2^k over by_free_fixed_points
    - both_ways: realizable permutations whose reversal is also indecomposable
      (realizable from both vertex classes)
    - assoc_first_lt_last: realizable permutations with p(1) < p(n)

    After the first value, the moves (see `moves`) depend only on three
    numbers: a and b, the unused values below the prefix's minimum and
    above its maximum, and the gap of unused values between the two (the
    gap is consumed only at its ends).  The prefix length is r = n - left,
    left = a + b + gap, and the fields read off the states a permutation
    passes through:

    - a split point is a state with left > 0, b == 0 and an empty gap (the
      prefix holds the top r values);
    - the reversal has a split where a == 0 and the gap is empty (the prefix
      holds 1..r); only there can the next new maximum, r + 1, land at
      position r + 1, and it is a free fixed point when 1 < r + 1 < n.

    The split counts and the free-fixed-point counts are polynomials packed
    into one int, _WIDTH bits per coefficient, so adding two is one int
    addition and multiplying by x one shift.  Size n sums the n first-value
    states (f - 1, n - f, 0) of the shared table _walk.
    """
    check_size(n, COUNT_BOUND, "counts are")
    splits, fixed, both_ways = (
        sum(field) for field in zip(*(_walk(f - 1, n - f, 0) for f in range(1, n + 1)))
    )
    mask = (1 << _WIDTH) - 1
    by_splits = [(splits >> (k * _WIDTH)) & mask for k in range(n)]
    by_free = {k: v for k in range(n) if (v := (fixed >> (k * _WIDTH)) & mask)}
    ctilde = by_splits[0]
    return {
        "square": sum(by_splits),
        "decomposable": sum(by_splits[1:]),
        "components": {k + 1: v for k, v in enumerate(by_splits) if v},
        "ctilde": ctilde,
        "by_free_fixed_points": by_free,
        "convex": sum(v << k for k, v in by_free.items()),
        "both_ways": both_ways,
        # for n >= 2: reversal maps the both-ways permutations onto themselves
        # and swaps p(1) < p(n) with p(1) > p(n), so half of them rise; every
        # other realizable p has a reversal split r, so p(1) <= r < p(n)
        "assoc_first_lt_last": ctilde - both_ways // 2 if n > 1 else 0,
    }
