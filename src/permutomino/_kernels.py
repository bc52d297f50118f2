"""The counting kernels behind every count.

count_stats, which every count reads, returns the per-permutation statistics
the identities need for size n without visiting a permutation: it counts over
the states of the depth-first search in permutomino.perms.square_permutations.
No state's count depends on n, so one memoised table serves every size up to
COUNT_BOUND and stays filled between calls.  It evaluates the generator's own
rules by counting, so it is not a further characterization of square
permutations; the independent checks stay the closed forms, the
envelope-vs-pattern agreement and the interval oracle.  Its reference, a fold
over the permutations the generator yields, is in tests/test_kernels.py.
The module imports no other part of the package but `errors`, so a count
loads no permutation or shape code.
"""
from __future__ import annotations

from functools import cache
from math import factorial

from .errors import SizeTooLarge

BACKEND = "python"

# count_stats(30) fills the table from empty in 0.3-0.4 s: 32,336 states, ~15 MB,
# which hold every smaller size too.  The table grows as O(n^4) states.
COUNT_BOUND = 30
# bits per packed coefficient: each counts square permutations of a size
# <= COUNT_BOUND, so it stays below COUNT_BOUND!
_WIDTH = factorial(COUNT_BOUND).bit_length()


@cache
def _walk(a: int, b: int, g1: int, g2: int) -> tuple[int, int, int, int]:
    """Over the completions from state (a, b, g1, g2) (see count_stats): the
    polynomial of their split counts; for the split-free ones, the polynomial
    of their free fixed points, how many have no reversal split and how many
    end above the first value."""
    gap = g1 + g2
    left = a + b + gap
    if left == 0:
        return 1, 1, 1, 0
    # the generator's moves, each with whether it takes a value above the first
    moves = [((a, b - j, g1, g2 + j - 1), True) for j in range(1, b + 1)]  # new maxima
    if gap and b == 0 and (a or gap > 1):  # the largest unused value, in the gap
        moves.append(((a, b, g1, g2 - 1), True) if g2 else ((a, b, g1 - 1, g2), False))
    if gap and a == 0:  # the smallest unused value, in the gap
        moves.append(((a, b, g1 - 1, g2), False) if g1 else ((a, b, g1, g2 - 1), True))
    moves += [((a - j, b, g1 + j - 1, g2), False) for j in range(1, a + 1)]  # new minima
    reversal_split = a == 0 and gap == 0
    # the prefix is 1..r, so the first move puts the new maximum r + 1 at
    # position r + 1: free when 1 < r + 1 < n, that is when left > 1
    free_fixed = reversal_split and left > 1
    splits = fixed = both_ways = rising = 0
    for i, (state, above) in enumerate(moves):
        s, f, w, up = _walk(*state)
        splits += s
        fixed += f << _WIDTH if free_fixed and i == 0 else f
        both_ways += w
        rising += above if left == 1 else up
    if b == 0 and gap == 0:  # a split point
        return splits << _WIDTH, 0, 0, 0
    return splits, fixed, 0 if reversal_split else both_ways, rising


def count_stats(n: int) -> dict:
    """The statistics of the square permutations of size n:

    - square: number of square permutations
    - components: {k: number of square permutations with k indecomposable parts}
    - ctilde_by_fixed: list where entry f counts square indecomposable
      permutations with f free fixed points
    - both_ways: square indecomposable permutations whose reversal is also
      indecomposable (realizable from both vertex classes)
    - assoc_first_lt_last: square indecomposable permutations with p(1) < p(n)

    After the first value f, the moves of square_permutations depend only on
    four numbers: a and b, the unused values below the prefix's minimum and
    above its maximum, and the gap of unused values between the two, g1 of
    them below f and g2 above (the gap is consumed only at its ends).  The
    prefix length is r = n - left, left = a + b + g1 + g2, and every field
    reads off the states a permutation passes through:

    - a split point is a state with left > 0, b == 0 and an empty gap (the
      prefix holds the top r values);
    - the reversal has a split where a == 0 and the gap is empty (the prefix
      holds 1..r); only there can the next new maximum, r + 1, land at
      position r + 1, and it is a free fixed point when 1 < r + 1 < n;
    - p(1) < p(n) when the last move takes a value above f.

    The split counts and the free-fixed-point counts are polynomials packed
    into one int, _WIDTH bits per coefficient, so adding two is one int
    addition and multiplying by x one shift.  Size n sums the n first-value
    states (f - 1, n - f, 0, 0) of the shared table _walk.
    """
    if n > COUNT_BOUND:
        raise SizeTooLarge(f"counts are bounded at size {COUNT_BOUND}, got {n}")
    if n < 1:
        raise ValueError("size must be at least 1")
    splits, fixed, both_ways, rising = (
        sum(field) for field in zip(*(_walk(f - 1, n - f, 0, 0) for f in range(1, n + 1)))
    )
    mask = (1 << _WIDTH) - 1
    by_splits = [(splits >> (k * _WIDTH)) & mask for k in range(n)]
    return {
        "square": sum(by_splits),
        "components": {k + 1: v for k, v in enumerate(by_splits) if v},
        "ctilde_by_fixed": [(fixed >> (k * _WIDTH)) & mask for k in range(max(n - 1, 1))],
        "both_ways": both_ways,
        "assoc_first_lt_last": rising,
    }

