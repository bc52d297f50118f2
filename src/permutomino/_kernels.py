"""The scan kernels behind every count.

scan_stats folds the per-permutation statistics the identities need over the
square permutations of size n, which permutomino.perms.square_permutations
generates directly (optionally only those with a fixed first value, which is
the unit of work parallel workers split on); no non-square permutation is
visited.  square_agreement walks all of S_n, because it has to see the
non-squares.

The kernels define no predicate of their own: split points, indecomposability,
the envelope square test and the pattern square test come from
permutomino.perms, free fixed points from permutomino.membership.
"""
from __future__ import annotations

from itertools import permutations

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


def _perm_stream(n: int, first: int | None):
    if first is None:
        yield from permutations(range(1, n + 1))
    else:
        rest = [v for v in range(1, n + 1) if v != first]
        for tail in permutations(rest):
            yield (first,) + tail


def scan_stats(n: int, first: int | None = None) -> dict:
    """One pass over the square permutations of size n (or those with a fixed
    first value), accumulating:

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
    for p in square_permutations(n, first):
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


def square_agreement(n: int, first: int | None = None) -> dict:
    """Compare the envelope route and the pattern route over a whole block.

    Returns counts from both routes plus the number of disagreements (zero if
    the two characterizations really coincide).
    """
    by_envelope = 0
    by_patterns = 0
    disagree = 0
    for p in _perm_stream(n, first):
        a = is_square(p)
        b = is_square_by_patterns(p)
        by_envelope += a
        by_patterns += b
        disagree += a != b
    return {"by_envelope": by_envelope, "by_patterns": by_patterns, "disagreements": disagree}
