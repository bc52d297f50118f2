"""Pure-Python scan kernels behind every count.

scan_stats folds the per-permutation statistics the identities need over the
square permutations of size n, which permutomino.perms.square_permutations
generates directly (optionally only those with a fixed first value, which is
the unit of work parallel workers split on); no non-square permutation is
visited.  square_agreement still walks all of S_n, because it has to see the
non-squares.  permutomino._speedups is the compiled twin with the same surface
(it filters S_n); permutomino._kernels picks one at import.

Everything here works on raw tuples to keep the inner loop lean, but the
predicates are the same definitions as the public ones in permutomino.perms:
the square test builds the lower envelope and checks unimodality, and the
independent pattern route standardizes every 5-element subsequence against the
sixteen forbidden patterns.
"""
from __future__ import annotations

from itertools import combinations, permutations

from .perms import square_permutations

# forbidden length-5 patterns, as 0-based rank tuples for the fast route
_FORBIDDEN = frozenset(
    tuple(v - 1 for v in pat)
    for pat in (
        (5, 2, 3, 4, 1), (5, 2, 3, 1, 4), (5, 1, 3, 4, 2), (5, 1, 3, 2, 4),
        (4, 2, 3, 5, 1), (4, 2, 3, 1, 5), (4, 1, 3, 5, 2), (4, 1, 3, 2, 5),
        (2, 5, 3, 4, 1), (2, 5, 3, 1, 4), (1, 5, 3, 4, 2), (1, 5, 3, 2, 4),
        (2, 4, 3, 5, 1), (2, 4, 3, 1, 5), (1, 4, 3, 5, 2), (1, 4, 3, 2, 5),
    )
)

BACKEND = "python"


def _perm_stream(n: int, first: int | None):
    if first is None:
        yield from permutations(range(1, n + 1))
    else:
        rest = [v for v in range(1, n + 1) if v != first]
        for tail in permutations(rest):
            yield (first,) + tail


def _lower_envelope_unimodal(p: tuple[int, ...], n: int) -> bool:
    """Square test: build the lower envelope and check it falls then rises."""
    if n < 3:
        return True
    is_lr = [False] * n
    running = 0
    for i, v in enumerate(p):
        if v > running:
            running = v
            is_lr[i] = True
    is_rl = [False] * n
    running = 0
    for i in range(n - 1, -1, -1):
        if p[i] > running:
            running = p[i]
            is_rl[i] = True
    lower = [p[0]]
    lower += [p[i] for i in range(1, n - 1) if not (is_lr[i] or is_rl[i])]
    lower.append(p[n - 1])
    i = 0
    while i + 1 < len(lower) and lower[i] > lower[i + 1]:
        i += 1
    while i + 1 < len(lower) and lower[i] < lower[i + 1]:
        i += 1
    return i + 1 >= len(lower)


def _component_count(p: tuple[int, ...], n: int) -> int:
    comps = 1
    running_min = n + 1
    for r in range(1, n):
        if p[r - 1] < running_min:
            running_min = p[r - 1]
        if running_min == n - r + 1:
            comps += 1
    return comps


def _reversal_indecomposable(p: tuple[int, ...], n: int) -> bool:
    running_min = n + 1
    for r in range(1, n):
        if p[n - r] < running_min:
            running_min = p[n - r]
        if running_min == n - r + 1:
            return False
    return True


def _free_fixed_count(p: tuple[int, ...], n: int) -> int:
    count = 0
    running_max = 0
    for i in range(n):
        v = p[i]
        if v == i + 1 and 1 < v < n and running_max < v:
            count += 1
        if v > running_max:
            running_max = v
    return count


def _avoids_forbidden(p: tuple[int, ...], n: int) -> bool:
    """Pattern route: no 5-element subsequence standardizes to a forbidden pattern."""
    if n < 5:
        return True
    for sub in combinations(p, 5):
        a, b, c, d, e = sub
        ranks = (
            (a > b) + (a > c) + (a > d) + (a > e),
            (b > a) + (b > c) + (b > d) + (b > e),
            (c > a) + (c > b) + (c > d) + (c > e),
            (d > a) + (d > b) + (d > c) + (d > e),
            (e > a) + (e > b) + (e > c) + (e > d),
        )
        if ranks in _FORBIDDEN:
            return False
    return True


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
        comps = _component_count(p, n)
        components[comps] = components.get(comps, 0) + 1
        if comps == 1:
            by_fixed[_free_fixed_count(p, n)] += 1
            if _reversal_indecomposable(p, n):
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
        a = _lower_envelope_unimodal(p, n)
        b = _avoids_forbidden(p, n)
        by_envelope += a
        by_patterns += b
        disagree += a != b
    return {"by_envelope": by_envelope, "by_patterns": by_patterns, "disagreements": disagree}
