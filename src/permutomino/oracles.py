"""Exhaustive geometric enumerators used as independent ground truth.

A permutomino of size n occupies an (n-1) x (n-1) cell box.  Column-convex
candidates are generated as stacks of per-column row intervals [a_j, b_j] with
adjacent columns overlapping; convex candidates additionally keep the tops
unimodal and the bottoms anti-unimodal.  Every candidate stack is serialized to
its boundary word and passed through the full permutomino validator, so counts
coming out of here share no code path with the permutation-side machinery.

These enumerators are deliberately brute force and bounded (default size 6).
The convex listing is the one source of every geometric class: directed,
parallelogram and symmetric permutominoes are the convex shapes whose class
flag (`boundary.classify`) is set, so callers list a size once and filter it.
"""
from __future__ import annotations

from .boundary import Permutomino, EMPTY, from_boundary_word, word_from_cells
from .errors import NotPermutomino, SizeTooLarge

DEFAULT_BOUND = 6


def _stack_to_permutomino(intervals: list[tuple[int, int]]) -> Permutomino | None:
    cells = frozenset(
        (x + 1, y) for x, (lo, hi) in enumerate(intervals) for y in range(lo, hi + 1)
    )
    try:
        return from_boundary_word(word_from_cells(cells))
    except NotPermutomino:
        return None


def _interval_stacks(n: int, convex: bool):
    """Yield interval stacks over the (n-1)x(n-1) box passing the junction rules.

    Junction rules: adjacent intervals overlap, and exactly one of bottom/top
    changes between adjacent columns (a permutomino needs exactly one vertical
    side at each interior abscissa).  With convex=True, tops must rise then
    fall and bottoms fall then rise.
    """
    side = n - 1
    stack: list[tuple[int, int]] = []

    def extend(col: int, tops_fell: bool, bottoms_rose: bool):
        if col == side:
            if min(lo for lo, _ in stack) == 1 and max(hi for _, hi in stack) == side:
                yield list(stack)
            return
        for lo in range(1, side + 1):
            for hi in range(lo, side + 1):
                if stack:
                    plo, phi = stack[-1]
                    if lo > phi or hi < plo:
                        continue  # disconnected columns
                    if (lo != plo) == (hi != phi):
                        continue  # zero or two vertical sides at this abscissa
                    if convex:
                        if tops_fell and hi > phi:
                            continue
                        if bottoms_rose and lo < plo:
                            continue
                        new_tops_fell = tops_fell or hi < phi
                        new_bottoms_rose = bottoms_rose or lo > plo
                    else:
                        new_tops_fell = new_bottoms_rose = False
                else:
                    new_tops_fell = new_bottoms_rose = False
                stack.append((lo, hi))
                yield from extend(col + 1, new_tops_fell, new_bottoms_rose)
                stack.pop()

    yield from extend(0, False, False)


def _enumerate(n: int, convex: bool, bound: int) -> list[Permutomino]:
    if n > bound:
        raise SizeTooLarge(f"interval oracle is bounded at size {bound}, got {n}")
    if n < 1:
        raise ValueError("size must be at least 1")
    if n == 1:
        return [EMPTY]
    found = []
    for stack in _interval_stacks(n, convex):
        p = _stack_to_permutomino(stack)
        if p is not None and p.size == n:
            found.append(p)
    found.sort(key=Permutomino.sort_key)
    return found


def enumerate_convex(n: int, bound: int = DEFAULT_BOUND) -> list[Permutomino]:
    """All convex permutominoes of size n, sorted by (pi1, boundary word)."""
    return _enumerate(n, convex=True, bound=bound)


def enumerate_column_convex(n: int, bound: int = DEFAULT_BOUND) -> list[Permutomino]:
    """All column-convex permutominoes of size n (no convexity filter)."""
    return _enumerate(n, convex=False, bound=bound)
