"""Exhaustive geometric enumerators used as independent ground truth.

A permutomino of size n occupies an (n-1) x (n-1) cell box.  Column-convex
permutominoes are generated as stacks of per-column row intervals [a_j, b_j]
with adjacent columns overlapping; convex ones additionally keep the tops
unimodal and the bottoms anti-unimodal.  A plain depth-first recursion
enforces the paper's one-side-per-coordinate rule as it goes: from one column
to the next it moves either the top or the bottom, never both or neither, so
each abscissa gets one vertical side and the columns stay connected, and it
cuts a stack as soon as a moved edge would start a second horizontal side at
an ordinate.  At each leaf the stack is serialized once, straight from its
edges and starting at its lowest leftmost point, and the word goes through the
full permutomino validator (`boundary.from_boundary_word`, which checks that
the word is closed, simple and clockwise from its lowest leftmost point, and
counts its sides per coordinate); a rejection there is an error, not a skipped
candidate.  Only the shapes are kept, never a list of stacks.  Counts coming
out of here share no code path with the permutation-side machinery: the
oracle's jobs load `boundary` but no permutation module.

These enumerators are exhaustive over the box and bounded (default size 6).
The convex listing is the one source of every geometric class: directed,
parallelogram and symmetric permutominoes are the convex shapes whose class
flag (`boundary.classify`) is set, so callers list a size once and filter it.
"""
from __future__ import annotations

from typing import Callable

from .boundary import EMPTY, Permutomino, from_boundary_word
from .errors import SizeTooLarge

DEFAULT_BOUND = 6


def _stack_word(bottoms: list[int], tops: list[int]) -> str:
    """Clockwise boundary word of a stack, read straight off the ordinates of
    its columns' bottom and top edges.

    The lowest leftmost point is the left end of the bottom edge of the first
    column whose bottom is lowest, m.  From there the walk goes back along the
    bottoms of the columns left of m, up the left side, along the tops left to
    right, down the right side and along the bottoms right to left to column m.
    A vertical step from ordinate a to b is "N" * (b - a) + "S" * (a - b).
    """
    m = bottoms.index(min(bottoms))
    # the vertical side at each abscissa j >= 1 below the stack, then the
    # bottom edge of column j - 1, as the walk passes them from right to left
    below = ["N" * (a - b) + "S" * (b - a) + "W" for a, b in zip(bottoms, bottoms[1:])]
    return ("".join(reversed(below[:m])) + "N" * (tops[0] - bottoms[0])
            + "".join(["E" + "N" * (b - a) + "S" * (a - b) for a, b in zip(tops, tops[1:])])
            + "E" + "S" * (tops[-1] - bottoms[-1]) + "W" + "".join(reversed(below[m:])))


def _interval_stacks(n: int, convex: bool, leaf: Callable[[list[int], list[int]], None]) -> None:
    """Call leaf(bottoms, tops) for each interval stack over the (n-1)x(n-1)
    box that is a permutomino; bottoms[j] and tops[j] are the ordinates of the
    bottom and top edges of column j + 1 (its cells are bottoms[j]..tops[j]-1).

    Junction rule: a permutomino has exactly one vertical side at each
    interior abscissa, so from one column to the next either the bottom stays
    and the top moves, or the top stays and the bottom moves; the columns
    then overlap.  Ordinate rule: an edge may not start a second side at an
    ordinate, so a moved edge must continue the side that ends at abscissa
    x - 1, if there is one; a full stack must have a side at every ordinate
    1..n.  With convex=True, tops must rise then fall and bottoms fall then
    rise.  The lists passed to leaf are reused: leaf reads them before it
    returns.
    """
    bottoms = [0] * (n - 1)
    tops = [0] * (n - 1)
    # ordinate -> abscissa of its latest horizontal edge (0: none yet)
    last_edge = [0] * (n + 1)

    def extend(x: int, tops_fell: bool, bottoms_rose: bool) -> None:
        if x == n:
            if all(last_edge[1:]):
                leaf(bottoms, tops)
            return
        prev_bottom, prev_top = bottoms[x - 2], tops[x - 2]
        # the bottom stays (its side goes on), the top moves
        last_edge[prev_bottom] = x
        for top in range(prev_bottom + 1, n + 1):
            if top == prev_top or (convex and tops_fell and top > prev_top):
                continue
            saved = last_edge[top]
            if saved == 0 or saved == x - 1:
                last_edge[top] = x
                bottoms[x - 1] = prev_bottom
                tops[x - 1] = top
                extend(x + 1, tops_fell or top < prev_top, bottoms_rose)
                last_edge[top] = saved
        last_edge[prev_bottom] = x - 1
        # the top stays, the bottom moves
        last_edge[prev_top] = x
        for bottom in range(1, prev_top):
            if bottom == prev_bottom or (convex and bottoms_rose and bottom < prev_bottom):
                continue
            saved = last_edge[bottom]
            if saved == 0 or saved == x - 1:
                last_edge[bottom] = x
                bottoms[x - 1] = bottom
                tops[x - 1] = prev_top
                extend(x + 1, tops_fell, bottoms_rose or bottom > prev_bottom)
                last_edge[bottom] = saved
        last_edge[prev_top] = x - 1

    for bottom in range(1, n):
        for top in range(bottom + 1, n + 1):
            last_edge[bottom] = last_edge[top] = 1
            bottoms[0] = bottom
            tops[0] = top
            extend(2, False, False)
            last_edge[bottom] = last_edge[top] = 0
    # extend's closure holds extend itself; emptying that cell frees leaf, and
    # what leaf holds, now rather than at the next cyclic collection
    del extend


def _enumerate(n: int, convex: bool, bound: int) -> list[Permutomino]:
    if n > bound:
        raise SizeTooLarge(f"interval oracle is bounded at size {bound}, got {n}")
    if n < 1:
        raise ValueError("size must be at least 1")
    if n == 1:
        return [EMPTY]
    found: list[Permutomino] = []
    _interval_stacks(n, convex, lambda bottoms, tops: found.append(
        from_boundary_word(_stack_word(bottoms, tops))))
    found.sort(key=Permutomino.sort_key)
    return found


def enumerate_convex(n: int, bound: int = DEFAULT_BOUND) -> list[Permutomino]:
    """All convex permutominoes of size n, sorted by (pi1, boundary word)."""
    return _enumerate(n, convex=True, bound=bound)


def enumerate_column_convex(n: int, bound: int = DEFAULT_BOUND) -> list[Permutomino]:
    """All column-convex permutominoes of size n (no convexity filter)."""
    return _enumerate(n, convex=False, bound=bound)
