"""Exhaustive geometric enumerators used as independent ground truth.

A permutomino of size n occupies an (n-1) x (n-1) cell box.  Column-convex
permutominoes are generated as stacks of per-column row intervals [a_j, b_j]
with adjacent columns overlapping; convex ones additionally keep the tops
unimodal and the bottoms anti-unimodal.  The depth-first search enforces the
paper's one-side-per-coordinate rule as it goes: the junction rules give one
vertical side per abscissa, and a stack is cut as soon as a column's bottom or
top edge would start a second horizontal side at an ordinate.  Each stack
that survives is serialized once, straight from its intervals, and still goes
through the full permutomino validator (`boundary.from_boundary_word`, which
checks that the word is closed, simple and clockwise from its lowest leftmost
point, and counts its sides per coordinate); a rejection there is an error,
not a skipped candidate.  So counts coming out of here share no
code path with the permutation-side machinery.

These enumerators are exhaustive over the box and bounded (default size 6).
The convex listing is the one source of every geometric class: directed,
parallelogram and symmetric permutominoes are the convex shapes whose class
flag (`boundary.classify`) is set, so callers list a size once and filter it.
"""
from __future__ import annotations

from .boundary import EMPTY, Permutomino, _start_at_lowest_leftmost, from_boundary_word
from .errors import SizeTooLarge

DEFAULT_BOUND = 6


def _steps(a: int, b: int) -> str:
    """Vertical steps from ordinate a to ordinate b."""
    return "N" * (b - a) + "S" * (a - b)


def _stack_word(intervals: list[tuple[int, int]]) -> str:
    """Clockwise boundary word of a stack, read straight off its intervals.

    The walk goes up the left side, along the tops left to right, down the
    right side and along the bottoms right to left, and is then rotated to
    start at the lowest leftmost point.
    """
    bottoms = [lo for lo, _ in intervals]
    tops = [hi + 1 for _, hi in intervals]
    return _start_at_lowest_leftmost(
        _steps(bottoms[0], tops[0])
        + "".join("E" + _steps(a, b) for a, b in zip(tops, tops[1:])) + "E"
        + _steps(tops[-1], bottoms[-1])
        + "".join("W" + _steps(a, b) for a, b in zip(bottoms[::-1], bottoms[-2::-1])) + "W"
    )


def _interval_stacks(n: int, convex: bool):
    """Yield the interval stacks over the (n-1)x(n-1) box that are permutominoes.

    Junction rules: adjacent intervals overlap, and exactly one of bottom/top
    changes between adjacent columns (a permutomino needs exactly one vertical
    side at each interior abscissa).  Ordinate rule: column x with interval
    (lo, hi) has horizontal edges at ordinates lo and hi + 1, and an edge may
    not start a second side at an ordinate, so it must continue the side that
    ends at abscissa x - 1, if there is one; a full stack must have a side at
    every ordinate 1..n.  With convex=True, tops must rise then fall and
    bottoms fall then rise.
    """
    side = n - 1
    stack: list[tuple[int, int]] = []
    # ordinate -> abscissa of its latest horizontal edge (0: none yet)
    last_edge = [0] * (n + 1)

    def free(y: int, x: int) -> bool:
        return last_edge[y] == 0 or last_edge[y] == x - 1

    def extend(x: int, tops_fell: bool, bottoms_rose: bool):
        if x == n:
            if all(last_edge[1:n + 1]):
                yield list(stack)
            return
        for lo in range(1, side + 1):
            if not free(lo, x):
                continue
            for hi in range(lo, side + 1):
                if not free(hi + 1, x):
                    continue
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
                saved = last_edge[lo], last_edge[hi + 1]
                last_edge[lo] = last_edge[hi + 1] = x
                stack.append((lo, hi))
                yield from extend(x + 1, new_tops_fell, new_bottoms_rose)
                stack.pop()
                last_edge[lo], last_edge[hi + 1] = saved

    yield from extend(1, False, False)


def _enumerate(n: int, convex: bool, bound: int) -> list[Permutomino]:
    if n > bound:
        raise SizeTooLarge(f"interval oracle is bounded at size {bound}, got {n}")
    if n < 1:
        raise ValueError("size must be at least 1")
    if n == 1:
        return [EMPTY]
    found = [from_boundary_word(_stack_word(stack)) for stack in _interval_stacks(n, convex)]
    found.sort(key=Permutomino.sort_key)
    return found


def enumerate_convex(n: int, bound: int = DEFAULT_BOUND) -> list[Permutomino]:
    """All convex permutominoes of size n, sorted by (pi1, boundary word)."""
    return _enumerate(n, convex=True, bound=bound)


def enumerate_column_convex(n: int, bound: int = DEFAULT_BOUND) -> list[Permutomino]:
    """All column-convex permutominoes of size n (no convexity filter)."""
    return _enumerate(n, convex=False, bound=bound)
