"""Exhaustive geometric enumerators used as independent ground truth.

A permutomino of size n occupies an (n-1) x (n-1) cell box.  Column-convex
permutominoes are generated as stacks of per-column row intervals [a_j, b_j]
with adjacent columns overlapping; convex ones additionally keep the tops
unimodal and the bottoms anti-unimodal.  A recursive generator enforces the
paper's one-side-per-coordinate rule as it goes: from one column to the next
it moves either the top or the bottom, never both or neither, so each abscissa
gets one vertical side and the columns stay connected.  A moved edge never
continues a side, since the only sides that end where the new column starts
are the previous column's bottom and top, which stay; so the generator carries
the set of ordinates that have a side and cuts a stack as soon as a moved edge
would start a second one.  Each stack it yields is serialized once, straight
from its edges and starting at its lowest leftmost point, and the word goes
through the full permutomino validator (`boundary.from_boundary_word`, which
checks that the word is closed, simple and clockwise from its lowest leftmost
point, and counts its sides per coordinate); a rejection there is an error,
not a skipped candidate.  Counts coming out of here share no code path with
the permutation-side machinery: `oracles` imports only `boundary` from the
package.

`walk` streams the validated shapes and keeps none of them: the counts in
`counting` and `verify` fold over it, and `enumerate <class> --list` keeps only
the (pi1, word) rows it prints.  The oracle is exhaustive over the box and
takes no bound: its one caller, `counting.geo_walk`, checks the size against
`counting.ORACLE_BOUND`.  The convex walk is the one source of every
geometric class: directed, parallelogram and symmetric permutominoes are the
convex shapes whose class flag (`boundary.classify`) is set, so callers walk a
size once and filter it.
"""
from __future__ import annotations

from typing import Iterator, Sequence

from .boundary import EMPTY, Permutomino, from_boundary_word


def _stack_word(bottoms: Sequence[int], tops: Sequence[int]) -> str:
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


def _interval_stacks(n: int, convex: bool) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield (bottoms, tops) for each interval stack over the (n-1)x(n-1) box
    that is a permutomino; bottoms[j] and tops[j] are the ordinates of the
    bottom and top edges of column j + 1 (its cells are bottoms[j]..tops[j]-1).

    Junction rule: a permutomino has exactly one vertical side at each
    interior abscissa, so from one column to the next either the bottom stays
    and the top moves, or the top stays and the bottom moves; the columns
    then overlap.  Ordinate rule: an edge may not start a second side at an
    ordinate.  The only sides that end at abscissa x - 1, where column x
    starts, are the previous column's bottom and top, and neither is ever a
    moved edge, so a moved edge is allowed iff its ordinate has no side yet:
    the state is the columns so far, the two trend flags and `used`, the set
    of ordinates with a side as a bitmask.  A complete stack has a side at
    every ordinate 1..n without a check: the first column adds two distinct
    ordinates and each of the other n - 2 a new one.  With convex=True, tops
    must rise then fall and bottoms fall then rise.
    """

    def extend(bottoms, tops, tops_fell, bottoms_rose, used):
        if len(bottoms) == n - 1:
            yield bottoms, tops
            return
        prev_bottom, prev_top = bottoms[-1], tops[-1]
        # the bottom stays (its side goes on), the top moves
        for top in range(prev_bottom + 1, n + 1):
            if not (used >> top & 1 or convex and tops_fell and top > prev_top):
                yield from extend(bottoms + (prev_bottom,), tops + (top,),
                                  tops_fell or top < prev_top, bottoms_rose, used | 1 << top)
        # the top stays, the bottom moves
        for bottom in range(1, prev_top):
            if not (used >> bottom & 1 or convex and bottoms_rose and bottom < prev_bottom):
                yield from extend(bottoms + (bottom,), tops + (prev_top,),
                                  tops_fell, bottoms_rose or bottom > prev_bottom, used | 1 << bottom)

    for bottom in range(1, n):
        for top in range(bottom + 1, n + 1):
            yield from extend((bottom,), (top,), False, False, 1 << bottom | 1 << top)


def walk(n: int, convex: bool = True) -> Iterator[Permutomino]:
    """The convex (or, with convex=False, column-convex) permutominoes of size
    n, one at a time in stack order, each validated as it is built.

    The size is checked here, before any stack is walked.
    """
    if n < 1:
        raise ValueError("size must be at least 1")
    if n == 1:
        return iter([EMPTY])
    return (from_boundary_word(_stack_word(bottoms, tops))
            for bottoms, tops in _interval_stacks(n, convex))
