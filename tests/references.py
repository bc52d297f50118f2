"""Reference code that only the tests call.

Each function here is a second route to something the library computes, or a
parser that reads library output back: the cell-side walk, validator (with its
own lattice tracer), class flags and reflections that the boundary path
replaced, the path-side corner tracer that validation's corners replaced, the
interval-stack generator and rotated stack word that the oracle's recursion
replaced, the value-level square-permutation search that
the generator's moves replaced, the oracle's walk sorted into one list per
size, the upper-unimodal test that every upper envelope passes, the square
test and the split points read off records and prefix minima, the lower
envelope and the free fixed points read off maxima, the composition sum
behind the sequence counts T_{n,k}, the ASCII and SVG cell parsers, the
closed forms looked up by name, and the Fraction evaluations of the closed
forms that the integer ones replaced.
"""
import re
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate
from math import comb

from permutomino import boundary, formulas, oracles
from permutomino.boundary import Permutomino, from_boundary_word
from permutomino.errors import NotClosed, NotPermutomino, SelfIntersecting
from permutomino.formulas import NonIntegerResult, OutOfRange


def word_from_cells(cells: frozenset[tuple[int, int]]) -> str:
    """Serialize a hole-free cell set to its clockwise boundary word.

    The walk keeps the interior on its right and starts at the lowest leftmost
    boundary point, so the first letter is N.  Raises ValueError if the cells do
    not bound a single simple curve (disconnected set or interior hole).
    """
    if not cells:
        raise ValueError("empty cell set has no boundary")
    outgoing: dict[tuple[int, int], dict[str, tuple[int, int]]] = defaultdict(dict)
    for (x, y) in cells:
        if (x - 1, y) not in cells:
            outgoing[(x, y)]["N"] = (x, y + 1)
        if (x, y + 1) not in cells:
            outgoing[(x, y + 1)]["E"] = (x + 1, y + 1)
        if (x + 1, y) not in cells:
            outgoing[(x + 1, y + 1)]["S"] = (x + 1, y)
        if (x, y - 1) not in cells:
            outgoing[(x + 1, y)]["W"] = (x, y)
    total_edges = sum(len(d) for d in outgoing.values())
    start = min(outgoing, key=lambda pt: (pt[1], pt[0]))
    # right-turn preference keeps the walk on the outer boundary at pinch points
    prefer = {
        "N": "ENW", "E": "SEN", "S": "WSE", "W": "NWS",
    }
    letters = []
    point = start
    heading = "N"
    while True:
        choices = outgoing[point]
        for letter in prefer[heading]:
            if letter in choices:
                break
        else:
            raise ValueError("boundary walk stuck; cells do not bound a simple curve")
        point = choices.pop(letter)
        letters.append(letter)
        heading = letter
        if point == start:
            break
    if len(letters) != total_edges:
        raise ValueError("cells are disconnected or enclose a hole")
    return "".join(letters)


STEPS = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}


def traced_points(word):
    """Lattice points the word visits from (0, 0), len(word) + 1 of them."""
    x = y = 0
    points = [(0, 0)]
    for i, letter in enumerate(word):
        if letter not in STEPS:
            raise ValueError(f"boundary letter {letter!r} at index {i} (want N/E/S/W)")
        dx, dy = STEPS[letter]
        x, y = x + dx, y + dy
        points.append((x, y))
    return points


def anchored_points(word):
    """The points of `traced_points`, moved into the (1,1)-anchored frame."""
    points = traced_points(word)
    dx = 1 - min(x for x, _ in points)
    dy = 1 - min(y for _, y in points)
    return [(x + dx, y + dy) for x, y in points]


def traced_corners(word):
    """Corners of the word's anchored path as (point, arrive, depart), in path
    order; none for the empty word."""
    return tuple((point, word[i - 1], word[i]) for i, point in enumerate(anchored_points(word)[:-1])
                 if word[i - 1] != word[i])


def _runs(values):
    """Number of maximal runs of consecutive integers."""
    ordered = sorted(values)
    if not ordered:
        return 0
    return 1 + sum(1 for a, b in zip(ordered, ordered[1:]) if b != a + 1)


def reference_size(word):
    """Size of the permutomino a word encodes, by the validator that fills the
    cells, checks the word against them and counts sides as runs of edges."""
    points = traced_points(word)
    if points[-1] != points[0]:
        raise NotClosed(f"path ends at {points[-1]}, not back at the start")
    interior_points = points[:-1]
    if len(set(interior_points)) != len(interior_points):
        seen = set()
        for pt in interior_points:
            if pt in seen:
                raise SelfIntersecting(f"boundary revisits {pt}")
            seen.add(pt)
    if word[0] != "N" or min(interior_points, key=lambda p: (p[1], p[0])) != points[0]:
        raise ValueError("word must start at the lowest leftmost point and head N (clockwise)")
    min_x = min(x for x, _ in points)
    min_y = min(y for _, y in points)
    points = [(x - min_x + 1, y - min_y + 1) for x, y in points]
    cells = boundary._cells_from_path(points)
    if not cells:
        raise NotClosed("degenerate path encloses no cells")
    if word_from_cells(cells) != word:
        raise ValueError("word is not the clockwise boundary of its own interior")
    vertical, horizontal = {}, {}
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        if x1 == x2:
            vertical.setdefault(x1, set()).add(min(y1, y2))
        else:
            horizontal.setdefault(y1, set()).add(min(x1, x2))
    for axis, edges in (("x", vertical), ("y", horizontal)):
        for c in range(1, max(edges) + 1):
            count = _runs(edges.get(c, ()))
            if count != 1:
                raise NotPermutomino(axis, c, count)
    return max(vertical)


def cell_flags(cells):
    """Class flags by their cell-set definitions: runs per column and row,
    N/E reachability from the lowest leftmost cell, monotone column ends, and
    equality with the transposed cells."""
    columns, rows = defaultdict(list), defaultdict(list)
    for x, y in cells:
        columns[x].append(y)
        rows[y].append(x)
    column_convex = all(max(v) - min(v) + 1 == len(v) for v in columns.values())
    row_convex = all(max(v) - min(v) + 1 == len(v) for v in rows.values())
    convex = column_convex and row_convex
    directed = False
    if convex:
        root = min(cells, key=lambda c: (c[1], c[0]))
        seen, frontier = {root}, [root]
        while frontier:
            x, y = frontier.pop()
            for nxt in ((x + 1, y), (x, y + 1)):
                if nxt in cells and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        directed = len(seen) == len(cells)
    parallelogram = False
    if directed:
        xs = sorted(columns)
        bottoms = [min(columns[x]) for x in xs]
        tops = [max(columns[x]) for x in xs]
        parallelogram = bottoms == sorted(bottoms) and tops == sorted(tops)
    return {
        "column_convex": column_convex, "row_convex": row_convex, "convex": convex,
        "directed": directed, "parallelogram": parallelogram,
        "symmetric_xy": cells == {(y, x) for x, y in cells},
    }


def cell_reflections(cells, size):
    """reflect_y, reflect_x and transpose by mapping the cells of the box and
    walking the image back to its word."""
    images = (
        {(size - x, y) for x, y in cells},
        {(x, size - y) for x, y in cells},
        {(y, x) for x, y in cells},
    )
    return tuple(from_boundary_word(word_from_cells(frozenset(image))) for image in images)


def _steps(a: int, b: int) -> str:
    return "N" * (b - a) + "S" * (a - b)


def rotated_stack_word(intervals: list[tuple[int, int]]) -> str:
    """Clockwise boundary word of a stack of cell intervals (lo, hi): up the
    left side, along the tops, down the right side and back along the
    bottoms, then rotated to start at its lowest leftmost point."""
    bottoms = [lo for lo, _ in intervals]
    tops = [hi + 1 for _, hi in intervals]
    return boundary._start_at_lowest_leftmost(
        _steps(bottoms[0], tops[0])
        + "".join("E" + _steps(a, b) for a, b in zip(tops, tops[1:])) + "E"
        + _steps(tops[-1], bottoms[-1])
        + "".join("W" + _steps(a, b) for a, b in zip(bottoms[::-1], bottoms[-2::-1])) + "W"
    )


def generated_interval_stacks(n: int, convex: bool):
    """Yield the stacks of cell intervals (lo, hi) over the (n-1)x(n-1) box
    that are permutominoes, trying every interval at every column.

    Adjacent intervals overlap and exactly one of bottom/top changes between
    them; an edge at an ordinate must continue the side that ends at the
    column before, if there is one; a full stack has a side at every ordinate
    1..n; with convex=True, tops rise then fall and bottoms fall then rise.
    """
    side = n - 1
    stack: list[tuple[int, int]] = []
    last_edge = [0] * (n + 1)  # ordinate -> abscissa of its latest horizontal edge

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
                new_tops_fell = new_bottoms_rose = False
                if stack:
                    plo, phi = stack[-1]
                    if lo > phi or hi < plo or (lo != plo) == (hi != phi):
                        continue
                    if convex:
                        if (tops_fell and hi > phi) or (bottoms_rose and lo < plo):
                            continue
                        new_tops_fell = tops_fell or hi < phi
                        new_bottoms_rose = bottoms_rose or lo > plo
                saved = last_edge[lo], last_edge[hi + 1]
                last_edge[lo] = last_edge[hi + 1] = x
                stack.append((lo, hi))
                yield from extend(x + 1, new_tops_fell, new_bottoms_rose)
                stack.pop()
                last_edge[lo], last_edge[hi + 1] = saved

    yield from extend(1, False, False)


def sorted_walk(n: int, convex: bool = True):
    """The oracle's convex (or, with convex=False, column-convex) shapes of
    size n as one list, sorted by (pi1, boundary word) like the listings."""
    return sorted(oracles.walk(n, convex), key=Permutomino.sort_key)


def reference_square_permutations(n: int):
    """Yield the square permutations of size n in lexicographic order, by a
    depth-first search on values.

    A value may extend a prefix iff it is a new maximum, a new minimum, or an
    end of the gap of unused values between the prefix's minimum and maximum
    that is also the smallest or largest unused value.  The library's
    generator walks the same moves as offsets on abstract states instead.
    """
    # a node is (prefix, its minimum, its maximum, the unused values between them)
    todo = [((f,), f, f, ()) for f in range(n, 0, -1)]
    while todo:
        prefix, lo, hi, gap = todo.pop()
        if len(prefix) == n:
            yield prefix
            continue
        # children go on the stack largest first, so they come off in increasing order
        for v in range(n, hi, -1):  # a new maximum
            todo.append((prefix + (v,), lo, v, gap + tuple(range(hi + 1, v))))
        if gap:
            # a one-value gap is both the smallest and the largest, and is pushed once
            if hi == n and (lo > 1 or len(gap) > 1):
                todo.append((prefix + (gap[-1],), lo, hi, gap[:-1]))
            if lo == 1:
                todo.append((prefix + (gap[0],), lo, hi, gap[1:]))
        for v in range(lo - 1, 0, -1):  # a new minimum
            todo.append((prefix + (v,), v, hi, tuple(range(v + 1, lo)) + gap))


def is_upper_unimodal(values) -> bool:
    """True iff the (distinct) values strictly increase then strictly decrease:
    the shape every upper envelope has."""
    i = 0
    while i + 1 < len(values) and values[i] < values[i + 1]:
        i += 1
    while i + 1 < len(values) and values[i] > values[i + 1]:
        i += 1
    return i + 1 >= len(values)


def is_square_by_records(p) -> bool:
    """True iff every entry of p is a left-to-right or right-to-left maximum
    or minimum, the definition of a square permutation, in O(n)."""
    rising_min, rising_max = list(accumulate(p, min)), list(accumulate(p, max))
    falling_min = list(accumulate(reversed(p), min))[::-1]
    falling_max = list(accumulate(reversed(p), max))[::-1]
    return all(v in (rising_min[i], rising_max[i], falling_min[i], falling_max[i])
               for i, v in enumerate(p))


def prefix_minimum_splits(p) -> set[int]:
    """The r in 1..n-1 whose length-r prefix has minimum n - r + 1, that is,
    holds the top r values: the split points, from the prefix minima."""
    n = len(p)
    return {r for r, low in enumerate(accumulate(p, min), start=1) if r < n and low == n - r + 1}


def lower_envelope_by_definition(p) -> list[tuple[int, int]]:
    """The (position, value) pairs of the lower envelope, from its definition:
    both ends, and every entry that is neither a left-to-right nor a
    right-to-left maximum."""
    last = len(p) - 1
    return [(i + 1, v) for i, v in enumerate(p)
            if i in (0, last) or not (v == max(p[:i + 1]) or v == max(p[i:]))]


def free_fixed_points_by_definition(p) -> tuple[int, ...]:
    """The fixed points f, 1 < f < n, on the strictly increasing part of the
    upper envelope, that is, whose entry is a left-to-right maximum."""
    return tuple(f for f in range(2, len(p)) if p[f - 1] == f == max(p[:f]))


def composition_class_count(n: int, k: int, directed_counts, parallelogram_counts) -> int:
    """|T_{n,k}| by a sum over the compositions of n into k part sizes, ends
    directed, middles parallelogram, size-1 parts the empty permutomino."""

    def ways(size: int, middle: bool) -> int:
        if size == 1:
            return 1
        return parallelogram_counts[size] if middle else directed_counts[size]

    def compositions(n: int, k: int):
        if k == 1:
            if n >= 1:
                yield (n,)
            return
        for first in range(1, n - k + 2):
            for rest in compositions(n - first, k - 1):
                yield (first,) + rest

    total = 0
    for cut in compositions(n, k):
        acc = 1
        for i, s in enumerate(cut):
            acc *= ways(s, middle=(0 < i < k - 1))
        total += acc
    return total


def cells_from_ascii(text: str) -> frozenset[tuple[int, int]]:
    text = text.strip("\n")
    if text.strip() == "(empty)":
        return frozenset()
    lines = text.splitlines()
    height = len(lines)
    cells = set()
    for row, line in enumerate(lines):
        for col, ch in enumerate(line):
            if ch == "#":
                cells.add((col + 1, height - row))
            elif ch != ".":
                raise ValueError(f"unexpected character {ch!r} in ASCII grid")
    return frozenset(cells)


def cells_from_svg(text: str) -> frozenset[tuple[int, int]]:
    cells = set()
    for match in re.finditer(r'<rect class="cell" data-x="(\d+)" data-y="(\d+)"', text):
        cells.add((int(match.group(1)), int(match.group(2))))
    return frozenset(cells)


def closed_form(family: str, n: int) -> int:
    """Evaluate one closed form exactly; see formulas.FAMILIES for the names."""
    if family not in formulas.FAMILIES:
        raise KeyError(f"unknown family {family!r}; know {sorted(formulas.FAMILIES)}")
    return formulas.FAMILIES[family](n)


def _as_int(value: Fraction, family: str, n: int) -> int:
    if value.denominator != 1:
        raise NonIntegerResult(f"{family}({n}) = {value} is not an integer")
    return int(value)


def _fraction_catalan(n: int) -> int:
    if n < 0:
        raise OutOfRange("catalan needs n >= 0")
    return _as_int(Fraction(comb(2 * n, n), n + 1), "catalan", n)


def _fraction_convex(n: int) -> int:
    if n < 1:
        raise OutOfRange("size must be >= 1")
    if n == 1:
        return 1
    m = n - 1
    value = 2 * (m + 3) * Fraction(4) ** (m - 2) - Fraction(m, 2) * comb(2 * m, m)
    return _as_int(value, "convex", n)


def _fraction_ctilde(n: int) -> int:
    if n < 1:
        raise OutOfRange("size must be >= 1")
    if n == 1:
        return 1
    m = n - 1
    value = 2 * (m + 2) * Fraction(4) ** (m - 2) - Fraction(m, 4) * Fraction(
        3 - 4 * m, 1 - 2 * m
    ) * comb(2 * m, m)
    return _as_int(value, "ctilde", n)


def _fraction_square(n: int) -> int:
    if n < 1:
        raise OutOfRange("size must be >= 1")
    if n <= 2:
        return (1, 2)[n - 1]
    m = n - 1
    value = 2 * (m + 3) * Fraction(4) ** (m - 2) - 4 * (2 * m - 3) * comb(2 * (m - 2), m - 2)
    return _as_int(value, "square", n)


def _fraction_decomposable(n: int) -> int:
    if n < 1:
        raise OutOfRange("size must be >= 1")
    if n == 1:
        return 0
    m = n - 2
    return _as_int(Fraction(4**m + comb(2 * m, m), 2), "decomposable", n)


def _fraction_directed(n: int) -> int:
    if n < 1:
        raise OutOfRange("size must be >= 1")
    if n == 1:
        return 1
    return _as_int(Fraction(comb(2 * (n - 1), n - 1), 2), "directed", n)


def _fraction_parallelogram(n: int) -> int:
    if n < 1:
        raise OutOfRange("size must be >= 1")
    if n == 1:
        return 1
    return _fraction_catalan(n - 1)


def _fraction_symmetric(n: int) -> int:
    if n < 1:
        raise OutOfRange("size must be >= 1")
    if n <= 2:
        return 1
    m = n - 1
    value = (
        (m + 3) * Fraction(2) ** (m - 2)
        - m * comb(m - 1, (m - 1) // 2)
        - (m - 1) * comb(m - 2, (m - 2) // 2)
    )
    return _as_int(value, "symmetric", n)


def _fraction_asym_surplus(n: int) -> int:
    if n < 2:
        raise OutOfRange("the half-square count needs size >= 2")
    return _as_int(
        Fraction(_fraction_square(n), 2) - _fraction_decomposable(n), "asym-surplus", n
    )


def _fraction_half_diff_printed(n: int) -> int:
    if n < 2:
        raise OutOfRange("printed form needs size >= 2")
    m = n - 1
    value = (m + 1) * Fraction(4) ** (m - 2) - Fraction(m, 2) * comb(2 * m + 1, m - 1)
    return _as_int(value, "half-diff-printed", n)


def _fraction_intersection_printed(n: int) -> int:
    if n < 2:
        raise OutOfRange("printed form needs size >= 2")
    m = n - 1
    value = 2 * (m + 1) * Fraction(4) ** (m - 2) - comb(2 * m - 1, m - 1)
    return _as_int(value, "intersection-printed", n)


def _fraction_fixed_point_surplus(n: int) -> int:
    if n < 2:
        raise OutOfRange("size must be >= 2")
    m = n - 2
    return _as_int(Fraction(4**m - comb(2 * m, m), 2), "fixed-point-surplus", n)


# the closed forms with a division or a negative power, evaluated in Fraction
# arithmetic; formulas.FAMILIES holds the integer evaluations
FRACTION_FORMS = {
    "catalan": _fraction_catalan,
    "convex": _fraction_convex,
    "ctilde": _fraction_ctilde,
    "square": _fraction_square,
    "decomposable": _fraction_decomposable,
    "directed": _fraction_directed,
    "parallelogram": _fraction_parallelogram,
    "symmetric": _fraction_symmetric,
    "asym-surplus": _fraction_asym_surplus,
    "half-diff-printed": _fraction_half_diff_printed,
    "intersection-printed": _fraction_intersection_printed,
    "fixed-point-surplus": _fraction_fixed_point_surplus,
}
