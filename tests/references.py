"""Reference code that only the tests call.

Each function here is a second route to something the library computes, or a
parser that reads library output back: the cell-side walk, validator, class
flags and reflections that the boundary path replaced, the interval-stack
generator and rotated stack word that the oracle's recursion replaced, the
ASCII and SVG cell parsers, and the closed forms looked up by name.
"""
import re
from collections import defaultdict

from permutomino import boundary, formulas
from permutomino.boundary import from_boundary_word
from permutomino.errors import NotClosed, NotPermutomino, SelfIntersecting


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


def _runs(values):
    """Number of maximal runs of consecutive integers."""
    ordered = sorted(values)
    if not ordered:
        return 0
    return 1 + sum(1 for a, b in zip(ordered, ordered[1:]) if b != a + 1)


def reference_size(word):
    """Size of the permutomino a word encodes, by the validator that fills the
    cells, checks the word against them and counts sides as runs of edges."""
    points = boundary._trace(word)
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
