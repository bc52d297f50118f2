"""Geometric side: boundary words, permutomino validation, class flags, reflections.

A permutomino of size n is a polyomino without holes, bounding box [1,n]x[1,n],
whose boundary has exactly one maximal vertical side per abscissa 1..n and one
maximal horizontal side per ordinate 1..n.  Its 2n corners, read clockwise from
the lowest leftmost one, alternate between two permutations pi1 (odd corners)
and pi2 (even corners) of size n.

Boundary words are strings over N/E/S/W, starting at the leftmost point of
minimal ordinate and proceeding clockwise, so the first letter is always N and
the interior stays on the right of the walk.  Reentrant (concave) corners are
typed by their two-letter factor: EN -> alpha, SE -> beta, WS -> gamma,
NW -> delta; the reentrant corners of a convex permutomino of size n form a
permutation matrix on {2..n-1} in these four symbols (permutomino.matrix), and
`corner_word` threads such corners back into the boundary word.

The boundary word is the only shape representation reasoned with here.  It is
validated in one walk that also finds its corners, and a permutomino holds
what that walk found: its size, its word and its corners.  Shapes are built
only by `from_boundary_word`, or are `EMPTY`.  pi1, pi2 and the class flags are
read off the corners and the word, and a reflection maps the word letter by
letter.  The lattice path and the cell set are traced only to draw a shape.

The size-1 permutomino is the empty one, `EMPTY`: no boundary, no corners, no
path, no cells, and pi1 = pi2 = (1) by convention.
"""
from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import accumulate, compress
from operator import ne
from typing import Sequence

from .errors import NotClosed, NotPermutomino, SelfIntersecting

ALPHA, BETA, GAMMA, DELTA = "alpha", "beta", "gamma", "delta"
LABELS = (ALPHA, BETA, GAMMA, DELTA)

# two-letter boundary factors (arrive, depart) at a corner
_SALIENT_FACTORS = {("N", "E"), ("E", "S"), ("S", "W"), ("W", "N")}
_REENTRANT_LABEL = {("E", "N"): ALPHA, ("S", "E"): BETA, ("W", "S"): GAMMA, ("N", "W"): DELTA}
# letter maps of the reflections, applied to the reversed word: a reflection
# turns a clockwise walk counterclockwise, so the walk is also run backwards
_MIRROR_Y = str.maketrans("NS", "SN")
_MIRROR_X = str.maketrans("EW", "WE")
_TRANSPOSE = str.maketrans("NESW", "WSEN")
_DROP_VERTICAL = str.maketrans("", "", "NS")
_DROP_HORIZONTAL = str.maketrans("", "", "EW")
# the unit step (dx, dy) of each letter
_STEP = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}


def _walk(word: str) -> list[int]:
    """The points the word reaches after each of its letters, starting from the
    origin, each point (x, y) coded as y * (2L + 1) + x for a word of length L.

    Every |x| <= L, so distinct points get distinct codes, the origin is 0, and
    the codes order the points by (y, x).
    """
    width = 2 * len(word) + 1
    steps = {"N": width, "E": 1, "S": -width, "W": -1}
    try:
        return list(accumulate(map(steps.__getitem__, word)))
    except KeyError:
        i = next(i for i, letter in enumerate(word) if letter not in steps)
        raise ValueError(f"boundary letter {word[i]!r} at index {i} (want N/E/S/W)") from None


def _point(code: int, length: int) -> tuple[int, int]:
    """The point (x, y) that _walk codes as code for a word of that length."""
    y, x = divmod(code + length, 2 * length + 1)
    return x - length, y


def _start_at_lowest_leftmost(word: str) -> str:
    """The rotation of a closed simple word that starts at its lowest leftmost
    point (the reflections map a word to one that starts elsewhere)."""
    codes = _walk(word)
    start = codes.index(min(codes)) + 1  # codes[i] is the point after letter i
    return word[start:] + word[:start]


def _cells_from_path(points: Sequence[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Cells enclosed by a simple closed rectilinear path (parity fill by row)."""
    vertical = defaultdict(set)  # abscissa -> cell rows covered by a vertical edge
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        if x1 == x2:
            vertical[x1].add(min(y1, y2))
    xs = range(min(vertical), max(vertical))  # cell abscissas
    rows = {y for ys in vertical.values() for y in ys}
    cells = set()
    for y in rows:
        inside = False
        for x in xs:
            if y in vertical[x]:
                inside = not inside
            if inside:
                cells.add((x, y))
    return frozenset(cells)


class _lazy(cached_property):
    """A field computed on its first read and stored in the instance's
    __dict__, where later reads find it.  Unlike cached_property in Python
    3.11 it takes no lock on that read: two threads may both compute a
    field, and both get the same value.  It is still a cached_property to
    code that looks for one, such as the benchmark's tracer, which wraps
    each lazy field."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class Permutomino:
    """A validated permutomino: its size, its boundary word and its corners,
    (point, arrive-letter, depart-letter) clockwise from the lowest leftmost.

    :func:`from_boundary_word` builds every shape but ``EMPTY``, the size-1
    empty permutomino, whose word is None and whose fields are all set.  The
    rest (pi1/pi2, vertices, class flags) is read off the corners lazily, and
    the path and the cells, which only drawing reads, are traced lazily.
    Read-only; equal, and hashed alike, when the sizes and the words are equal.
    """

    def __init__(self, size: int, word: str | None,
                 corners: tuple[tuple[tuple[int, int], str, str], ...]):
        fields = self.__dict__
        fields["size"] = size
        fields["word"] = word
        fields["corners"] = corners

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.size == other.size and self.word == other.word

    def __hash__(self) -> int:
        return hash((self.size, self.word))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @_lazy
    def path(self) -> tuple[tuple[int, int], ...]:
        """Lattice points of the boundary walk, in the (1,1)-anchored frame."""
        length = len(self.word)
        width = 2 * length + 1
        # each point decoded as _point decodes it, (y, x + L), then shifted
        coded = [divmod(code + length, width) for code in (0, *_walk(self.word))]
        dx = 1 - min([x for _, x in coded])
        dy = 1 - min([y for y, _ in coded])
        return tuple([(x + dx, y + dy) for y, x in coded])

    @_lazy
    def cells(self) -> frozenset[tuple[int, int]]:
        return _cells_from_path(self.path)

    @_lazy
    def vertices(self) -> tuple[tuple[int, int], ...]:
        return tuple([point for point, _, _ in self.corners])

    @_lazy
    def salient(self) -> tuple[tuple[int, int], ...]:
        return tuple([pt for pt, a, d in self.corners if (a, d) in _SALIENT_FACTORS])

    @_lazy
    def reentrant(self) -> tuple[tuple[tuple[int, int], str], ...]:
        return tuple([(pt, _REENTRANT_LABEL[a, d]) for pt, a, d in self.corners
                      if (a, d) in _REENTRANT_LABEL])

    # validation checked that the even corners' abscissas are 1..n, and each
    # odd corner ends the vertical side that the even corner before it starts,
    # so either half, sorted, holds one ordinate per abscissa 1..n in order
    @_lazy
    def pi1(self) -> tuple[int, ...]:
        return tuple([y for _, y in sorted(self.vertices[0::2])])

    @_lazy
    def pi2(self) -> tuple[int, ...]:
        return tuple([y for _, y in sorted(self.vertices[1::2])])

    @_lazy
    def flags(self) -> dict[str, bool]:
        return classify(self)

    @property
    def is_convex(self) -> bool:
        return self.flags["convex"]

    def sort_key(self):
        return (self.pi1, self.word or "")

    def __repr__(self) -> str:
        return f"Permutomino(size={self.size}, word={self.word!r})"


EMPTY = Permutomino(1, None, ())
EMPTY.__dict__.update(path=(), cells=frozenset(), pi1=(1,), pi2=(1,))


def from_boundary_word(word: str) -> Permutomino:
    """Validate a boundary word and build the permutomino it encodes, in one
    walk of the word (`_walk`), which also gives the corners.

    Raises ValueError for a letter outside N/E/S/W, NotClosed, SelfIntersecting,
    ValueError unless the word starts at its lowest leftmost point heading N,
    and NotPermutomino for the first abscissa 1..n, then ordinate 1..n, without
    exactly one maximal side.  With the points coded as `_walk` codes them, the
    word is closed iff its last point is 0, simple iff its L points are
    distinct, and starts at its lowest leftmost point iff their minimum is 0.
    The cells are not rebuilt: such a word traces a clockwise simple polygon,
    whose interior has no hole and walks back to the word itself (NS, which
    encloses nothing, is NotClosed).  One maximal side starts at each corner
    and a simple path neither splits nor joins sides, so the sides are counted
    at the corners.  The result holds the corners; its path is traced only
    if it is drawn.
    """
    if not word:
        raise ValueError("empty boundary word (the size-1 permutomino has none)")
    length = len(word)
    codes = _walk(word)
    if codes[-1]:
        raise NotClosed(f"path ends at {_point(codes[-1], length)}, not back at the start")
    if len(set(codes)) != length:
        seen = {0}
        for code in codes:
            if code in seen:
                raise SelfIntersecting(f"boundary revisits {_point(code, length)}")
            seen.add(code)
    if word[0] != "N" or min(codes) < 0:
        raise ValueError("word must start at the lowest leftmost point and head N (clockwise)")
    if length < 4:
        raise NotClosed("degenerate path encloses no cells")

    arrive = word[-1] + word[:-1]  # the letter before each letter, cyclically
    turns = list(compress(range(length), map(ne, arrive, word)))
    # the corner at turn i is the point reached before letter i (the start for
    # i = 0, coded codes[-1] = 0), decoded as (y, x + L); the start is the
    # lowest point, so only the abscissas shift
    width = 2 * length + 1
    coded = [divmod(codes[i - 1] + length, width) for i in turns]
    shift = 1 - min([x for _, x in coded])
    points = [(x + shift, y + 1) for y, x in coded]
    # a simple path turns at every corner, so vertical sides start at the even
    # corners (the first heads N) and horizontal ones at the odd corners
    for axis, starts in (("x", [x for x, _ in points[0::2]]), ("y", [y for _, y in points[1::2]])):
        if sorted(starts) != list(range(1, len(starts) + 1)):
            for c in range(1, max(starts) + 1):
                if starts.count(c) != 1:
                    raise NotPermutomino(axis, c, starts.count(c))
    # sides alternate around the loop, so both axes give the size once they
    # pass; the corners go through a list, because tuple() of a zip starts at
    # 10 slots and resizes, and each resized tuple then parks in the free list
    # of its final size (~2,000 of them, ~0.3 MB over a size-7 listing)
    return Permutomino(len(turns) // 2, word, tuple([
        *zip(points, map(arrive.__getitem__, turns), map(word.__getitem__, turns))]))


def classify(p: Permutomino) -> dict[str, bool]:
    """Class flags read off the boundary word and corners of a size-n permutomino.

    column_convex: each cell column is crossed by two horizontal edges, so the
    abscissa is cyclically unimodal and, as the walk starts at its lowest
    leftmost point, the E/W letters read W*E*W*; row_convex: likewise, the
    N/S letters read N*S*.  directed: convex, and the walk starts at (1, 1).
    parallelogram: directed, and (n, n) is a corner (a path through the top
    right corner of the box turns there).  symmetric_xy: the transposed word
    (reversed, NESW -> WSEN) is a rotation of the word, so the transposed
    shape is the shape moved within the same box, that is, the shape.  The
    empty permutomino gets every flag.
    """
    if p.word is None:
        return {
            "column_convex": True, "row_convex": True, "convex": True,
            "directed": True, "parallelogram": True, "symmetric_xy": True,
        }
    n = p.size
    word = p.word
    vertices = p.vertices
    column_convex = "W" not in word.translate(_DROP_VERTICAL).strip("W")
    row_convex = "N" not in word.translate(_DROP_HORIZONTAL).lstrip("N")
    convex = column_convex and row_convex
    directed = convex and vertices[0] == (1, 1)
    parallelogram = directed and (n, n) in vertices
    symmetric_xy = word[::-1].translate(_TRANSPOSE) in word + word
    return {
        "column_convex": column_convex,
        "row_convex": row_convex,
        "convex": convex,
        "directed": directed,
        "parallelogram": parallelogram,
        "symmetric_xy": symmetric_xy,
    }


def _staircase(start, chain, end, first: str, second: str) -> str:
    """The path from start through the chain's points to end, each step by
    `first` letters, then by `second` letters (none for a negative count)."""
    (fx, fy), (sx, sy) = _STEP[first], _STEP[second]
    word = ""
    x0, y0 = start
    for x1, y1 in (*chain, end):
        word += first * ((x1 - x0) * fx + (y1 - y0) * fy) + second * ((x1 - x0) * sx + (y1 - y0) * sy)
        x0, y0 = x1, y1
    return word


def corner_word(alphas, betas, gammas, deltas, n: int) -> str:
    """The boundary word of the convex permutomino of size n with these
    reentrant points, each list of (x, y) sorted by abscissa.

    One staircase rule threads four chains between the special corners: from
    D, the lowest leftmost point, west then north through the deltas (right to
    left) to A, north then east through the alphas to B, east then south
    through the betas to C, south then west through the gammas (right to left)
    back to D.  The special corners are pinned by the points (B sits on top of
    the leftmost beta column, A at the height of the leftmost delta, and so
    on, degenerating to (1,1) / (n,n) when a chain is empty).  Nothing is
    validated here.
    """
    corner_a = (1, deltas[0][1]) if deltas else (1, 1)
    corner_d = (deltas[-1][0], 1) if deltas else (1, 1)
    corner_b = (betas[0][0], n) if betas else (n, n)
    corner_c = (n, betas[-1][1]) if betas else (n, n)
    return (_staircase(corner_d, deltas[::-1], corner_a, "W", "N")
            + _staircase(corner_a, alphas, corner_b, "N", "E")
            + _staircase(corner_b, betas, corner_c, "E", "S")
            + _staircase(corner_c, gammas[::-1], corner_d, "S", "W"))


def _reflect(p: Permutomino, letters: dict[int, int]) -> Permutomino:
    if p.word is None:
        return p
    return from_boundary_word(_start_at_lowest_leftmost(p.word[::-1].translate(letters)))


def reflect_y(p: Permutomino) -> Permutomino:
    """Mirror image across the vertical axis of the bounding box (N<->S on the reversed word)."""
    return _reflect(p, _MIRROR_Y)


def reflect_x(p: Permutomino) -> Permutomino:
    """Mirror image across the horizontal axis of the bounding box (E<->W on the reversed word)."""
    return _reflect(p, _MIRROR_X)


def transpose(p: Permutomino) -> Permutomino:
    """Reflection across the diagonal x=y (NESW -> WSEN on the reversed word)."""
    return _reflect(p, _TRANSPOSE)
