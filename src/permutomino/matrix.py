"""Corner matrices: the reentrant corners of a convex permutomino as a labeled
permutation matrix, and back.

The reentrant corners of a convex permutomino of size n, typed alpha, beta,
gamma, delta by their boundary factors (see permutomino.boundary), form a
permutation matrix on {2..n-1} in these four symbols.  `reentrant_matrix`
reads the matrix off a shape; `validate_matrix` checks the conditions under
which a labeled matrix is such a matrix; `permutomino_from_matrix` threads a
valid matrix back into the unique shape it comes from.  No command-line path
runs this route, so only its callers load this module.
"""
from __future__ import annotations

from operator import index
from typing import NamedTuple

from .boundary import ALPHA, GAMMA, LABELS, Permutomino, corner_word, from_boundary_word
from .errors import InvalidMatrix, NotConvex


class LabeledMatrix(NamedTuple):
    """Reentrant points of a convex permutomino as a labeled permutation matrix.

    ``points`` is a frozenset of (x, y, label) with label in alpha/beta/gamma/
    delta; a matrix for size n lives on {2..n-1} x {2..n-1} and has dim = n-2.
    """

    dim: int
    points: frozenset[tuple[int, int, str]]

    def by_label(self, label: str) -> list[tuple[int, int]]:
        return sorted((x, y) for x, y, lab in self.points if lab == label)


def reentrant_matrix(p: Permutomino) -> LabeledMatrix:
    """Labeled reentrant-point matrix of a convex permutomino (dim = size - 2)."""
    if p.word is None:
        raise ValueError("the empty permutomino has no corner matrix")
    if not p.is_convex:
        raise NotConvex(f"permutomino with boundary {p.word!r} is not convex")
    points = frozenset((x, y, label) for (x, y), label in p.reentrant)
    return LabeledMatrix(p.size - 2, points)


def validate_matrix(matrix: LabeledMatrix, size: int) -> None:
    """Check every validity condition, raising InvalidMatrix naming the first violated.

    Conditions: (x, y, label) triples with integer coordinates on {2..size-1}
    forming a permutation matrix; corner-order inequalities between the four
    label classes; strictly monotone ordinates within each label class; and
    alpha on or above y=x, beta on or above x+y=size+1.  Those put gamma on
    or below y=x: a permutation matrix has as many points with x <= t < y as
    with y <= t < x, and at t = xc a gamma with yc > xc is one of the first
    while no point is one of the second (betas lie above it, deltas left of
    it, later gammas above it, and an alpha with x > t has y > t).  Likewise
    delta on or below x+y=size+1: as many points have x <= t, y <= size-t as
    x > t, y > size-t, at t = size+1-yd a delta with xd + yd > size+1 is one
    of the second, and no point is one of the first (alphas and earlier
    deltas lie above it, gammas right of it, and a beta with x <= t has
    y >= yd).  The four bounds exclude crossing paths: an alpha right of a
    gamma lies above it (ya >= xa > xc >= yc), and a beta left of a delta
    lies above it (xb + yb >= size+1 >= xd + yd).
    """
    if size < 2:
        raise InvalidMatrix("size", f"size {size} < 2")
    if matrix.dim != size - 2 or len(matrix.points) != size - 2:
        raise InvalidMatrix("dimension", f"want {size - 2} points, got {len(matrix.points)}")
    coords = range(2, size)
    for point in matrix.points:
        if not (isinstance(point, tuple) and len(point) == 3):
            raise InvalidMatrix("point", f"{point!r} is not an (x, y, label) triple")
        x, y, lab = point
        if lab not in LABELS:
            raise InvalidMatrix("label", f"unknown label {lab!r}")
        try:
            inside = index(x) in coords and index(y) in coords
        except TypeError:  # not an integer, such as 2.0
            inside = False
        if not inside:
            raise InvalidMatrix("range", f"point ({x},{y}) outside {{2..{size - 1}}}")
    if len({x for x, _, _ in matrix.points}) != len(matrix.points) or len(
        {y for _, y, _ in matrix.points}
    ) != len(matrix.points):
        raise InvalidMatrix("permutation-matrix", "repeated abscissa or ordinate")

    alphas, betas, gammas, deltas = map(matrix.by_label, LABELS)

    for xa, ya in alphas:
        for xb, yb in betas:
            if not xa < xb:
                raise InvalidMatrix("corner-order", f"alpha ({xa},{ya}) not left of beta ({xb},{yb})")
        for xd, yd in deltas:
            if not ya > yd:
                raise InvalidMatrix("corner-order", f"alpha ({xa},{ya}) not above delta ({xd},{yd})")
    for xd, yd in deltas:
        for xc, yc in gammas:
            if not xd < xc:
                raise InvalidMatrix("corner-order", f"delta ({xd},{yd}) not left of gamma ({xc},{yc})")
    for xb, yb in betas:
        for xc, yc in gammas:
            if not yb > yc:
                raise InvalidMatrix("corner-order", f"beta ({xb},{yb}) not above gamma ({xc},{yc})")

    # the ordinates are distinct, so sorted means strictly monotone
    for lab, pts in zip(LABELS, (alphas, betas, gammas, deltas)):
        increasing = lab in (ALPHA, GAMMA)
        ys = [y for _, y in pts]
        if ys != sorted(ys, reverse=not increasing):
            raise InvalidMatrix("monotone-ordinates", f"{lab} ordinates not strictly "
                                f"{'increasing' if increasing else 'decreasing'}")

    for x, y in alphas:
        if y < x:
            raise InvalidMatrix("diagonal", f"alpha ({x},{y}) below y=x")
    for x, y in betas:
        if x + y < size + 1:
            raise InvalidMatrix("diagonal", f"beta ({x},{y}) below x+y={size + 1}")


def permutomino_from_matrix(matrix: LabeledMatrix, size: int) -> Permutomino:
    """The unique convex permutomino whose labeled reentrant points equal the matrix.

    Inverse of :func:`reentrant_matrix`: the matrix is validated, its label
    classes, in LABELS order, are threaded by :func:`corner_word`, the one
    builder of convex boundary words (fibers feed it their own chains), and
    the word is validated and read back.
    """
    validate_matrix(matrix, size)
    word = corner_word(*map(matrix.by_label, LABELS), size)
    try:
        result = from_boundary_word(word)
    except Exception as exc:  # conditions above should make this unreachable
        raise InvalidMatrix("reconstruction", str(exc)) from exc
    if result.size != size or reentrant_matrix(result) != matrix:
        raise InvalidMatrix("reconstruction", "rebuilt boundary does not reproduce the matrix")
    return result
