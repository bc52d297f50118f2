"""Exception hierarchy shared across the package."""


class PermutominoError(Exception):
    """Base class for every error raised by this package."""


class NotClosed(PermutominoError):
    """Boundary word does not return to its starting point."""


class SelfIntersecting(PermutominoError):
    """Boundary word revisits a lattice point before closing."""


class NotPermutomino(PermutominoError):
    """Closed simple boundary whose polyomino violates the one-side-per-coordinate property.

    Carries the offending axis ('x' or 'y'), the coordinate, and the number of
    maximal sides found there (0 or >= 2).
    """

    def __init__(self, axis, coordinate, count):
        self.axis = axis
        self.coordinate = coordinate
        self.count = count
        super().__init__(
            f"{count} maximal {'vertical' if axis == 'x' else 'horizontal'} side(s) "
            f"at {axis}={coordinate} (want exactly 1)"
        )


class NotConvex(PermutominoError):
    """Operation defined only for convex permutominoes got a non-convex one."""


class InvalidMatrix(PermutominoError):
    """Labeled corner matrix violates one of the validity conditions."""

    def __init__(self, condition, detail=""):
        self.condition = condition
        super().__init__(f"invalid corner matrix ({condition})" + (f": {detail}" if detail else ""))


class NotAssociated(PermutominoError):
    """Permutation is not the odd-vertex permutation of any convex permutomino."""


class NotSquare(PermutominoError):
    """Permutation whose lower envelope is not unimodal where a square one is required."""


class Indecomposable(PermutominoError):
    """Permutation has a single component where a decomposable one is required."""


class InvalidSequence(PermutominoError):
    """Permutomino sequence violates a class or size constraint."""

    def __init__(self, constraint):
        self.constraint = constraint
        super().__init__(f"invalid permutomino sequence: {constraint}")


class SizeTooLarge(PermutominoError):
    """Requested size exceeds the configured bound of an exhaustive enumerator."""


def check_size(n: int, bound: int, what: str) -> None:
    """The one size policy of the counts and listings: a size below 1 is a
    ValueError, one above bound a SizeTooLarge that names what is bounded
    (what is its subject and verb, e.g. "counts are")."""
    if n < 1:
        raise ValueError("size must be at least 1")
    if n > bound:
        raise SizeTooLarge(f"{what} bounded at size {bound}, got {n}")


class OutputError(PermutominoError):
    """An output file cannot be written."""


class ParseError(PermutominoError):
    """Malformed textual permutation; carries the 1-based token position at fault."""

    def __init__(self, message, position=None):
        self.position = position
        super().__init__(message if position is None else f"{message} (token {position})")
