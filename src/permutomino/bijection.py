"""Decomposable square permutations vs sequences of permutominoes.

A square permutation splitting into k >= 2 indecomposable components
corresponds to exactly one sequence (P_1, ..., P_k) where P_1 and P_k are
directed convex permutominoes, the middle parts are parallelogram ones, any
part may be the empty size-1 permutomino, and the sizes add up to n.

Forward, each part contributes one component: the empty part gives (1), a
non-final part gives the reversal of its even-vertex permutation (the
odd-vertex permutation of its mirror image across the vertical axis), and the
final part gives the complement (mirror across the horizontal axis).  The
components are then stacked with the direct difference.  Backward, each
component is realized by the one shape of its fiber whose reflection has the
right class: the canonical shape (every free fixed point typed alpha) for a
first or middle part, and the shape with every free fixed point typed gamma
for the last part.  No other shape of the fiber is built.
"""
from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

from . import perms
from .boundary import Permutomino, reflect_x, reflect_y
from .errors import Indecomposable, InvalidSequence, NotSquare
from .membership import Fiber


class PermutominoSequence(tuple):
    """A tuple of k >= 2 parts, checked on construction against the
    end/middle class constraints.

    It also equals the plain tuple of its parts, which `parts` returns.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[Permutomino]):
        seq = super().__new__(cls, parts)
        validate_sequence(seq)
        return seq

    @property
    def parts(self) -> tuple[Permutomino, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"PermutominoSequence(parts={self.parts!r})"


def validate_sequence(parts: Sequence[Permutomino]) -> None:
    if len(parts) < 2:
        raise InvalidSequence("need at least two parts")
    for i, part in enumerate(parts):
        if part.size == 1:
            continue  # empty parts are allowed anywhere
        if i in (0, len(parts) - 1):
            if not part.flags["directed"]:
                raise InvalidSequence(f"part {i + 1} must be directed convex (or empty)")
        elif not part.flags["parallelogram"]:
            raise InvalidSequence(f"part {i + 1} must be parallelogram (or empty)")


def component_of(part: Permutomino, last: bool) -> tuple[int, ...]:
    """The permutation a single part contributes."""
    if part.size == 1:
        return (1,)
    return perms.complement(part.pi2) if last else perms.reversal(part.pi2)


def sequence_to_permutation(seq: Iterable[Permutomino]) -> tuple[int, ...]:
    """Stack the parts' components: a square permutation with exactly k components."""
    parts = tuple(seq)
    validate_sequence(parts)
    k = len(parts)
    components = [component_of(p, last=(i == k - 1)) for i, p in enumerate(parts)]
    result = reduce(perms.direct_difference, components)
    if not perms.is_square(result) or len(perms.decompose(result)) != k:
        raise AssertionError(f"parts stack to {result}, not a square with {k} components")
    return result


def _unique_part(component: tuple[int, ...], last: bool, middle: bool) -> Permutomino:
    over = Fiber(component)
    shape = over.shape(over.free if last else ())
    part = reflect_x(shape) if last else reflect_y(shape)
    wanted = "parallelogram" if middle else "directed"
    if not part.flags[wanted]:
        raise AssertionError(f"no {wanted} permutomino for component {component}")
    return part


def permutation_to_sequence(p: Sequence[int]) -> PermutominoSequence:
    """Inverse map: split p into indecomposables and realize each as a part.

    Raises NotSquare / Indecomposable when p is outside the bijection's domain.
    """
    p = perms.as_perm(p)
    if not perms.is_square(p):
        raise NotSquare(f"{p} is not square")
    components = perms.decompose(p)
    k = len(components)
    if k < 2:
        raise Indecomposable(f"{p} does not split")
    parts = tuple(
        _unique_part(comp, last=(i == k - 1), middle=(0 < i < k - 1))
        for i, comp in enumerate(components)
    )
    return PermutominoSequence(parts)
