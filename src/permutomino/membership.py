"""Deciding which permutations come from convex permutominoes, and their fibers.

A permutation p is the odd-vertex permutation (pi1) of some convex permutomino
iff its lower envelope is lower unimodal and p is indecomposable.  When it is,
the whole fiber of permutominoes over p has size 2^|F(p)| where F(p) is the set
of free fixed points: fixed points on the strictly increasing part of the upper
envelope, other than 1 and n.  Each choice of alpha/gamma typing for the free
fixed points gives one permutomino of the fiber: its corner matrix is read off
the envelopes as four chains, one per label, the chosen points are moved from
the alphas to the gammas, and boundary.corner_word, the one builder of convex
boundary words (matrix.permutomino_from_matrix threads a corner matrix with it
too), threads each chain as a monotone staircase between two special corners.
`Fiber.shape` is the only place that builds such a shape; `fiber`,
`canonical_permutomino` and the bijection all go through a `Fiber`.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from . import perms
from .boundary import ALPHA, EMPTY, GAMMA, LABELS, Permutomino, corner_word, from_boundary_word
from .errors import NotAssociated, SizeTooLarge

# a fiber has 2^|F(p)| shapes, built and written one at a time, so this bounds
# time, not memory: `build --all` at the bound (4096 shapes) takes ~1.5 s as
# SVG, ~0.9 s as JSON and ~1.3 s as ASCII on a 2-vCPU VM, in ~16 MB whatever
# the fiber size, and each free fixed point more doubles the time
FREE_FIXED_BOUND = 12

OK = "ok"
NOT_UNIMODAL = "lower-envelope-not-unimodal"
DECOMPOSABLE = "decomposable"


class MembershipVerdict(NamedTuple):
    """Outcome of the membership test, with a witness on failure.

    reason is 'ok', 'lower-envelope-not-unimodal' (witness: three (position,
    value) pairs of the lower envelope forming an ascent before a descent), or
    'decomposable' (witness: the leftmost split position).
    """

    member: bool
    reason: str
    witness: tuple | int | None = None


def membership_verdict(p: Sequence[int]) -> MembershipVerdict:
    """Full membership test for 'p is pi1 of some convex permutomino'.

    For n = 1 the answer is yes (the empty permutomino).
    """
    p = perms.as_perm(p)
    return _verdict(p, perms.envelopes(p))


def _verdict(p: tuple[int, ...], env: perms.Envelopes) -> MembershipVerdict:
    """membership_verdict for p, given its envelopes."""
    witness = perms.lower_unimodal_break(env.lower.values)
    if witness is not None:
        return MembershipVerdict(False, NOT_UNIMODAL, tuple(env.lower.entries[i] for i in witness))
    splits = perms.split_points(p)
    if splits:
        return MembershipVerdict(False, DECOMPOSABLE, min(splits))
    return MembershipVerdict(True, OK)


def is_associated(p: Sequence[int]) -> bool:
    """True iff p is the odd-vertex permutation of some convex permutomino."""
    return membership_verdict(p).member


def is_associated_pi2(p: Sequence[int]) -> bool:
    """True iff p is the even-vertex permutation of some convex permutomino.

    Equivalent to the reversal of p being odd-vertex realizable.
    """
    return is_associated(perms.reversal(p))


def free_fixed_points(p: Sequence[int]) -> tuple[int, ...]:
    """The free fixed points of a realizable p in increasing order; raises
    NotAssociated when p is not realizable."""
    return Fiber(p).free


def free_fixed_values(p: Sequence[int]) -> list[int]:
    """The free fixed points of p in increasing order, without the membership
    check: f is free iff p(f) = f, 1 < f < n, and f is a left-right maximum."""
    n = len(p)
    out = []
    high = 0
    for i in range(n):
        v = p[i]
        if v > high:
            high = v
            if v == i + 1 and 1 < v < n:
                out.append(v)
    return out


def canonical_permutomino(p: Sequence[int]) -> Permutomino:
    """The fiber representative with every free fixed point typed alpha.

    Raises NotAssociated when p fails the membership test; p = (1) gives the
    empty permutomino.
    """
    return Fiber(p).shape(())


def fiber(p: Sequence[int]) -> Fiber:
    """All convex permutominoes whose odd-vertex permutation is p, in output
    order (by boundary word, so by `Permutomino.sort_key`).

    Raises NotAssociated when p is not realizable, and SizeTooLarge when
    |F(p)| is above FREE_FIXED_BOUND, here, before any shape is built; the
    shapes are built as the result is iterated.
    """
    over = Fiber(p)
    if len(over.free) > FREE_FIXED_BOUND:
        raise SizeTooLarge(f"a fiber has 2^{len(over.free)} shapes; fibers are bounded at "
                           f"{FREE_FIXED_BOUND} free fixed points")
    return over


class Fiber:
    """The 2^|F(p)| convex permutominoes over a realizable p, one for each set
    G of free fixed points typed gamma (the rest alpha), built by `shape(G)`.

    The constructor checks membership once (NotAssociated, with the reason)
    and keeps the chains of the canonical corner matrix (G empty) and their
    labeled corner set: alpha at the interior entries of the rising upper
    envelope, gamma at those of the climbing lower envelope, beta at (left
    position, right value) of each consecutive pair on the falling upper
    envelope, delta at (right position, left value) of each consecutive pair
    on the sinking lower envelope.  Typing f gamma moves (f, f) from alpha to gamma.

    Iteration builds the shapes one at a time, subset m = 0 .. 2^k - 1 of the
    k free fixed points typing f gamma when f's bit is 1, the smallest free
    fixed point being the most significant bit; in that order the words come
    out increasing.  It raises AssertionError unless each word is greater
    than the one before it.
    """

    def __init__(self, p: Sequence[int]):
        p = perms.as_perm(p)
        env = perms.envelopes(p)
        verdict = _verdict(p, env)
        if not verdict.member:
            raise NotAssociated(f"{p} is not realizable ({verdict.reason})")
        n = len(p)
        upper = env.upper.entries
        top = next(i for i, (_, v) in enumerate(upper) if v == n)
        low = env.lower.entries
        pivot = next(i for i, (_, v) in enumerate(low) if v == 1)
        self.p = p
        self.free = tuple(free_fixed_values(p))
        self._chains = (upper[1:top],
                        [(x, y) for (x, _), (_, y) in zip(upper[top:], upper[top + 1:])],
                        low[pivot + 1:-1],
                        [(x, y) for (_, y), (x, _) in zip(low[:pivot], low[1:pivot + 1])])
        self._corners = {(e, label) for label, chain in zip(LABELS, self._chains) for e in chain}

    def __len__(self) -> int:
        return 1 << len(self.free)

    def __iter__(self) -> Iterator[Permutomino]:
        free = self.free
        top = len(free) - 1
        word = None
        for m in range(len(self)):
            shape = self.shape([f for i, f in enumerate(free) if m >> (top - i) & 1])
            if m and not shape.word > word:
                raise AssertionError(f"fiber of {self.p}: {shape.word!r} does not follow {word!r}")
            word = shape.word
            yield shape

    def shape(self, gamma: Sequence[int]) -> Permutomino:
        """The shape over p with the free fixed points in gamma typed gamma.

        Raises ValueError unless gamma is a subset of `free`.  The chains are
        threaded by boundary.corner_word and the word validated; raises
        AssertionError unless the shape is convex over p and its labeled
        reentrant corners are the canonical ones with gamma's points retyped.
        """
        p = self.p
        gamma = set(gamma)
        if not gamma.issubset(self.free):
            raise ValueError(f"gamma {sorted(gamma)} is not a subset of {p}'s free {self.free}")
        if len(p) == 1:
            return EMPTY
        alphas, betas, gammas, deltas = self._chains
        word = corner_word([e for e in alphas if e[0] not in gamma], betas,
                           sorted(gammas + tuple((f, f) for f in gamma)), deltas, len(p))
        shape = from_boundary_word(word)
        retyped = {((f, f), label) for f in gamma for label in (ALPHA, GAMMA)}
        if shape.pi1 != p or not shape.is_convex or set(shape.reentrant) != self._corners ^ retyped:
            raise AssertionError(f"corner word {word!r} does not type {sorted(gamma)} gamma over {p}")
        return shape
