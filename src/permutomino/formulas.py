"""Closed-form evaluators for every counting sequence the library verifies.

All arithmetic is on integers: a form with rational factors is evaluated as
one numerator over an explicit denominator, and the quotient must be exact,
otherwise NonIntegerResult is raised.
Indices are permutomino sizes (or the sequence's own natural index where no
size exists); values below a formula's validity range come from the published
initial terms.

Two evaluators ('half-diff-printed' and 'intersection-printed') reproduce
closed forms exactly as printed in the source material even though they do not
match the definitional quantities at any small offset; the verification
harness reports them as discrepant instead of silently fixing them.
"""
from __future__ import annotations

from math import comb, gcd


class OutOfRange(ValueError):
    """Index outside a family's validity range with no listed initial term."""


class NonIntegerResult(ArithmeticError):
    """Exact evaluation of a closed form did not produce an integer."""


def _exact(num: int, den: int, family: str, n: int) -> int:
    """num / den (den > 0) if it is an integer; else the error names the
    fraction in lowest terms."""
    quotient, remainder = divmod(num, den)
    if remainder:
        g = gcd(num, den)
        raise NonIntegerResult(f"{family}({n}) = {num // g}/{den // g} is not an integer")
    return quotient


def central_binomial(n: int) -> int:
    if n < 0:
        raise OutOfRange("central binomial needs n >= 0")
    return comb(2 * n, n)


def catalan(n: int) -> int:
    if n < 0:
        raise OutOfRange("catalan needs n >= 0")
    return _exact(comb(2 * n, n), n + 1, "catalan", n)


def convex_permutomino(n: int) -> int:
    """Convex permutominoes of size n: 2(m+3)4^(m-2) - (m/2) C(2m,m) at m = n-1."""
    if n < 1:
        raise OutOfRange("size must be >= 1")
    if n == 1:
        return 1
    m = n - 1
    return _exact(2 * (m + 3) * 4**m - 8 * m * comb(2 * m, m), 16, "convex", n)


def ctilde(n: int) -> int:
    """Realizable odd-vertex permutations of size n (exact-rational factor inside)."""
    if n < 1:
        raise OutOfRange("size must be >= 1")
    if n == 1:
        return 1
    m = n - 1
    # 2(m+2)4^(m-2) - (m/4) (4m-3)/(2m-1) C(2m,m), over 8(2m-1)
    num = (m + 2) * 4**m * (2 * m - 1) - 2 * m * (4 * m - 3) * comb(2 * m, m)
    return _exact(num, 8 * (2 * m - 1), "ctilde", n)


def square_perms(n: int) -> int:
    """Square permutations of size n: 2(m+3)4^(m-2) - 4(2m-3) C(2m-4, m-2) at m = n-1."""
    if n < 1:
        raise OutOfRange("size must be >= 1")
    if n <= 2:
        return (1, 2)[n - 1]
    m = n - 1
    return 2 * (m + 3) * 4 ** (m - 2) - 4 * (2 * m - 3) * comb(2 * (m - 2), m - 2)


def decomposable_square(n: int) -> int:
    """Decomposable square permutations of size n: (4^m + C(2m,m)) / 2 at m = n-2."""
    if n < 1:
        raise OutOfRange("size must be >= 1")
    if n == 1:
        return 0
    m = n - 2
    return _exact(4**m + comb(2 * m, m), 2, "decomposable", n)


def directed_convex(n: int) -> int:
    """Directed convex permutominoes of size n: half the central binomial."""
    if n < 1:
        raise OutOfRange("size must be >= 1")
    if n == 1:
        return 1
    return _exact(central_binomial(n - 1), 2, "directed", n)


def parallelogram(n: int) -> int:
    if n < 1:
        raise OutOfRange("size must be >= 1")
    if n == 1:
        return 1
    return catalan(n - 1)


def symmetric(n: int) -> int:
    """Diagonally symmetric convex permutominoes of size n."""
    if n < 1:
        raise OutOfRange("size must be >= 1")
    if n <= 2:
        return 1
    m = n - 1
    return (
        (m + 3) * 2 ** (m - 2)
        - m * comb(m - 1, (m - 1) // 2)
        - (m - 1) * comb(m - 2, (m - 2) // 2)
    )


def centered(n: int) -> int:
    if n < 1:
        raise OutOfRange("size must be >= 1")
    if n == 1:
        return 1
    return 4 ** (n - 2)


_BICENTERED_SEEDS = (1, 1, 4)


def bicentered(n: int) -> int:
    """Bi-centered counts: published seeds 1,1,4 then T(n) = 4T(n-1) - 2T(n-2)."""
    if n < 1:
        raise OutOfRange("size must be >= 1")
    if n <= 3:
        return _BICENTERED_SEEDS[n - 1]
    a, b = _BICENTERED_SEEDS[1], _BICENTERED_SEEDS[2]
    for _ in range(n - 3):
        a, b = b, 4 * b - 2 * a
    return b


def stacks(n: int) -> int:
    if n < 1:
        raise OutOfRange("size must be >= 1")
    if n == 1:
        return 1
    return 2 ** (n - 2)


def asym_surplus(n: int) -> int:
    """Realizable permutations of size n with p(1) < p(n), minus the decomposable
    squares: the definitional quantity Q_n/2 - B_n, as a closed combination."""
    if n < 2:
        raise OutOfRange("the half-square count needs size >= 2")
    return _exact(square_perms(n) - 2 * decomposable_square(n), 2, "asym-surplus", n)


def half_diff_printed(n: int) -> int:
    """The one-direction surplus closed form exactly as printed: value claimed
    for size n is (m+1)4^(m-2) - (m/2) C(2m+1, m-1) at m = n-1.  Known not to
    match asym_surplus at any small offset; kept for the discrepancy report."""
    if n < 2:
        raise OutOfRange("printed form needs size >= 2")
    m = n - 1
    num = (m + 1) * 4**m - 8 * m * comb(2 * m + 1, m - 1)
    return _exact(num, 16, "half-diff-printed", n)


def intersection_printed(n: int) -> int:
    """The both-ways-realizable closed form exactly as printed: value claimed
    for size n is 2(m+1)4^(m-2) - C(2m-1, m-1) at m = n-1.  Known discrepant."""
    if n < 2:
        raise OutOfRange("printed form needs size >= 2")
    m = n - 1
    num = 2 * (m + 1) * 4**m - 16 * comb(2 * m - 1, m - 1)
    return _exact(num, 16, "intersection-printed", n)


def fixed_point_surplus(n: int) -> int:
    """Convex permutominoes of size n beyond the realizable-permutation count,
    i.e. those whose permutation has a free fixed point: (4^m - C(2m,m)) / 2
    at m = n-2."""
    if n < 2:
        raise OutOfRange("size must be >= 2")
    m = n - 2
    return _exact(4**m - comb(2 * m, m), 2, "fixed-point-surplus", n)


FAMILIES = {
    "central-binomial": central_binomial,
    "catalan": catalan,
    "convex": convex_permutomino,
    "ctilde": ctilde,
    "square": square_perms,
    "decomposable": decomposable_square,
    "directed": directed_convex,
    "parallelogram": parallelogram,
    "symmetric": symmetric,
    "centered": centered,
    "bicentered": bicentered,
    "stacks": stacks,
    "asym-surplus": asym_surplus,
    "half-diff-printed": half_diff_printed,
    "intersection-printed": intersection_printed,
    "fixed-point-surplus": fixed_point_surplus,
}
