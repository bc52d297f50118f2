"""Closed-form evaluators for every counting sequence the library verifies.

All arithmetic is on integers: a form with rational factors is evaluated as
one numerator over an explicit denominator, and the quotient must be exact,
otherwise NonIntegerResult is raised.
Indices are permutomino sizes (or the sequence's own natural index where no
size exists); values below a formula's validity range come from the published
initial terms.  Each form is declared once, by `_family`, which registers it
in FAMILIES under its family name.

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


FAMILIES = {}  # family name -> evaluator, in declaration order


def _family(name: str, first: int, *initial: int, needs: str = "size must be"):
    """Declare the closed form of family `name`: its evaluator, registered in
    FAMILIES, raises OutOfRange("{needs} >= {first}") below index `first`,
    returns `initial` at first, first + 1, ..., and divides a (numerator,
    denominator) pair the form returns exactly, else NonIntegerResult names
    the fraction in lowest terms."""

    def declare(form):
        def evaluate(n: int) -> int:
            if n < first:
                raise OutOfRange(f"{needs} >= {first}")
            if n < first + len(initial):
                return initial[n - first]
            value = form(n)
            if not isinstance(value, tuple):
                return value
            num, den = value
            quotient, remainder = divmod(num, den)
            if remainder:
                g = gcd(num, den)
                raise NonIntegerResult(f"{name}({n}) = {num // g}/{den // g} is not an integer")
            return quotient

        evaluate.__name__ = evaluate.__qualname__ = form.__name__
        evaluate.__doc__ = form.__doc__
        FAMILIES[name] = evaluate
        return evaluate

    return declare


@_family("central-binomial", 0, needs="central binomial needs n")
def central_binomial(n: int) -> int | tuple[int, int]:
    return comb(2 * n, n)


@_family("catalan", 0, needs="catalan needs n")
def catalan(n: int) -> int | tuple[int, int]:
    return comb(2 * n, n), n + 1


@_family("convex", 1, 1)
def convex_permutomino(n: int) -> int | tuple[int, int]:
    """Convex permutominoes of size n: 2(m+3)4^(m-2) - (m/2) C(2m,m) at m = n-1."""
    m = n - 1
    return 2 * (m + 3) * 4**m - 8 * m * comb(2 * m, m), 16


@_family("ctilde", 1, 1)
def ctilde(n: int) -> int | tuple[int, int]:
    """Realizable odd-vertex permutations of size n (exact-rational factor inside)."""
    m = n - 1
    # 2(m+2)4^(m-2) - (m/4) (4m-3)/(2m-1) C(2m,m), over 8(2m-1)
    num = (m + 2) * 4**m * (2 * m - 1) - 2 * m * (4 * m - 3) * comb(2 * m, m)
    return num, 8 * (2 * m - 1)


@_family("square", 1, 1, 2)
def square_perms(n: int) -> int | tuple[int, int]:
    """Square permutations of size n: 2(m+3)4^(m-2) - 4(2m-3) C(2m-4, m-2) at m = n-1."""
    m = n - 1
    return 2 * (m + 3) * 4 ** (m - 2) - 4 * (2 * m - 3) * comb(2 * (m - 2), m - 2)


@_family("decomposable", 1, 0)
def decomposable_square(n: int) -> int | tuple[int, int]:
    """Decomposable square permutations of size n: (4^m + C(2m,m)) / 2 at m = n-2."""
    m = n - 2
    return 4**m + comb(2 * m, m), 2


@_family("directed", 1, 1)
def directed_convex(n: int) -> int | tuple[int, int]:
    """Directed convex permutominoes of size n: half the central binomial."""
    return central_binomial(n - 1), 2


@_family("parallelogram", 1, 1)
def parallelogram(n: int) -> int | tuple[int, int]:
    return catalan(n - 1)


@_family("symmetric", 1, 1, 1)
def symmetric(n: int) -> int | tuple[int, int]:
    """Diagonally symmetric convex permutominoes of size n."""
    m = n - 1
    return ((m + 3) * 2 ** (m - 2) - m * comb(m - 1, (m - 1) // 2)
            - (m - 1) * comb(m - 2, (m - 2) // 2))


@_family("centered", 1, 1)
def centered(n: int) -> int | tuple[int, int]:
    return 4 ** (n - 2)


@_family("bicentered", 1, 1, 1, 4)
def bicentered(n: int) -> int | tuple[int, int]:
    """Bi-centered counts: published seeds 1,1,4 then T(n) = 4T(n-1) - 2T(n-2)."""
    a, b = 1, 4  # T(2), T(3)
    for _ in range(n - 3):
        a, b = b, 4 * b - 2 * a
    return b


@_family("stacks", 1, 1)
def stacks(n: int) -> int | tuple[int, int]:
    return 2 ** (n - 2)


@_family("asym-surplus", 2, needs="the half-square count needs size")
def asym_surplus(n: int) -> int | tuple[int, int]:
    """Realizable permutations of size n with p(1) < p(n), minus the decomposable
    squares: the definitional quantity Q_n/2 - B_n, as a closed combination."""
    return square_perms(n) - 2 * decomposable_square(n), 2


@_family("half-diff-printed", 2, needs="printed form needs size")
def half_diff_printed(n: int) -> int | tuple[int, int]:
    """The one-direction surplus closed form exactly as printed: value claimed
    for size n is (m+1)4^(m-2) - (m/2) C(2m+1, m-1) at m = n-1.  Known not to
    match asym_surplus at any small offset; kept for the discrepancy report."""
    m = n - 1
    return (m + 1) * 4**m - 8 * m * comb(2 * m + 1, m - 1), 16


@_family("intersection-printed", 2, needs="printed form needs size")
def intersection_printed(n: int) -> int | tuple[int, int]:
    """The both-ways-realizable closed form exactly as printed: value claimed
    for size n is 2(m+1)4^(m-2) - C(2m-1, m-1) at m = n-1.  Known discrepant."""
    m = n - 1
    return 2 * (m + 1) * 4**m - 16 * comb(2 * m - 1, m - 1), 16


@_family("fixed-point-surplus", 2)
def fixed_point_surplus(n: int) -> int | tuple[int, int]:
    """Convex permutominoes of size n beyond the realizable-permutation count,
    i.e. those whose permutation has a free fixed point: (4^m - C(2m,m)) / 2
    at m = n-2."""
    m = n - 2
    return 4**m - comb(2 * m, m), 2
