"""Counts and listings of every `enumerate` class, and ROUTES, the table of
the routes that count or list each class.

A route is a function of a class name and a size that counts or lists the
class up to a bound, which it checks when called.  A count route reads the
count record scan_stats(n), which _kernels.count_stats makes without
visiting a permutation, or counts the interval oracle's walk, geo_walk.  A
list route streams the square generator, filtered, or the fibers, or sorts a
walk's rows.  CLASS_FLAGS is the one map from class to boundary.classify
flag; oracle_counts folds each size's convex walk into every flagged class's
count.  geo_walk is the one caller of the oracle, and ORACLE_BOUND, which it
checks, is the oracle's one size bound.  The oracle and the permutation and
shape modules are imported by the functions that call them, so a count loads
none of them.
"""
from __future__ import annotations

from collections.abc import Iterator
from itertools import filterfalse, permutations

from . import _kernels
from ._kernels import COUNT_BOUND
from .errors import check_size

# the permutation listings stop here; square_agreement shares the bound, though
# it walks all of S_n: 0.65 s at size 8, 8.8 s at size 9 (Python 3.11.7, 2-vCPU Xeon VM)
SCAN_BOUND = 10
FIBER_BOUND = 7  # convex_via_fibers streams 1836 shapes at size 7 (~0.1 s), 8468 at size 8 (~0.5 s)
# the oracle's walk takes 0.010 s at size 6 and 0.045 s at size 7 (convex),
# 0.026 s and 0.28 s (column-convex), on the same host
ORACLE_BOUND = 6

# class -> the boundary.classify flag that picks it out of the convex walk
CLASS_FLAGS = {
    "directed": "directed",
    "parallelogram": "parallelogram",
    "symmetric": "symmetric_xy",
}


def scan_stats(n: int, workers: int = 1) -> dict:
    """The count record of size n, _kernels.count_stats (which names its
    fields and bounds); workers is accepted for callers that pass it and
    changes nothing."""
    return _kernels.count_stats(n)


def square_agreement(n: int) -> dict:
    """Compare the envelope route and the pattern route over all of S_n.

    Returns counts from both routes plus the number of disagreements (zero if
    the two characterizations really coincide).  It walks all of S_n, because
    it has to see the non-squares, and defines no predicate of its own: both
    square tests come from permutomino.perms.
    """
    from .perms import is_square, is_square_by_patterns

    check_size(n, SCAN_BOUND, "scans are")
    by_envelope = by_patterns = disagree = 0
    for p in permutations(range(1, n + 1)):
        a = is_square(p)
        b = is_square_by_patterns(p)
        by_envelope += a
        by_patterns += b
        disagree += a != b
    return {"by_envelope": by_envelope, "by_patterns": by_patterns, "disagreements": disagree}


def convex_via_fibers(n: int) -> Iterator:
    """Every convex permutomino of size n through the fibers, one at a time,
    in (pi1, boundary word) order like the oracle listings.

    Streams the fiber of each permutation of the ctilde listing, which comes
    in lexicographic order, and each fiber's shapes come in word order, so
    nothing is sorted.  The size is checked here, before any shape is built.
    """
    from .membership import fiber

    check_size(n, FIBER_BOUND, "fiber listing is")
    return (shape for p in perm_listing("ctilde", n) for shape in fiber(p))


def geo_walk(class_name: str, n: int) -> Iterator:
    """The shapes of a geometric class of size n, one at a time from the
    oracle's walk; the class and the size are checked here."""
    from . import oracles

    flag = CLASS_FLAGS.get(class_name)
    if flag is None and class_name not in ("convex", "column-convex"):
        raise ValueError(f"no geometric listing for class {class_name!r}")
    check_size(n, ORACLE_BOUND, "interval oracle is")
    shapes = oracles.walk(n, convex=class_name != "column-convex")
    return shapes if flag is None else (p for p in shapes if p.flags[flag])


def listing(class_name: str, n: int) -> list:
    """The sorted (pi1, word) rows of a geometric class; no shape is kept."""
    return sorted([(p.pi1, p.word) for p in geo_walk(class_name, n)])


def perm_listing(class_name: str, n: int) -> Iterator[tuple[int, ...]]:
    """A permutation class in lexicographic order, one at a time.

    Every class here is a subset of the square permutations, so the listing
    filters the square generator rather than S_n.  A square's lower envelope
    is unimodal, so on squares membership.is_associated is the split test:
    ctilde keeps the indecomposable squares, decomposable the others.  The
    size and the class are checked here, before any permutation is generated.
    """
    from .perms import is_indecomposable, square_permutations

    check_size(n, SCAN_BOUND, "permutation listings are")
    squares = square_permutations(n)
    if class_name == "ctilde":
        return filter(is_indecomposable, squares)
    if class_name == "decomposable":
        return filterfalse(is_indecomposable, squares)
    if class_name != "square":
        raise ValueError(f"no permutation listing for class {class_name!r}")
    return squares


def oracle_counts(sizes: range) -> dict[str, dict[int, int]]:
    """counts[name][n]: the convex permutominoes of size n and those of each
    class in CLASS_FLAGS, for every n in sizes, in one oracle walk per size."""
    counts = {name: dict.fromkeys(sizes, 0) for name in ("convex", *CLASS_FLAGS)}
    for n in sizes:
        for p in geo_walk("convex", n):
            counts["convex"][n] += 1
            for name, flag in CLASS_FLAGS.items():
                counts[name][n] += p.flags[flag]
    return counts


def from_record(class_name: str, n: int, record: dict | None = None) -> int:
    """The class's field of the count record of size n, or of the record given."""
    return (scan_stats(n) if record is None else record)[class_name]


def from_walk(class_name: str, n: int, record: dict | None = None) -> int:
    """The number of shapes in the class's oracle walk of size n (a record is not read)."""
    return sum(1 for _ in geo_walk(class_name, n))


# class -> (its count routes by `--method` name, the default first, its list route)
ROUTES = {
    **dict.fromkeys(("ctilde", "square", "decomposable"), ({"record": from_record}, perm_listing)),
    "convex": ({"fibers": from_record, "intervals": from_walk},
               lambda name, n: ((p.pi1, p.word) for p in convex_via_fibers(n))),
    **dict.fromkeys((*CLASS_FLAGS, "column-convex"), ({"intervals": from_walk}, listing)),
}
