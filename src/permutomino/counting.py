"""Permutation counts and permutomino listings, built on the scan kernels.

The statistics scan visits the square permutations of size n and the square
agreement scan all of S_n; both split their permutations into blocks by first
value.  The blocks run in this process by default.  With workers > 1 they go
through a process pool, but only from size POOL_MIN_SIZE up: a smaller scan
takes milliseconds, less than starting the pool.  The per-block tallies are
summed, so the result is bit-identical for any worker count.  Permutation
listings walk the square permutations too, since every listed permutation
class is a subset of them.  Geometric listings come from the interval oracle:
column-convex from its own enumerator, every other class from the convex
listing filtered by the class flag that CLASS_FLAGS names.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from . import _kernels, oracles
from .boundary import Permutomino
from .errors import SizeTooLarge
from .membership import fiber, is_associated, is_associated_pi2
from .perms import is_indecomposable, square_permutations

SCAN_BOUND = 10  # square_agreement walks S_10's ~3.6M permutations, the desk-scale limit
POOL_MIN_SIZE = 8  # smaller scans run in process whatever the worker count
FIBER_BOUND = 7  # convex_via_fibers materializes 1836 shapes at size 7

# CLI class name -> boundary.classify flag that picks it out of the convex listing
CLASS_FLAGS = {
    "convex": "convex",
    "directed": "directed",
    "parallelogram": "parallelogram",
    "symmetric": "symmetric_xy",
}


def _merge_stats(blocks: list[dict]) -> dict:
    total = {
        "square": 0,
        "components": {},
        "ctilde_by_fixed": None,
        "both_ways": 0,
        "assoc_first_lt_last": 0,
    }
    for block in blocks:
        total["square"] += block["square"]
        total["both_ways"] += block["both_ways"]
        total["assoc_first_lt_last"] += block["assoc_first_lt_last"]
        for k, v in block["components"].items():
            total["components"][k] = total["components"].get(k, 0) + v
        if total["ctilde_by_fixed"] is None:
            total["ctilde_by_fixed"] = list(block["ctilde_by_fixed"])
        else:
            for i, v in enumerate(block["ctilde_by_fixed"]):
                total["ctilde_by_fixed"][i] += v
    return total


def _scan_block(args):
    n, first = args
    return _kernels.scan_stats(n, first)


def _agreement_block(args):
    n, first = args
    return _kernels.square_agreement(n, first)


def _run_blocks(fn, n: int, workers: int) -> list[dict]:
    firsts = list(range(1, n + 1))
    if workers <= 1 or n < POOL_MIN_SIZE:
        return [fn((n, first)) for first in firsts]
    with ProcessPoolExecutor(max_workers=min(workers, n)) as pool:
        return list(pool.map(fn, [(n, first) for first in firsts]))


def scan_stats(n: int, workers: int = 1) -> dict:
    """Merged statistics over the square permutations of size n (see kernel docs)."""
    if n > SCAN_BOUND:
        raise SizeTooLarge(f"scans are bounded at size {SCAN_BOUND}, got {n}")
    if n < 1:
        raise ValueError("size must be at least 1")
    return _merge_stats(_run_blocks(_scan_block, n, workers))


def square_agreement(n: int, workers: int = 1) -> dict:
    """Envelope route vs pattern route over all of S_n."""
    if n > SCAN_BOUND:
        raise SizeTooLarge(f"scans are bounded at size {SCAN_BOUND}, got {n}")
    blocks = _run_blocks(_agreement_block, n, workers)
    return {
        "by_envelope": sum(b["by_envelope"] for b in blocks),
        "by_patterns": sum(b["by_patterns"] for b in blocks),
        "disagreements": sum(b["disagreements"] for b in blocks),
    }


def count_ctilde(n: int, workers: int = 1) -> dict:
    """{'total': |realizable pi1 set|, 'by_free_fixed_points': {k: count}}."""
    stats = scan_stats(n, workers)
    by_k = {k: v for k, v in enumerate(stats["ctilde_by_fixed"]) if v}
    if n == 1:
        by_k = {0: 1}
    return {"total": sum(by_k.values()), "by_free_fixed_points": by_k}


def count_square(n: int, workers: int = 1) -> dict:
    """{'square': Q, 'decomposable': B, 'by_components': {k>=2: count}}."""
    stats = scan_stats(n, workers)
    by_k = {k: v for k, v in sorted(stats["components"].items()) if k >= 2}
    return {
        "square": stats["square"],
        "decomposable": sum(by_k.values()),
        "by_components": by_k,
    }


def count_convex(n: int, method: str = "fibers", workers: int = 1) -> int:
    """Number of convex permutominoes of size n.

    method 'fibers' sums 2^k over the realizable permutations with k free
    fixed points; method 'intervals' runs the independent geometric oracle
    (bounded at size 6).
    """
    if method == "fibers":
        return fiber_sum(count_ctilde(n, workers)["by_free_fixed_points"])
    if method == "intervals":
        return len(oracles.enumerate_convex(n))
    raise ValueError(f"unknown method {method!r}")


def fiber_sum(by_free_fixed_points: dict[int, int]) -> int:
    """Convex permutomino count from {k: realizable permutations with k free
    fixed points}; each such permutation has a fiber of 2^k permutominoes."""
    return sum(v << k for k, v in by_free_fixed_points.items())


def convex_via_fibers(n: int) -> list[Permutomino]:
    """Materialize every convex permutomino of size n through the fibers.

    Walks the square permutations, keeps the realizable ones and expands each
    fiber; the result is sorted by (pi1, boundary word) like the oracle listings.
    """
    if n > FIBER_BOUND:
        raise SizeTooLarge(f"fiber listing is bounded at size {FIBER_BOUND}, got {n}")
    out: list[Permutomino] = []
    for p in square_permutations(n):
        if is_associated(p):
            out.extend(fiber(p))
    out.sort(key=Permutomino.sort_key)
    return out


def listing(class_name: str, n: int) -> list[Permutomino]:
    """Stable listing of a permutomino class (geometry-backed classes only)."""
    if class_name == "column-convex":
        return oracles.enumerate_column_convex(n)
    flag = CLASS_FLAGS.get(class_name)
    if flag is None:
        raise ValueError(f"no geometric listing for class {class_name!r}")
    return [p for p in oracles.enumerate_convex(n) if p.flags[flag]]


def perm_listing(class_name: str, n: int) -> list[tuple[int, ...]]:
    """Stable listing of a permutation class (lexicographic).

    Every class here is a subset of the square permutations, so the listing
    filters the square generator rather than S_n.
    """
    preds = {
        "ctilde": is_associated,
        "ctilde-prime": is_associated_pi2,
        "square": lambda p: True,
        "decomposable": lambda p: not is_indecomposable(p),
    }
    if class_name not in preds:
        raise ValueError(f"no permutation listing for class {class_name!r}")
    pred = preds[class_name]
    return [p for p in square_permutations(n) if pred(p)]
