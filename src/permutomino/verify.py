"""Cross-checks every counting identity against independent enumeration.

Each identity becomes one report row with a status: 'pass', 'fail' (with the
first offending left/right values), or 'discrepant' for the two closed forms
that are known not to match the definitional quantities as printed (only
checked when strict_paper is set, and deliberately not a failure).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import comb

from . import counting, formulas, oracles


@dataclass
class Entry:
    name: str
    sizes: str
    status: str  # pass | fail | discrepant
    detail: str = ""
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "sizes": self.sizes,
            "status": self.status,
            "detail": self.detail,
            "elapsed": round(self.elapsed, 6),
        }


@dataclass
class VerificationReport:
    max_size: int
    strict_paper: bool
    entries: list[Entry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    def as_dict(self) -> dict:
        return {
            "max_size": self.max_size,
            "strict_paper": self.strict_paper,
            "ok": self.ok,
            "entries": [e.as_dict() for e in self.entries],
        }


def _check(report: VerificationReport, name: str, sizes: str, pairs) -> None:
    """pairs yields (n, lhs, rhs, detail); the row fails on the first mismatch."""
    start = time.monotonic()
    status, detail = "pass", ""
    for n, lhs, rhs, shown in pairs:
        detail = shown
        if lhs != rhs:
            status = "fail"
            detail = f"n={n}: {lhs} != {rhs} ({shown})"
            break
    report.entries.append(Entry(name, sizes, status, detail, time.monotonic() - start))


def _discrepancy(report: VerificationReport, name: str, sizes: str, pairs) -> None:
    """Like _check but a mismatch is expected: mismatch -> discrepant, match -> pass."""
    start = time.monotonic()
    mismatches = []
    for n, lhs, rhs in pairs:
        if lhs != rhs:
            mismatches.append(f"n={n}: printed {lhs} vs definitional {rhs}")
    status = "discrepant" if mismatches else "pass"
    detail = "; ".join(mismatches[:3])
    report.entries.append(Entry(name, sizes, status, detail, time.monotonic() - start))


def sequence_class_count(n: int, k: int, directed_counts, parallelogram_counts) -> int:
    """|T_{n,k}|: compositions of n into k part sizes, ends directed, middles
    parallelogram, size-1 parts the empty permutomino."""

    def ways(size: int, middle: bool) -> int:
        if size == 1:
            return 1
        return parallelogram_counts[size] if middle else directed_counts[size]

    total = 0
    for cut in _compositions(n, k):
        acc = 1
        for i, s in enumerate(cut):
            acc *= ways(s, middle=(0 < i < k - 1))
        total += acc
    return total


def _compositions(n: int, k: int):
    if k == 1:
        if n >= 1:
            yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def verify_identities(max_size: int, strict_paper: bool = False) -> VerificationReport:
    """Run every identity up to max_size (interval-oracle rows up to the oracle's bound).

    The oracle lists the convex permutominoes of each size once; the directed,
    parallelogram and symmetric rows count class flags over that listing.
    """
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    report = VerificationReport(max_size, strict_paper)
    sizes_all = range(1, max_size + 1)
    sizes_from2 = range(2, max_size + 1)
    geo_max = min(max_size, oracles.DEFAULT_BOUND)
    sizes_geo = range(1, geo_max + 1)

    stats = {n: counting.scan_stats(n) for n in sizes_all}

    def q(n):
        return stats[n]["square"]

    def b(n):
        return sum(v for k, v in stats[n]["components"].items() if k >= 2)

    def ctilde(n):
        return sum(stats[n]["ctilde_by_fixed"])

    def convex(n):
        return sum(v << k for k, v in enumerate(stats[n]["ctilde_by_fixed"]))

    def inter(n):
        return stats[n]["both_ways"]

    _check(
        report, "convex = sum of 2^k over free-fixed-point classes (closed form)",
        f"1..{max_size}",
        ((n, convex(n), formulas.convex_permutomino(n),
          f"n={n}: {convex(n)} = {formulas.convex_permutomino(n)}") for n in sizes_all),
    )
    shapes = {n: oracles.enumerate_convex(n) for n in sizes_geo}
    _check(
        report, "convex: fiber sum vs interval oracle", f"1..{geo_max}",
        ((n, convex(n), len(shapes[n]), f"n={n}: {convex(n)} = {len(shapes[n])}")
         for n in sizes_geo),
    )
    _check(
        report, "ctilde closed form (exact rational factor)", f"1..{max_size}",
        ((n, ctilde(n), formulas.ctilde(n), f"n={n}: {ctilde(n)} = {formulas.ctilde(n)}")
         for n in sizes_all),
    )
    _check(
        report, "ctilde = square - decomposable", f"2..{max_size}",
        ((n, ctilde(n), q(n) - b(n), f"n={n}: {ctilde(n)} = {q(n)} - {b(n)}")
         for n in sizes_from2),
    )
    _check(
        report, "square closed form", f"1..{max_size}",
        ((n, q(n), formulas.square_perms(n), f"n={n}: {q(n)} = {formulas.square_perms(n)}")
         for n in sizes_all),
    )
    _check(
        report, "decomposable closed form", f"2..{max_size}",
        ((n, b(n), formulas.decomposable_square(n),
          f"n={n}: {b(n)} = {formulas.decomposable_square(n)}") for n in sizes_from2),
    )
    _check(
        report, "square = both vertex classes united", f"2..{max_size}",
        ((n, q(n), 2 * ctilde(n) - inter(n), f"n={n}: {q(n)} = 2*{ctilde(n)} - {inter(n)}")
         for n in sizes_from2),
    )
    _check(
        report, "intersection = square - 2*decomposable", f"2..{max_size}",
        ((n, inter(n), q(n) - 2 * b(n), f"n={n}: {inter(n)} = {q(n)} - 2*{b(n)}")
         for n in sizes_from2),
    )
    _check(
        report, "realizable with rising ends = half the squares", f"2..{max_size}",
        ((n, 2 * stats[n]["assoc_first_lt_last"], q(n),
          f"n={n}: 2*{stats[n]['assoc_first_lt_last']} = {q(n)}") for n in sizes_from2),
    )
    _check(
        report, "one-direction surplus (definitional closed combination)", f"2..{max_size}",
        ((n, ctilde(n) - q(n) // 2, formulas.asym_surplus(n),
          f"n={n}: {ctilde(n) - q(n) // 2} = {formulas.asym_surplus(n)}") for n in sizes_from2),
    )
    _check(
        report, "square = convex + central binomial", f"2..{max_size}",
        ((n, q(n), convex(n) + comb(2 * (n - 2), n - 2),
          f"n={n}: {q(n)} = {convex(n)} + {comb(2 * (n - 2), n - 2)}") for n in sizes_from2),
    )
    _check(
        report, "convex = realizable + free-fixed-point surplus", f"2..{max_size}",
        ((n, convex(n), ctilde(n) + formulas.fixed_point_surplus(n),
          f"n={n}: {convex(n)} = {ctilde(n)} + {formulas.fixed_point_surplus(n)}")
         for n in sizes_from2),
    )

    def flag_counts(flag):
        return {n: sum(p.flags[flag] for p in shapes[n]) for n in sizes_geo}

    directed_counts = flag_counts("directed")
    parallelogram_counts = flag_counts("parallelogram")
    symmetric_counts = flag_counts("symmetric_xy")
    _check(
        report, "directed convex oracle vs closed form", f"1..{geo_max}",
        ((n, directed_counts[n], formulas.directed_convex(n),
          f"n={n}: {directed_counts[n]} = {formulas.directed_convex(n)}")
         for n in sizes_geo),
    )
    _check(
        report, "parallelogram oracle vs catalan", f"1..{geo_max}",
        ((n, parallelogram_counts[n], formulas.parallelogram(n),
          f"n={n}: {parallelogram_counts[n]} = {formulas.parallelogram(n)}")
         for n in sizes_geo),
    )
    _check(
        report, "symmetric oracle vs closed form", f"1..{geo_max}",
        ((n, symmetric_counts[n], formulas.symmetric(n),
          f"n={n}: {symmetric_counts[n]} = {formulas.symmetric(n)}")
         for n in sizes_geo),
    )

    def bijection_pairs():
        for n in range(2, geo_max + 1):
            by_k = stats[n]["components"]
            for k in range(2, n + 1):
                lhs = by_k.get(k, 0)
                rhs = sequence_class_count(n, k, directed_counts, parallelogram_counts)
                yield (n, lhs, rhs, f"n={n},k={k}: {lhs} = {rhs}")

    _check(report, "decomposable classes match permutomino sequences", f"2..{geo_max}",
           bijection_pairs())

    if strict_paper:
        def printed(fn, n):
            try:
                return fn(n)
            except formulas.NonIntegerResult as exc:
                return f"non-integer ({exc})"

        _discrepancy(
            report, "one-direction surplus closed form as printed", f"2..{max_size}",
            ((n, printed(formulas.half_diff_printed, n), formulas.asym_surplus(n))
             for n in sizes_from2),
        )
        _discrepancy(
            report, "intersection closed form as printed", f"2..{max_size}",
            ((n, printed(formulas.intersection_printed, n), q(n) - 2 * b(n))
             for n in sizes_from2),
        )

    return report
