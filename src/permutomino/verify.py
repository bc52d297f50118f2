"""Cross-checks every counting identity against independent enumeration.

The identities are a table of rows: a name, a range of sizes and check(n, s),
s the count record of size n, which returns (lhs, rhs), or (lhs, rhs, shown)
when the detail names the terms.
One runner, _run, makes each row a report entry: 'pass', or 'fail' with both
values at the first size where lhs != rhs, or with the fraction at the first
size where a closed form is not an integer.  A printed row (strict_paper only)
checks a closed form exactly as the paper prints it, where a mismatch is
expected: it lists its first three mismatches as 'discrepant', not a failure.
"""
from __future__ import annotations

from typing import NamedTuple

from . import counting, formulas
from .errors import check_size


class Entry(NamedTuple):
    name: str
    sizes: str
    status: str  # pass | fail | discrepant
    detail: str = ""


class VerificationReport(NamedTuple):
    max_size: int
    strict_paper: bool
    entries: tuple[Entry, ...] = ()

    @property
    def ok(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    def as_dict(self) -> dict:
        return {
            "max_size": self.max_size,
            "strict_paper": self.strict_paper,
            "ok": self.ok,
            "entries": [e._asdict() for e in self.entries],
        }


def _run(name: str, sizes: range, check, records: dict, printed: bool = False) -> Entry:
    """Evaluate one row over its sizes (see the module docstring)."""
    status, detail, mismatches = "pass", "", []
    for n in sizes:
        try:
            lhs, rhs, *shown = check(n, records[n])
        except formulas.NonIntegerResult as exc:  # a closed form that does not divide
            status, detail, mismatches = "fail", f"n={n}: non-integer ({exc})", []
            break
        if printed:
            if lhs != rhs:
                mismatches.append(f"n={n}: printed {lhs} vs definitional {rhs}")
            continue
        detail = shown[0] if shown else f"n={n}: {lhs} = {rhs}"
        if lhs != rhs:
            status, detail = "fail", f"n={n}: {lhs} != {rhs} ({detail})"
            break
    if mismatches:
        status, detail = "discrepant", "; ".join(mismatches[:3])
    sizes_text = f"{sizes.start}..{sizes[-1]}"
    return Entry(name, sizes_text, status, detail)


def _printed(form, n: int):
    """A closed form as printed; a non-integer value is shown, not raised."""
    try:
        return form(n)
    except formulas.NonIntegerResult as exc:
        return f"non-integer ({exc})"


def sequence_class_count(n: int, k: int, directed_counts, parallelogram_counts) -> int:
    """|T_{n,k}|: sequences of k permutominoes of total size n, ends directed,
    middles parallelogram, size-1 parts the empty permutomino.

    A convolution over part sizes, each at most n - k + 1.
    """
    end, middle = [0] * (n + 1), [0] * (n + 1)
    end[1] = middle[1] = 1
    for size in range(2, n - k + 2):
        end[size], middle[size] = directed_counts[size], parallelogram_counts[size]
    ways = [1] + [0] * n  # ways[t]: sequences of the parts placed so far, of total size t
    for part in ([end] + [middle] * (k - 2) + [end])[:k]:
        ways = [sum(ways[t - s] * part[s] for s in range(1, t + 1)) for t in range(n + 1)]
    return ways[n]


def verify_identities(max_size: int, strict_paper: bool = False) -> VerificationReport:
    """Run every identity up to max_size (interval-oracle rows up to counting.ORACLE_BOUND).

    Each size is walked by the oracle once.  Raises SizeTooLarge before any
    count when max_size > counting.COUNT_BOUND.
    """
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    check_size(max_size, counting.COUNT_BOUND, "counts are")
    every, from2 = range(1, max_size + 1), range(2, max_size + 1)
    geo = range(1, min(max_size, counting.ORACLE_BOUND) + 1)

    # one count record per size, read as `enumerate` reads it, and one oracle walk
    stats = {n: counting.scan_stats(n) for n in every}
    shapes = counting.oracle_counts(geo)

    def bijection(n, s):
        """The first k where |decomposable with k components| != |T_{n,k}|, else k = n."""
        for k in range(2, n + 1):
            lhs = s["components"].get(k, 0)
            rhs = sequence_class_count(n, k, shapes["directed"], shapes["parallelogram"])
            if lhs != rhs or k == n:
                return lhs, rhs, f"n={n},k={k}: {lhs} = {rhs}"

    rows = [
        ("convex = sum of 2^k over free-fixed-point classes (closed form)", every,
         lambda n, s: (s["convex"], formulas.convex_permutomino(n))),
        ("convex: fiber sum vs interval oracle", geo,
         lambda n, s: (s["convex"], shapes["convex"][n])),
        ("ctilde closed form (exact rational factor)", every,
         lambda n, s: (s["ctilde"], formulas.ctilde(n))),
        ("ctilde = square - decomposable", from2,
         lambda n, s: (s["ctilde"], s["square"] - s["decomposable"],
                       f"n={n}: {s['ctilde']} = {s['square']} - {s['decomposable']}")),
        ("square closed form", every, lambda n, s: (s["square"], formulas.square_perms(n))),
        ("decomposable closed form", from2,
         lambda n, s: (s["decomposable"], formulas.decomposable_square(n))),
        ("square = both vertex classes united", from2,
         lambda n, s: (s["square"], 2 * s["ctilde"] - s["both_ways"],
                       f"n={n}: {s['square']} = 2*{s['ctilde']} - {s['both_ways']}")),
        ("intersection = square - 2*decomposable", from2,
         lambda n, s: (s["both_ways"], s["square"] - 2 * s["decomposable"],
                       f"n={n}: {s['both_ways']} = {s['square']} - 2*{s['decomposable']}")),
        ("realizable with rising ends = half the squares", from2,
         lambda n, s: (2 * s["assoc_first_lt_last"], s["square"],
                       f"n={n}: 2*{s['assoc_first_lt_last']} = {s['square']}")),
        ("one-direction surplus (definitional closed combination)", from2,
         lambda n, s: (s["ctilde"] - s["square"] // 2, formulas.asym_surplus(n))),
        ("square = convex + central binomial", from2,
         lambda n, s: (s["square"], s["convex"] + (c := formulas.central_binomial(n - 2)),
                       f"n={n}: {s['square']} = {s['convex']} + {c}")),
        ("convex = realizable + free-fixed-point surplus", from2,
         lambda n, s: (s["convex"], s["ctilde"] + (surplus := formulas.fixed_point_surplus(n)),
                       f"n={n}: {s['convex']} = {s['ctilde']} + {surplus}")),
        ("directed convex oracle vs closed form", geo,
         lambda n, s: (shapes["directed"][n], formulas.directed_convex(n))),
        ("parallelogram oracle vs catalan", geo,
         lambda n, s: (shapes["parallelogram"][n], formulas.parallelogram(n))),
        ("symmetric oracle vs closed form", geo,
         lambda n, s: (shapes["symmetric"][n], formulas.symmetric(n))),
        ("decomposable classes match permutomino sequences", range(2, geo.stop), bijection),
    ]
    printed_rows = [
        ("one-direction surplus closed form as printed", from2,
         lambda n, s: (_printed(formulas.half_diff_printed, n), formulas.asym_surplus(n))),
        ("intersection closed form as printed", from2,
         lambda n, s: (_printed(formulas.intersection_printed, n),
                       s["square"] - 2 * s["decomposable"])),
    ]
    entries = [_run(*row, stats) for row in rows]
    if strict_paper:
        entries += [_run(*row, stats, printed=True) for row in printed_rows]
    return VerificationReport(max_size, strict_paper, tuple(entries))
