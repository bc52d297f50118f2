"""Acceptance criteria, one test per criterion, one printed pass/fail line each.

Every comparison is exact; the two timed criteria assert their stated wall
budgets.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import time

from conftest import all_perms
from permutomino import counting, formulas, perms
from permutomino.bijection import permutation_to_sequence, sequence_to_permutation
from permutomino.membership import (
    fiber,
    free_fixed_points,
    is_associated,
    is_associated_pi2,
)
from permutomino.verify import verify_identities
from references import sorted_walk

CONVEX_COUNTS = [1, 1, 4, 18, 84, 394, 1836, 8468]
CTILDE_COUNTS = [1, 1, 3, 13, 62, 301, 1450, 6882]
SQUARE_COUNTS = [1, 2, 6, 24, 104, 464, 2088, 9392]
DECOMPOSABLE_COUNTS = [0, 1, 3, 11, 42, 163, 638, 2510]


def report(number: int, description: str):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"\nACCEPTANCE {number} {status}: {description}")
            return False

    return _Reporter()


def test_criterion_1_convex_counts():
    with report(1, "convex permutomino counts 1,1,4,18,84,394,1836,8468 for sizes 1..8; "
                   "fibers < 60 s; interval oracle confirms sizes <= 6"):
        start = time.monotonic()
        got = [counting.scan_stats(n)["convex"] for n in range(1, 9)]
        elapsed = time.monotonic() - start
        assert got == CONVEX_COUNTS, got
        assert elapsed < 60, f"fibers enumeration took {elapsed:.1f}s"
        oracle = [sum(1 for _ in counting.geo_walk("convex", n)) for n in range(1, 7)]
        assert oracle == CONVEX_COUNTS[:6], oracle


def test_criterion_2_ctilde_counts_and_closed_form():
    with report(2, "realizable-permutation counts 1,1,3,13,62,301,1450,6882 for sizes 1..8, "
                   "matching the exact-rational closed form at every size"):
        got = [counting.scan_stats(n)["ctilde"] for n in range(1, 9)]
        assert got == CTILDE_COUNTS, got
        assert [formulas.ctilde(n) for n in range(1, 9)] == CTILDE_COUNTS


def test_criterion_3_square_and_decomposable_counts():
    with report(3, "square counts 1,2,6,24,104,464,2088,9392 and decomposable counts "
                   "1,3,11,42,163,638,2510, with the (4^m + C(2m,m))/2 form"):
        stats = [counting.scan_stats(n) for n in range(1, 9)]
        assert [s["square"] for s in stats] == SQUARE_COUNTS
        assert [s["decomposable"] for s in stats] == DECOMPOSABLE_COUNTS
        for n in range(2, 9):
            assert stats[n - 1]["decomposable"] == formulas.decomposable_square(n)


def test_criterion_4_fiber_law_and_set_equality():
    with report(4, "fiber sizes are 2^|free fixed points| and the union of fibers equals "
                   "the brute-force permutomino set for sizes <= 6 (set equality)"):
        for n in range(1, 7):
            union = []
            for p in all_perms(n):
                if not is_associated(p):
                    continue
                shapes = fiber(p)
                assert len(shapes) == 2 ** len(free_fixed_points(p)), p
                assert all(s.pi1 == p for s in shapes)
                union.extend(shapes)
            assert len(union) == len(set(union))  # fibers are disjoint
            assert set(union) == set(sorted_walk(n)), f"n={n}"


def test_criterion_5_fiber_sum_identity():
    with report(5, "convex count equals the sum of 2^k over k-free-fixed-point classes "
                   "for sizes <= 8; size-4 stratification is {0:10, 1:2, 2:1}"):
        for n in range(1, 9):
            stats = counting.scan_stats(n)
            by_k = stats["by_free_fixed_points"]
            fiber_sum = sum(v << k for k, v in by_k.items())
            assert stats["convex"] == fiber_sum == CONVEX_COUNTS[n - 1], n
        assert counting.scan_stats(4)["by_free_fixed_points"] == {0: 10, 1: 2, 2: 1}


def test_criterion_6_square_union_and_intersection():
    with report(6, "square set equals the union of the two realizable classes and "
                   "|intersection| = Q - 2B for sizes <= 7; size-4 intersection is "
                   "{(2,4,1,3), (3,1,4,2)}"):
        for n in range(2, 8):
            inter = 0
            for p in all_perms(n):
                a, b = is_associated(p), is_associated_pi2(p)
                assert perms.is_square(p) == (a or b), p
                inter += a and b
            q = SQUARE_COUNTS[n - 1]
            bb = DECOMPOSABLE_COUNTS[n - 1]
            assert inter == q - 2 * bb, n
        four = {p for p in all_perms(4) if is_associated(p) and is_associated_pi2(p)}
        assert four == {(2, 4, 1, 3), (3, 1, 4, 2)}


def test_criterion_7_square_test_equivalence():
    with report(7, "envelope-based and 16-pattern-based square verdicts agree for every "
                   "permutation of every size <= 8, inside 120 s, and the record-based "
                   "square generator yields as many permutations"):
        start = time.monotonic()
        for n in range(1, 9):
            out = counting.square_agreement(n)
            assert out["disagreements"] == 0, n
            assert out["by_envelope"] == out["by_patterns"] == SQUARE_COUNTS[n - 1]
            assert sum(1 for _ in perms.square_permutations(n)) == SQUARE_COUNTS[n - 1], n
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"dual square scan took {elapsed:.1f}s"


def test_criterion_8_bijection():
    with report(8, "decomposable-square classes and permutomino sequences are in "
                   "bijection for sizes <= 6, and the 19-element worked example "
                   "reproduces verbatim"):
        directed = {s: len(counting.listing("directed", s)) for s in range(2, 7)}
        parallelogram = {s: len(counting.listing("parallelogram", s)) for s in range(2, 7)}
        from permutomino.verify import sequence_class_count

        for n in range(2, 7):
            by_k = counting.scan_stats(n)["components"]
            for k in range(2, n + 1):
                assert by_k.get(k, 0) == sequence_class_count(
                    n, k, directed, parallelogram
                ), (n, k)
            for p in all_perms(n):
                if perms.is_square(p) and not perms.is_indecomposable(p):
                    assert sequence_to_permutation(permutation_to_sequence(p)) == p

        big = (16, 15, 18, 19, 17, 14, 12, 13, 9, 7, 11, 10, 8, 3, 1, 6, 5, 2, 4)
        seq = permutation_to_sequence(big)
        assert [p.size for p in seq] == [5, 1, 2, 5, 6]
        assert sequence_to_permutation(seq) == big


def test_criterion_9_class_counts():
    with report(9, "oracle class counts: directed 1,1,3,10,35; parallelogram 1,1,2,5,14; "
                   "symmetric 1,1,2,4,10,22"):
        directed = [len(counting.listing("directed", n)) for n in range(1, 6)]
        assert directed == [1, 1, 3, 10, 35], directed
        para = [len(counting.listing("parallelogram", n)) for n in range(1, 6)]
        assert para == [1, 1, 2, 5, 14], para
        sym = [len(counting.listing("symmetric", n)) for n in range(1, 7)]
        assert sym == [1, 1, 2, 4, 10, 22], sym


def test_criterion_10_strict_paper_discrepancies():
    with report(10, "strict mode reports the two printed closed forms as discrepant while "
                    "the definitional surplus reproduces 1,10,69,406 at sizes 4..7; "
                    "default mode passes"):
        assert [formulas.asym_surplus(n) for n in range(4, 8)] == [1, 10, 69, 406]
        default = verify_identities(4)
        assert default.ok
        assert not [e for e in default.entries if e.status == "discrepant"]
        strict = verify_identities(4, strict_paper=True)
        assert strict.ok  # discrepant rows do not fail the run
        discrepant = {e.name for e in strict.entries if e.status == "discrepant"}
        assert discrepant == {
            "one-direction surplus closed form as printed",
            "intersection closed form as printed",
        }
