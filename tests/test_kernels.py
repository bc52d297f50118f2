"""The kernels: the generator fold against a fold over S_n with definitions
of its own, and the state-counting kernel against the generator fold.  The
fold walks the value-level reference search, not the library's generator,
so the count table is not checked against the moves it shares with it."""
import pytest

from conftest import all_perms
from permutomino import _kernels, counting, perms
from permutomino._kernels import COUNT_BOUND
from permutomino.errors import SizeTooLarge
from permutomino.membership import free_fixed_values
from permutomino.perms import is_indecomposable, reversal, split_points
from references import reference_square_permutations


def scan_stats(n: int) -> dict:
    """The count_stats record of size n, by one pass over the square
    permutations the reference search yields, with the library's predicates."""
    out = _empty_record()
    for p in reference_square_permutations(n):
        _fold(out, p, len(split_points(p)) + 1, lambda q: len(free_fixed_values(q)),
              lambda q: is_indecomposable(reversal(q)))
    return out


def _empty_record() -> dict:
    """Every count_stats field, at zero."""
    keys = ("square", "decomposable", "components", "ctilde", "by_free_fixed_points", "convex",
            "both_ways", "assoc_first_lt_last")
    return {key: {} if key in ("components", "by_free_fixed_points") else 0 for key in keys}


def _fold(out: dict, p, comps: int, free, both_ways) -> None:
    """Add square permutation p, of comps components, to the record, each
    field by its definition.  free(p), its number of free fixed points, and
    both_ways(p), whether its reversal is indecomposable too, are asked of
    indecomposable p only."""
    out["square"] += 1
    out["components"][comps] = out["components"].get(comps, 0) + 1
    if comps >= 2:
        out["decomposable"] += 1
        return
    k = free(p)
    out["ctilde"] += 1
    out["by_free_fixed_points"][k] = out["by_free_fixed_points"].get(k, 0) + 1
    out["convex"] += 2 ** k
    out["both_ways"] += both_ways(p)
    out["assoc_first_lt_last"] += p[0] < p[-1]


def components(p):
    """Indecomposable parts: one more than the proper prefixes holding the top values."""
    n = len(p)
    return 1 + sum(min(p[:r]) == n - r + 1 for r in range(1, n))


def free_fixed(p):
    """Fixed points f with 1 < f < n that exceed every earlier entry."""
    n = len(p)
    return sum(v == i + 1 and 1 < v < n and v == max(p[: i + 1]) for i, v in enumerate(p))


def reference_stats(n):
    """Recompute scan_stats over all of S_n, tuple by tuple.

    Only the square filter comes from the library (the kernel generates the
    square permutations instead); the component and free-fixed-point counts
    are the ones above, so the kernel is checked against a second definition.
    """
    out = _empty_record()
    for p in all_perms(n):
        if perms.is_square(p):
            _fold(out, p, components(p), free_fixed, lambda q: components(q[::-1]) == 1)
    return out


# the ids keep the "python-" prefix they have always had: the kernels are pure Python
@pytest.mark.parametrize("n", range(1, 8), ids=lambda n: f"python-{n}")
def test_scan_matches_library_fold(n):
    assert scan_stats(n) == reference_stats(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_count_stats_matches_the_generator_fold(n):
    counted, folded = _kernels.count_stats(n), scan_stats(n)
    assert counted.keys() == folded.keys()
    for field in folded:
        assert counted[field] == folded[field], field
        if isinstance(folded[field], dict):  # the fold's nonzero entries, by increasing key
            assert list(counted[field]) == sorted(folded[field]), field


def test_smaller_sizes_read_the_table_a_larger_size_filled():
    _kernels.count_stats(12)
    filled = _kernels._walk.cache_info().currsize
    for n in range(1, 13):
        _kernels.count_stats(n)
    assert _kernels._walk.cache_info().currsize == filled


def test_count_stats_refuses_sizes_the_packing_width_cannot_hold():
    with pytest.raises(SizeTooLarge):
        _kernels.count_stats(COUNT_BOUND + 1)
    with pytest.raises(ValueError):
        _kernels.count_stats(0)


def test_agreement_counts_are_square_counts():
    for n, q in [(1, 1), (2, 2), (3, 6), (4, 24), (5, 104), (6, 464)]:
        out = counting.square_agreement(n)
        assert out["by_envelope"] == out["by_patterns"] == q
        assert out["disagreements"] == 0
