"""Backend parity and scan-vs-library agreement for the kernel twins."""
import pytest

from conftest import all_perms
from permutomino import perms
from permutomino._kernels import BACKEND, backends
from permutomino.membership import _free_fixed_values

MODS = backends()


def reference_stats(n):
    """Recompute scan_stats with the public library functions, tuple by tuple."""
    out = {
        "square": 0,
        "components": {},
        "ctilde_by_fixed": [0] * max(n - 1, 1),
        "both_ways": 0,
        "assoc_first_lt_last": 0,
    }
    for p in all_perms(n):
        if not perms.is_square(p):
            continue
        out["square"] += 1
        k = len(perms.decompose(p))
        out["components"][k] = out["components"].get(k, 0) + 1
        if k == 1:
            out["ctilde_by_fixed"][len(_free_fixed_values(p))] += 1
            if perms.is_indecomposable(perms.reversal(p)):
                out["both_ways"] += 1
            if p[0] < p[-1]:
                out["assoc_first_lt_last"] += 1
    return out


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("name", sorted(MODS))
def test_scan_matches_library_fold(name, n):
    assert MODS[name].scan_stats(n) == reference_stats(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_backend_parity_scan(n):
    if len(MODS) < 2:
        pytest.skip("compiled backend not built")
    results = [MODS[name].scan_stats(n) for name in sorted(MODS)]
    assert all(r == results[0] for r in results)


@pytest.mark.parametrize("n", range(1, 8))
def test_backend_parity_agreement(n):
    if len(MODS) < 2:
        pytest.skip("compiled backend not built")
    results = [MODS[name].square_agreement(n) for name in sorted(MODS)]
    assert all(r == results[0] for r in results)
    assert results[0]["disagreements"] == 0


@pytest.mark.parametrize("name", sorted(MODS))
def test_prefix_blocks_partition_the_scan(name):
    mod = MODS[name]
    n = 6
    whole = mod.scan_stats(n)
    blocks = [mod.scan_stats(n, first) for first in range(1, n + 1)]
    assert sum(b["square"] for b in blocks) == whole["square"]
    assert sum(b["both_ways"] for b in blocks) == whole["both_ways"]
    merged = [0] * (n - 1)
    for b in blocks:
        for i, v in enumerate(b["ctilde_by_fixed"]):
            merged[i] += v
    assert merged == list(whole["ctilde_by_fixed"])


def test_selected_backend_is_sane():
    assert BACKEND in MODS


def test_agreement_counts_are_square_counts():
    mod = MODS[BACKEND]
    for n, q in [(1, 1), (2, 2), (3, 6), (4, 24), (5, 104), (6, 464)]:
        out = mod.square_agreement(n)
        assert out["by_envelope"] == out["by_patterns"] == q
        assert out["disagreements"] == 0
