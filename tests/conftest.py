import pathlib
import sys
from itertools import permutations

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))


def all_perms(n):
    """Every permutation of 1..n as a tuple."""
    return permutations(range(1, n + 1))


@pytest.fixture(scope="session")
def convex_by_size():
    """Interval-oracle listings of convex permutominoes, cached per size."""
    from references import sorted_walk

    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = sorted_walk(n)
        return cache[n]

    return get
