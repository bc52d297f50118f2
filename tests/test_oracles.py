import itertools

import pytest

from permutomino import counting, oracles
from permutomino.boundary import EMPTY, from_boundary_word
from permutomino.errors import NotPermutomino, SizeTooLarge
from references import generated_interval_stacks, rotated_stack_word, word_from_cells


def test_convex_counts_match_published_terms():
    assert [len(oracles.enumerate_convex(n)) for n in range(1, 7)] == [1, 1, 4, 18, 84, 394]


def test_empty_size_one():
    assert oracles.enumerate_convex(1) == [EMPTY]
    assert oracles.enumerate_column_convex(1) == [EMPTY]


def test_class_counts_match_table():
    assert [len(counting.listing("directed", n)) for n in range(1, 7)] == [1, 1, 3, 10, 35, 126]
    assert [len(counting.listing("parallelogram", n)) for n in range(1, 7)] == [1, 1, 2, 5, 14, 42]
    assert [len(counting.listing("symmetric", n)) for n in range(1, 7)] == [1, 1, 2, 4, 10, 22]


def test_column_convex_contains_convex():
    for n in range(2, 6):
        cc = set(oracles.enumerate_column_convex(n))
        assert set(oracles.enumerate_convex(n)) <= cc
        assert all(p.flags["column_convex"] for p in cc)


def test_column_convex_worked_example():
    shapes = [p for p in oracles.enumerate_column_convex(6) if p.pi1 == (1, 6, 2, 5, 3, 4)]
    assert len(shapes) == 4
    assert sum(1 for p in shapes if p.is_convex) == 1


def test_listings_are_sorted_and_validated():
    listing = oracles.enumerate_convex(5)
    assert listing == sorted(listing, key=lambda p: p.sort_key())
    for p in listing:
        assert p.size == 5
        assert len(p.salient) - len(p.reentrant) == 4


def test_size_bound():
    with pytest.raises(SizeTooLarge):
        oracles.enumerate_convex(7)
    with pytest.raises(SizeTooLarge):
        oracles.enumerate_column_convex(9)
    assert len(oracles.enumerate_convex(7, bound=7)) == 1836


def stack_cells(stack):
    return frozenset((x, y) for x, (lo, hi) in enumerate(stack, 1) for y in range(lo, hi + 1))


@pytest.mark.parametrize("n", range(2, 6))
def test_prune_drops_no_permutomino(n):
    # every tuple of n-1 column intervals in the box, serialized and validated
    # without the oracle's pruning or its direct word
    side = n - 1
    intervals = [(lo, hi) for lo in range(1, side + 1) for hi in range(lo, side + 1)]
    accepted = set()
    for stack in itertools.product(intervals, repeat=side):
        try:
            accepted.add(from_boundary_word(word_from_cells(stack_cells(stack))))
        except (NotPermutomino, ValueError):
            continue
    assert accepted == set(oracles.enumerate_column_convex(n))
    assert {p for p in accepted if p.is_convex} == set(oracles.enumerate_convex(n))


def listed_stacks(n, convex):
    """The oracle's stacks as lists of cell intervals (lo, hi), with their words."""
    out = []

    def leaf(bottoms, tops):
        out.append(([(lo, top - 1) for lo, top in zip(bottoms, tops)],
                    oracles._stack_word(bottoms, tops)))

    oracles._interval_stacks(n, convex, leaf)
    return out


@pytest.mark.parametrize("convex", [True, False])
def test_generator_yields_only_permutominoes(convex):
    for n in range(2, 7):
        for stack, word in listed_stacks(n, convex):
            assert word == word_from_cells(stack_cells(stack))
            assert from_boundary_word(word).size == n


@pytest.mark.parametrize("convex, count", [(True, 1836), (False, 12232)])
def test_stacks_and_words_match_the_reference_generator(convex, count):
    for n in range(2, 8):
        expected = sorted((stack, rotated_stack_word(stack))
                          for stack in generated_interval_stacks(n, convex))
        assert sorted(listed_stacks(n, convex)) == expected
    assert len(expected) == count
    listing = (oracles.enumerate_convex if convex else oracles.enumerate_column_convex)(7, bound=7)
    assert sorted(p.word for p in listing) == sorted(word for _, word in expected)


def test_column_convex_counts():
    assert [len(oracles.enumerate_column_convex(n)) for n in range(1, 7)] == [1, 1, 4, 22, 152, 1262]
