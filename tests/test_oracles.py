import itertools

import pytest

from permutomino import counting, oracles
from permutomino.boundary import EMPTY, from_boundary_word
from permutomino.errors import NotClosed, NotPermutomino, SizeTooLarge
from references import generated_interval_stacks, rotated_stack_word, sorted_walk, word_from_cells


def test_convex_counts_match_published_terms():
    assert [len(sorted_walk(n)) for n in range(1, 7)] == [1, 1, 4, 18, 84, 394]


def test_empty_size_one():
    assert sorted_walk(1) == [EMPTY]
    assert sorted_walk(1, convex=False) == [EMPTY]


def test_class_counts_match_table():
    assert [len(counting.listing("directed", n)) for n in range(1, 7)] == [1, 1, 3, 10, 35, 126]
    assert [len(counting.listing("parallelogram", n)) for n in range(1, 7)] == [1, 1, 2, 5, 14, 42]
    assert [len(counting.listing("symmetric", n)) for n in range(1, 7)] == [1, 1, 2, 4, 10, 22]


def test_column_convex_contains_convex():
    for n in range(2, 6):
        cc = set(sorted_walk(n, convex=False))
        assert set(sorted_walk(n)) <= cc
        assert all(p.flags["column_convex"] for p in cc)


def test_column_convex_worked_example():
    shapes = [p for p in sorted_walk(6, convex=False) if p.pi1 == (1, 6, 2, 5, 3, 4)]
    assert len(shapes) == 4
    assert sum(1 for p in shapes if p.is_convex) == 1


def test_listings_are_sorted_and_validated():
    listing = sorted_walk(5)
    assert listing == sorted(listing, key=lambda p: p.sort_key())
    for p in listing:
        assert p.size == 5
        assert len(p.salient) - len(p.reentrant) == 4


def test_size_bound():
    """The oracle's one caller refuses a size over its bound; the walk itself
    takes any size."""
    with pytest.raises(SizeTooLarge, match="interval oracle is bounded at size 6, got 7"):
        counting.geo_walk("convex", 7)
    with pytest.raises(SizeTooLarge):
        counting.geo_walk("column-convex", 9)
    assert len(sorted_walk(7)) == 1836


def test_walk_checks_its_bounds_at_the_call():
    """The walk is lazy, but a bad size is refused before the first shape."""
    for convex, name in ((True, "convex"), (False, "column-convex")):
        with pytest.raises(SizeTooLarge):
            counting.geo_walk(name, 7)
        with pytest.raises(ValueError, match="size must be at least 1"):
            oracles.walk(0, convex)


@pytest.mark.parametrize("convex", [True, False])
def test_walk_validates_every_stack_in_stack_order(convex, monkeypatch):
    words = []

    def validate(word):
        words.append(word)
        return from_boundary_word(word)

    monkeypatch.setattr(oracles, "from_boundary_word", validate)
    shapes = list(oracles.walk(5, convex))
    assert words == [oracles._stack_word(*stack) for stack in oracles._interval_stacks(5, convex)]
    assert [p.word for p in shapes] == words
    assert sorted(shapes, key=lambda p: p.sort_key()) == sorted_walk(5, convex)


def test_walk_raises_on_a_rejected_stack(monkeypatch):
    """A stack whose word fails validation is an error, not a skipped candidate."""
    monkeypatch.setattr(oracles, "_stack_word", lambda bottoms, tops: "NESWW")
    with pytest.raises(NotClosed):
        next(oracles.walk(3))


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
    assert accepted == set(sorted_walk(n, convex=False))
    assert {p for p in accepted if p.is_convex} == set(sorted_walk(n))


def listed_stacks(n, convex):
    """The oracle's stacks as lists of cell intervals (lo, hi), with their words."""
    return [([(lo, top - 1) for lo, top in zip(bottoms, tops)], oracles._stack_word(bottoms, tops))
            for bottoms, tops in oracles._interval_stacks(n, convex)]


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
        # the stacks are values: list() keeps every one, each distinct
        stacks = list(oracles._interval_stacks(n, convex))
        assert len(set(stacks)) == len(stacks) == len(expected)
        if n == 6:
            assert len(stacks) == (394 if convex else 1262)
        assert sorted(listed_stacks(n, convex)) == expected
    assert len(stacks) == count
    listing = sorted_walk(7, convex)
    assert sorted(p.word for p in listing) == sorted(word for _, word in expected)


def test_column_convex_counts():
    assert [len(sorted_walk(n, convex=False)) for n in range(1, 7)] == [1, 1, 4, 22, 152, 1262]
