from itertools import product

import pytest

from conftest import all_perms
from permutomino import counting, perms
from permutomino.bijection import (
    PermutominoSequence,
    _unique_part,
    component_of,
    permutation_to_sequence,
    sequence_to_permutation,
    validate_sequence,
)
from permutomino.boundary import EMPTY, reflect_x, reflect_y
from permutomino.errors import Indecomposable, InvalidSequence, NotSquare
from permutomino.membership import fiber
from references import is_upper_unimodal, sorted_walk

BIG = (16, 15, 18, 19, 17, 14, 12, 13, 9, 7, 11, 10, 8, 3, 1, 6, 5, 2, 4)


def test_worked_example_both_directions():
    seq = permutation_to_sequence(BIG)
    assert [p.size for p in seq] == [5, 1, 2, 5, 6]
    assert seq.parts[0].pi2 == (3, 5, 4, 1, 2)
    assert seq.parts[3].pi2 == (2, 4, 5, 1, 3)
    assert seq.parts[4].pi2 == (4, 6, 1, 2, 5, 3)
    assert sequence_to_permutation(seq) == BIG


def test_trivial_sequences():
    assert sequence_to_permutation([EMPTY, EMPTY]) == (2, 1)
    assert permutation_to_sequence((2, 1)).parts == (EMPTY, EMPTY)
    assert permutation_to_sequence((3, 2, 1)).parts == (EMPTY, EMPTY, EMPTY)


def test_two_single_cells():
    cell = sorted_walk(2)[0]
    assert component_of(cell, last=False) == (1, 2)
    assert component_of(cell, last=True) == (1, 2)
    p = sequence_to_permutation([cell, cell])
    assert p == (3, 4, 1, 2)
    assert perms.is_square(p) and len(perms.decompose(p)) == 2
    assert permutation_to_sequence(p).parts == (cell, cell)


def test_domain_errors():
    with pytest.raises(NotSquare):
        permutation_to_sequence((5, 2, 3, 4, 1))
    with pytest.raises(Indecomposable):
        permutation_to_sequence((1, 2))
    with pytest.raises(InvalidSequence):
        validate_sequence([EMPTY])
    beta_shape = next(p for p in sorted_walk(3) if p.pi1 == (1, 3, 2))
    assert beta_shape.flags["directed"] and not beta_shape.flags["parallelogram"]
    with pytest.raises(InvalidSequence):
        PermutominoSequence((EMPTY, beta_shape, EMPTY))  # bad middle
    validate_sequence([beta_shape, EMPTY])  # fine at an end


def test_a_first_part_that_is_not_directed_is_refused():
    shape = next(p for p in sorted_walk(4) if not p.flags["directed"])
    assert shape.flags["convex"]
    with pytest.raises(InvalidSequence, match="part 1 must be directed"):
        PermutominoSequence((shape, shape))


def _sequence_pool(n, k, directed, parallelogram):
    """All of T_{n,k} from oracle listings (size-1 slot = the empty permutomino)."""

    def parts_of(size, middle):
        if size == 1:
            return [EMPTY]
        return parallelogram[size] if middle else directed[size]

    def compositions(total, slots):
        if slots == 1:
            yield (total,)
            return
        for head in range(1, total - slots + 2):
            for rest in compositions(total - head, slots - 1):
                yield (head,) + rest

    for sizes in compositions(n, k):
        pools = [parts_of(s, 0 < i < k - 1) for i, s in enumerate(sizes)]
        for parts in product(*pools):
            yield PermutominoSequence(tuple(parts))


@pytest.mark.parametrize("n", range(2, 7))
def test_round_trip_and_cardinalities(n, convex_by_size):
    directed, parallelogram = (
        {s: [p for p in convex_by_size(s) if p.flags[flag]] for s in range(2, n + 1)}
        for flag in ("directed", "parallelogram"))

    squares_by_k = {}
    for p in all_perms(n):
        if perms.is_square(p):
            k = len(perms.decompose(p))
            if k >= 2:
                squares_by_k.setdefault(k, set()).add(p)

    for k in range(2, n + 1):
        sequences = list(_sequence_pool(n, k, directed, parallelogram))
        assert len(sequences) == len(squares_by_k.get(k, set()))
        image = set()
        for seq in sequences:
            p = sequence_to_permutation(seq)
            assert permutation_to_sequence(p).parts == seq.parts  # full round trip
            image.add(p)
        assert image == squares_by_k.get(k, set())

    for k, members in squares_by_k.items():
        for p in members:
            seq = permutation_to_sequence(p)
            assert len(seq) == k and sum(part.size for part in seq) == n
            assert sequence_to_permutation(seq) == p


@pytest.mark.parametrize("n", range(2, 7))
def test_components_are_square_with_unimodal_envelopes(n):
    for p in all_perms(n):
        if not perms.is_square(p) or perms.is_indecomposable(p):
            continue
        for part in perms.decompose(p):
            env = perms.envelopes(part)
            assert is_upper_unimodal(env.upper.values)
            assert perms.is_lower_unimodal(env.lower.values)


def _part_by_fiber_scan(component, last, middle):
    """The unique part of a component, picked out of its whole reflected fiber."""
    reflect = reflect_x if last else reflect_y
    wanted = "parallelogram" if middle else "directed"
    candidates = [q for q in map(reflect, fiber(component)) if q.flags[wanted]]
    assert len(candidates) == 1, (component, wanted, len(candidates))
    return candidates[0]


def test_unique_part_matches_the_fiber_scan():
    roles = set()
    for n in range(2, 10):
        for p in perms.square_permutations(n):
            components = perms.decompose(p)
            k = len(components)
            for i, comp in enumerate(components):
                if k > 1 and len(comp) > 1:  # a size-1 component is the empty part
                    roles.add((comp, i == k - 1, 0 < i < k - 1))
    assert len(roles) == 4902
    for comp, last, middle in roles:
        assert _unique_part(comp, last, middle) == _part_by_fiber_scan(comp, last, middle)
