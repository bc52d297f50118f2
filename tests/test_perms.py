import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import all_perms
from permutomino import perms
from references import is_upper_unimodal, reference_square_permutations

BIG = (8, 6, 1, 9, 11, 14, 2, 16, 15, 13, 12, 10, 7, 3, 5, 4)


def random_perm(max_n=9):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ).map(tuple)


def test_as_perm_validates():
    assert perms.as_perm([2, 1]) == (2, 1)
    with pytest.raises(ValueError):
        perms.as_perm([])
    with pytest.raises(ValueError):
        perms.as_perm([1, 3])
    with pytest.raises(ValueError):
        perms.as_perm([1, 1])
    for not_integers in ([1.7, 2.2], [2.0, 1.0], "21", ["1"], [1, None]):  # not rounded or parsed
        with pytest.raises(ValueError):
            perms.as_perm(not_integers)


@pytest.mark.parametrize(
    "p,expected",
    [
        ((1,), (1,)),
        ((2, 4, 1, 3), (3, 1, 4, 2)),
        (BIG, tuple(BIG[len(BIG) - i] for i in range(1, len(BIG) + 1))),
    ],
)
def test_reversal_examples(p, expected):
    assert perms.reversal(p) == expected


def test_reversal_big_frozen():
    # positionwise application of the definition, frozen
    assert perms.reversal(BIG) == (4, 5, 3, 7, 10, 12, 13, 15, 16, 2, 14, 11, 9, 1, 6, 8)


@pytest.mark.parametrize(
    "p,expected",
    [
        ((1,), (1,)),
        ((1, 2, 3), (3, 2, 1)),
        ((4, 6, 1, 2, 5, 3), (3, 1, 6, 5, 2, 4)),
    ],
)
def test_complement_examples(p, expected):
    assert perms.complement(p) == expected


@given(random_perm())
def test_reversal_complement_involutions_commute(p):
    assert perms.reversal(perms.reversal(p)) == p
    assert perms.complement(perms.complement(p)) == p
    assert perms.reversal(perms.complement(p)) == perms.complement(perms.reversal(p))


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ((1,), (1,), (2, 1)),
        ((1, 2), (1,), (2, 3, 1)),
        # the stated result of this worked example fixes the second operand as
        # (3,1,2,4); the caption's (3,2,1,4) contradicts the definition
        ((1, 5, 4, 3, 2), (3, 1, 2, 4), (5, 9, 8, 7, 6, 3, 1, 2, 4)),
    ],
)
def test_direct_difference_examples(a, b, expected):
    assert perms.direct_difference(a, b) == expected


@pytest.mark.parametrize(
    "p,expected",
    [
        ((5, 9, 8, 7, 6, 3, 1, 2, 4), {5}),
        (tuple(range(1, 8)), set()),
        ((3, 2, 1), {1, 2}),
    ],
)
def test_split_points_examples(p, expected):
    assert perms.split_points(p) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_split_points_characterization_exhaustive(n):
    # { r : prefix holds the top r values } == { r : prefix min == n-r+1 }
    for p in all_perms(n):
        by_set = {
            r for r in range(1, n) if set(p[:r]) == set(range(n - r + 1, n + 1))
        }
        by_min = {r for r in range(1, n) if min(p[:r]) == n - r + 1}
        assert by_set == by_min == perms.split_points(p)


@pytest.mark.parametrize(
    "p,expected",
    [
        ((2, 1), ((1,), (1,))),
        ((3, 2, 1), ((1,), (1,), (1,))),
        (
            (16, 15, 18, 19, 17, 14, 12, 13, 9, 7, 11, 10, 8, 3, 1, 6, 5, 2, 4),
            ((2, 1, 4, 5, 3), (1,), (1, 2), (3, 1, 5, 4, 2), (3, 1, 6, 5, 2, 4)),
        ),
    ],
)
def test_decompose_examples(p, expected):
    assert perms.decompose(p) == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_decompose_fold_exhaustive(n):
    from functools import reduce

    for p in all_perms(n):
        parts = perms.decompose(p)
        assert all(perms.is_indecomposable(q) for q in parts)
        assert reduce(perms.direct_difference, parts) == p
        assert (len(parts) == 1) == perms.is_indecomposable(p)


@given(random_perm(6), random_perm(6))
def test_decompose_concatenates_over_difference(a, b):
    combined = perms.direct_difference(a, b)
    assert perms.decompose(combined) == perms.decompose(a) + perms.decompose(b)


@pytest.mark.parametrize(
    "p,upper,lower",
    [
        (BIG, (8, 9, 11, 14, 16, 15, 13, 12, 10, 7, 5, 4), (8, 6, 1, 2, 3, 4)),
        ((2, 1, 3, 4, 7, 6, 5), (2, 3, 4, 7, 6, 5), (2, 1, 5)),
        ((5, 9, 8, 7, 6, 3, 1, 2, 4), (5, 9, 8, 7, 6, 4), (5, 3, 1, 2, 4)),
    ],
)
def test_envelopes_worked_examples(p, upper, lower):
    env = perms.envelopes(p)
    assert env.upper.values == upper
    assert env.lower.values == lower


def test_envelopes_degenerate_sizes():
    one = perms.envelopes((1,))
    assert one.upper.entries == one.lower.entries == ((1, 1),)
    two = perms.envelopes((1, 2))
    assert two.upper.entries == two.lower.entries == ((1, 1), (2, 2))


@pytest.mark.parametrize("n", range(1, 7))
def test_envelope_coverage_exhaustive(n):
    for p in all_perms(n):
        env = perms.envelopes(p)
        upper, lower = set(env.upper.positions), set(env.lower.positions)
        assert upper | lower == set(range(1, n + 1))
        endpoints = {1, n}
        assert endpoints <= upper and endpoints <= lower
        assert upper & lower == endpoints
        assert is_upper_unimodal(env.upper.values)


@given(random_perm())
def test_envelope_coverage_random(p):
    env = perms.envelopes(p)
    assert set(env.upper.positions) | set(env.lower.positions) == set(range(1, len(p) + 1))
    assert set(env.upper.positions) & set(env.lower.positions) == {1, len(p)}


@pytest.mark.parametrize(
    "seq,expected",
    [
        ((5, 3, 1, 2, 4), True),
        ((1,), True),
        ((5, 2, 3, 1), False),
    ],
)
def test_is_lower_unimodal(seq, expected):
    assert perms.is_lower_unimodal(seq) is expected


def test_is_upper_unimodal():  # the reference the envelope tests check against
    assert is_upper_unimodal((1, 3, 5, 4, 2))
    assert is_upper_unimodal((5, 4))
    assert not is_upper_unimodal((2, 1, 3))


@pytest.mark.parametrize(
    "p,expected",
    [
        ((1, 5, 8, 2, 7, 3, 9, 10, 6, 4), False),
        (tuple(range(1, 9)), True),
        ((5, 2, 3, 4, 1), False),
    ],
)
def test_is_square_examples(p, expected):
    assert perms.is_square(p) is expected
    assert perms.is_square_by_patterns(p) is expected


def test_forbidden_pattern_list():
    assert len(perms.FORBIDDEN_PATTERNS) == 16
    assert all(len(pat) == 5 and sorted(pat) == [1, 2, 3, 4, 5] for pat in perms.FORBIDDEN_PATTERNS)
    # closed under reversal and complement, which forces the square-class symmetry
    for pat in perms.FORBIDDEN_PATTERNS:
        assert perms.reversal(pat) in perms.FORBIDDEN_PATTERNS
        assert perms.complement(pat) in perms.FORBIDDEN_PATTERNS


@pytest.mark.parametrize("n", range(1, 7))
def test_square_routes_agree_exhaustive(n):
    for p in all_perms(n):
        assert perms.is_square(p) == perms.is_square_by_patterns(p)


@pytest.mark.parametrize("n", range(2, 8))
def test_square_closed_under_symmetries(n):
    for p in all_perms(n):
        s = perms.is_square(p)
        assert s == perms.is_square(perms.reversal(p))
        assert s == perms.is_square(perms.complement(p))


def test_square_generator_small_sizes():
    assert list(perms.square_permutations(1)) == [(1,)]
    assert list(perms.square_permutations(2)) == [(1, 2), (2, 1)]
    for bad in (0, -1):
        with pytest.raises(ValueError):
            list(perms.square_permutations(bad))


@pytest.mark.parametrize("n", range(1, 9))
def test_square_generator_matches_both_filters(n):
    by_envelope = [p for p in all_perms(n) if perms.is_square(p)]
    by_patterns = [p for p in all_perms(n) if perms.is_square_by_patterns(p)]
    assert list(perms.square_permutations(n)) == by_envelope == by_patterns


@pytest.mark.parametrize("n", range(1, 10))
def test_square_generator_first_value_blocks(n):
    """The moves on states give the value-level search's permutations in its
    order, and every value 1..n starts a block of them."""
    whole = list(perms.square_permutations(n))
    assert whole == list(reference_square_permutations(n))
    assert {p[0] for p in whole} == set(range(1, n + 1))
