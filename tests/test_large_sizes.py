"""Round trips on square permutations of size 30 to 80; the square test,
split points, membership witnesses and free fixed points on near-squares of
size 30 to 200 (the pattern test up to size 30); and the corner-matrix
characterization on near-valid matrices of size 7 to 20: all far above the
sizes that the exhaustive tests reach.

The permutations are drawn by a random walk over `_kernels.moves`, the square
generator's own moves, so every draw is square.  The walk is biased: few
unconstrained draws are decomposable, so the bijection's round trip draws
walks made to pass through a split state.  A near-square is such a draw with
one to three entries swapped, so most near-squares are not square and some
are, and both kinds are checked against definitions in `references`.  A
near-valid matrix is the corner matrix of a fiber shape with zero to two
points relabeled or swapped, so about half of them are valid.
"""
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from permutomino import _kernels, perms
from permutomino.bijection import permutation_to_sequence, sequence_to_permutation
from permutomino.boundary import LABELS, corner_word, from_boundary_word
from permutomino.errors import InvalidMatrix, NotAssociated, PermutominoError
from permutomino.matrix import (
    LabeledMatrix, permutomino_from_matrix, reentrant_matrix, validate_matrix,
)
from permutomino.membership import (
    DECOMPOSABLE, NOT_UNIMODAL, Fiber, free_fixed_points, membership_verdict,
)
from permutomino.render import from_json, to_json
from references import (
    free_fixed_points_by_definition, is_square_by_records, lower_envelope_by_definition,
    prefix_minimum_splits,
)

SIZES = st.integers(30, 80)
LARGE = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def square_permutations(draw, split=False, sizes=SIZES):
    """A square permutation drawn move by move from the generator's states.

    With split=True the walk first fills a prefix with the top r values, for a
    drawn 1 <= r < n, so it passes through the split state (n - r, 0, 0)
    (see _kernels.count_stats).  Until then it takes no value <= n - r, which
    always leaves a move: the largest unused value, in the top block.
    """
    n = draw(sizes)
    r = draw(st.integers(1, n - 1)) if split else n
    low = n - r
    first = draw(st.integers(low + 1, n))
    unused = [v for v in range(1, n + 1) if v != first]
    p, state = [first], (first - 1, n - first, 0)
    while unused:
        kids = [(offset, child) for offset, child in _kernels.moves(*state)
                if len(p) >= r or offset >= low]
        offset, state = kids[draw(st.integers(0, len(kids) - 1))]
        p.append(unused.pop(offset))
    return tuple(p)


@LARGE
@given(square_permutations(), st.data())
def test_fiber_shapes_round_trip_at_large_sizes(p, data):
    assert perms.is_square(p)
    assume(perms.is_indecomposable(p))
    over = Fiber(p)
    gamma = data.draw(st.lists(st.sampled_from(over.free), unique=True) if over.free
                      else st.just([]))
    shape = over.shape(sorted(gamma))
    n = len(p)
    assert shape.size == n and shape.pi1 == p
    assert from_boundary_word(shape.word) == shape
    assert permutomino_from_matrix(reentrant_matrix(shape), n) == shape
    assert from_json(to_json(shape)) == shape
    assert shape.flags["directed"] == (p[0] == 1)


@LARGE
@given(square_permutations(split=True))
def test_bijection_round_trips_at_large_sizes(p):
    assert perms.is_square(p) and not perms.is_indecomposable(p)
    seq = permutation_to_sequence(p)
    assert len(seq) == len(perms.decompose(p)) >= 2
    assert sequence_to_permutation(seq) == p


@st.composite
def near_squares(draw, sizes=st.integers(30, 200)):
    """A square drawn as above, through a split state or not, then one to
    three transpositions, each of adjacent positions, of adjacent values or of
    any two entries."""
    p = list(draw(square_permutations(draw(st.booleans()), sizes)))
    n = len(p)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("positions", "values", "entries")))
        if kind == "positions":
            i = draw(st.integers(0, n - 2))
            j = i + 1
        elif kind == "values":
            v = draw(st.integers(1, n - 1))
            i, j = p.index(v), p.index(v + 1)
        else:
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        p[i], p[j] = p[j], p[i]
    return tuple(p)


@LARGE
@given(square_permutations(sizes=st.integers(30, 200)))
def test_every_generated_square_has_only_record_entries(p):
    assert is_square_by_records(p)


@LARGE
@given(near_squares())
def test_square_test_and_split_points_match_their_definitions_near_squares(p):
    assert perms.is_square(p) == is_square_by_records(p)
    assert perms.split_points(p) == prefix_minimum_splits(p)


# the pattern test ranks every 5-subset, 0.09 s at size 30, so few draws
@settings(max_examples=8, deadline=None)
@given(near_squares(sizes=st.integers(26, 30)))
def test_square_test_matches_the_pattern_test_near_squares(p):
    assert perms.is_square(p) == perms.is_square_by_patterns(p)


# near-squares are rarely realizable or split, so squares are drawn too
@LARGE
@given(st.one_of(near_squares(), square_permutations(False, st.integers(30, 200)),
                 square_permutations(True, st.integers(30, 200))))
def test_membership_witnesses_and_free_fixed_points_match_their_definitions(p):
    n = len(p)
    verdict = membership_verdict(p)
    if verdict.reason == NOT_UNIMODAL:
        # three entries of the lower envelope that rise, then fall
        a, b, c = verdict.witness
        assert {a, b, c} <= set(lower_envelope_by_definition(p))
        assert a[0] < b[0] < c[0] and a[1] < b[1] > c[1]
        assert not is_square_by_records(p)
    elif verdict.reason == DECOMPOSABLE:
        # the shortest prefix that holds the top values
        r = verdict.witness
        holds_top = [set(p[:k]) == set(range(n - k + 1, n + 1)) for k in range(1, r + 1)]
        assert r < n and holds_top[-1] and not any(holds_top[:-1])
        assert is_square_by_records(p)
    else:
        assert verdict.member and is_square_by_records(p) and not prefix_minimum_splits(p)
    if verdict.member:
        assert free_fixed_points(p) == free_fixed_points_by_definition(p)
    else:
        with pytest.raises(NotAssociated):
            free_fixed_points(p)


@st.composite
def near_valid_matrices(draw):
    """The corner matrix of a fiber shape of size 7 to 20, then zero to two
    perturbations, each a point relabeled, two points' ordinates swapped or
    two points' labels swapped.  The points are kept sorted by abscissa, so
    the point a draw picks does not depend on the order of a set."""
    p = draw(square_permutations(sizes=st.integers(7, 20)))
    assume(perms.is_indecomposable(p))
    over = Fiber(p)
    gamma = draw(st.lists(st.sampled_from(over.free), unique=True)) if over.free else []
    matrix = reentrant_matrix(over.shape(sorted(gamma)))
    points = sorted(matrix.points)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("label", "ordinates", "labels")))
        i, j = draw(st.integers(0, len(points) - 1)), draw(st.integers(0, len(points) - 1))
        (xi, yi, li), (xj, yj, lj) = points[i], points[j]
        if kind == "label":
            points[i] = (xi, yi, draw(st.sampled_from(LABELS)))
        elif kind == "ordinates":
            points[i], points[j] = (xi, yj, li), (xj, yi, lj)
        else:
            points[i], points[j] = (xi, yi, lj), (xj, yj, li)
    return len(p), LabeledMatrix(matrix.dim, frozenset(points))


@settings(max_examples=150, deadline=None)
@given(near_valid_matrices())
def test_matrix_conditions_hold_iff_the_threaded_word_gives_the_matrix_back(drawn):
    """validate_matrix accepts a matrix iff corner_word threads it into the
    word of a convex permutomino whose corner matrix is that matrix."""
    n, matrix = drawn
    try:
        validate_matrix(matrix, n)
        valid = True
    except InvalidMatrix:
        valid = False
    try:
        shape = from_boundary_word(corner_word(*map(matrix.by_label, LABELS), n))
        rebuilt = shape.is_convex and reentrant_matrix(shape) == matrix
    except (PermutominoError, ValueError):
        rebuilt = False
    assert valid == rebuilt
