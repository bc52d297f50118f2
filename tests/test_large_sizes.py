"""Round trips on square permutations of size 30 to 80, and the square test
and split points on near-squares of size 30 to 200, far above the sizes that
the exhaustive tests reach.

The permutations are drawn by a random walk over `_kernels.moves`, the square
generator's own moves, so every draw is square.  The walk is biased: few
unconstrained draws are decomposable, so the bijection's round trip draws
walks made to pass through a split state.  A near-square is such a draw with
one to three entries swapped, so most near-squares are not square and some
are, and both kinds are checked against definitions in `references`.
"""
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from permutomino import _kernels, perms
from permutomino.bijection import permutation_to_sequence, sequence_to_permutation
from permutomino.boundary import from_boundary_word, permutomino_from_matrix, reentrant_matrix
from permutomino.membership import Fiber
from permutomino.render import from_json, to_json
from references import is_square_by_records, prefix_minimum_splits

SIZES = st.integers(30, 80)
LARGE = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def square_permutations(draw, split=False, sizes=SIZES):
    """A square permutation drawn move by move from the generator's states.

    With split=True the walk first fills a prefix with the top r values, for a
    drawn 1 <= r < n, so it passes through the split state (n - r, 0, 0, 0)
    (see _kernels.count_stats).  Until then it takes no value <= n - r, which
    always leaves a move: the largest unused value, in the top block.
    """
    n = draw(sizes)
    r = draw(st.integers(1, n - 1)) if split else n
    low = n - r
    first = draw(st.integers(low + 1, n))
    unused = [v for v in range(1, n + 1) if v != first]
    p, state = [first], (first - 1, n - first, 0, 0)
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
def near_squares(draw):
    """A square of size 30 to 200 drawn as above, through a split state or
    not, then one to three transpositions, each of adjacent positions, of
    adjacent values or of any two entries."""
    p = list(draw(square_permutations(draw(st.booleans()), st.integers(30, 200))))
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
