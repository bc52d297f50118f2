from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permutomino import boundary, perms
from permutomino.boundary import (
    ALPHA, BETA, DELTA, GAMMA, EMPTY, from_boundary_word, reflect_x, reflect_y, transpose,
)
from permutomino.errors import (
    InvalidMatrix, NotClosed, NotConvex, NotPermutomino, PermutominoError, SelfIntersecting,
)
from permutomino.matrix import (
    LabeledMatrix, permutomino_from_matrix, reentrant_matrix, validate_matrix,
)
from references import (STEPS, anchored_points, cell_flags, cell_reflections, reference_size,
                        sorted_walk, traced_corners, word_from_cells)


def test_single_cell():
    p = from_boundary_word("NESW")
    assert p.size == 2
    assert (p.pi1, p.pi2) == ((1, 2), (2, 1))
    assert len(p.salient) == 4 and p.reentrant == ()


def test_l_shape():
    p = from_boundary_word("NENESSWW")
    assert p.size == 3
    assert (p.pi1, p.pi2) == ((1, 2, 3), (2, 3, 1))
    assert p.vertices == ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 1))
    assert len(p.salient) == 5
    assert p.reentrant == (((2, 2), ALPHA),)


def test_mirror_l_gamma_variant():
    p = permutomino_from_matrix(LabeledMatrix(1, frozenset({(2, 2, GAMMA)})), 3)
    assert (p.pi1, p.pi2) == ((1, 2, 3), (3, 1, 2))
    assert p.reentrant == (((2, 2), GAMMA),)


def test_bad_words():
    with pytest.raises(NotClosed):
        from_boundary_word("NES")
    with pytest.raises(SelfIntersecting):
        from_boundary_word("NESWNESW")
    with pytest.raises(ValueError):
        from_boundary_word("ENWS")  # counterclockwise orientation
    with pytest.raises(ValueError):
        from_boundary_word("NXSW")
    exc = pytest.raises(NotPermutomino, from_boundary_word, "NNEESSWW").value
    assert (exc.axis, exc.coordinate, exc.count) == ("x", 2, 0)


def test_the_empty_word_is_refused():
    with pytest.raises(ValueError, match="empty boundary word"):
        from_boundary_word("")


def closed_words(max_len):
    """Every closed self-avoiding word of length <= max_len that starts N at its
    lowest leftmost point (the origin), degenerate NS included."""
    words = []
    letters = ["N"]
    visited = {(0, 0), (0, 1)}

    def walk(x, y):
        left = max_len - len(letters)
        for letter, (dx, dy) in STEPS.items():
            nx, ny = x + dx, y + dy
            if (nx, ny) == (0, 0):
                words.append("".join(letters) + letter)
            elif (ny > 0 or (ny == 0 and nx > 0)) and (nx, ny) not in visited \
                    and abs(nx) + abs(ny) < left:
                visited.add((nx, ny))
                letters.append(letter)
                walk(nx, ny)
                letters.pop()
                visited.discard((nx, ny))

    walk(0, 1)
    return words


def test_validator_matches_the_cell_round_trip_on_every_short_word():
    """Every simple polygon of perimeter <= 18: the same error or the same size
    as the cell-filling reference, and every accepted word is the boundary
    walk of its own cells, with the stored corners and the path equal to those
    of the reference's own trace of the word."""
    words = closed_words(18)
    accepted = 0
    for word in words:
        try:
            want = reference_size(word)
        except (ValueError, PermutominoError) as exc:
            with pytest.raises(type(exc)) as got:
                from_boundary_word(word)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            continue
        p = from_boundary_word(word)
        assert p.size == want
        assert vars(p)["corners"] == traced_corners(word)
        assert p.path == tuple(anchored_points(word))
        assert word_from_cells(p.cells) == word
        accepted += 1
    assert len(words) == 18957 and accepted == 203


def test_validator_raises_as_the_reference_on_every_word_up_to_length_7():
    """Every word over N/E/S/W of length <= 7, most of them open, self-crossing
    or not started at their lowest leftmost point, and words with a bad
    letter: the same error type and message as the cell-filling reference."""
    words = ["".join(w) for k in range(1, 8) for w in product("NESW", repeat=k)]
    words += ["NXSW", "NESWx", "nesw", "NE SW"]
    accepted = 0
    for word in words:
        try:
            want = reference_size(word)
        except (ValueError, PermutominoError) as exc:
            with pytest.raises(type(exc)) as got:
                from_boundary_word(word)
            assert type(got.value) is type(exc) and str(got.value) == str(exc), word
            continue
        assert from_boundary_word(word).size == want
        accepted += 1
    assert len(words) == 21844 + 4 and accepted == 1  # NESW, the one cell


def test_word_round_trip_on_oracle_listings():
    for n in range(2, 6):
        for p in sorted_walk(n):
            assert from_boundary_word(p.word) == p
            assert word_from_cells(p.cells) == p.word


def test_pi1_and_pi2_are_the_sorted_corner_ordinates():
    from permutomino.counting import convex_via_fibers

    shapes = [p for n in range(1, 7) for p in sorted_walk(n, convex=False)]
    shapes += [p for n in range(1, 8) for p in convex_via_fibers(n)]
    for p in shapes:
        # the corners of the reference's trace, not the ones validation stored
        vertices = [point for point, _, _ in traced_corners(p.word or "")]
        assert p.pi1 == (tuple(y for _, y in sorted(vertices[0::2])) or (1,)), p
        assert p.pi2 == (tuple(y for _, y in sorted(vertices[1::2])) or (1,)), p


@given(st.permutations(list(range(1, 8))))
def test_word_round_trip_property(values):
    from permutomino.membership import is_associated, canonical_permutomino

    p = tuple(values)
    if not is_associated(p):
        return
    shape = canonical_permutomino(p)
    assert from_boundary_word(shape.word).word == shape.word
    assert word_from_cells(shape.cells) == shape.word


def test_salient_reentrant_budget():
    # salient - reentrant == 4 for every permutomino, convex or not
    for n in range(2, 6):
        for p in sorted_walk(n, convex=False):
            assert len(p.salient) - len(p.reentrant) == 4
    # and the convex ones use exactly n+2 / n-2 with boundary length 4(n-1)
    for n in range(2, 7):
        for p in sorted_walk(n):
            assert len(p.word) == 4 * (n - 1)
            assert len(p.salient) == n + 2
            assert len(p.reentrant) == n - 2


def test_reentrant_matrix_examples():
    assert reentrant_matrix(from_boundary_word("NESW")) == LabeledMatrix(0, frozenset())
    L = from_boundary_word("NENESSWW")
    assert reentrant_matrix(L) == LabeledMatrix(1, frozenset({(2, 2, ALPHA)}))


def test_reentrant_matrix_requires_convex():
    # a column-convex but not convex shape
    bumpy = next(p for p in sorted_walk(4, convex=False) if not p.is_convex)
    with pytest.raises(NotConvex):
        reentrant_matrix(bumpy)
    with pytest.raises(ValueError):
        reentrant_matrix(EMPTY)


def test_from_matrix_examples():
    assert permutomino_from_matrix(LabeledMatrix(0, frozenset()), 2) == from_boundary_word("NESW")
    four = {
        permutomino_from_matrix(LabeledMatrix(1, frozenset({(2, 2, lab)})), 3)
        for lab in boundary.LABELS
    }
    assert len(four) == 4
    assert four == set(sorted_walk(3))


def test_matrix_on_anti_diagonal_is_valid():
    # beta and delta points may lie on x + y = size + 1 (non-strict bound)
    beta_shape = permutomino_from_matrix(LabeledMatrix(1, frozenset({(2, 2, BETA)})), 3)
    assert beta_shape.pi1 == (1, 3, 2)
    delta_shape = permutomino_from_matrix(LabeledMatrix(1, frozenset({(2, 2, DELTA)})), 3)
    assert delta_shape.pi1 == (2, 1, 3)


def test_invalid_matrices_report_conditions():
    with pytest.raises(InvalidMatrix) as exc:
        validate_matrix(LabeledMatrix(2, frozenset({(2, 2, ALPHA), (3, 3, ALPHA)})), 6)
    assert exc.value.condition == "dimension"
    with pytest.raises(InvalidMatrix) as exc:
        validate_matrix(LabeledMatrix(2, frozenset({(2, 2, ALPHA), (3, 2, ALPHA)})), 4)
    assert exc.value.condition == "permutation-matrix"
    with pytest.raises(InvalidMatrix) as exc:
        validate_matrix(LabeledMatrix(2, frozenset({(2, 2, BETA), (3, 3, ALPHA)})), 4)
    assert exc.value.condition in ("corner-order", "diagonal")
    with pytest.raises(InvalidMatrix) as exc:
        validate_matrix(LabeledMatrix(1, frozenset({(1, 2, ALPHA)})), 3)
    assert exc.value.condition in ("range", "dimension")
    with pytest.raises(InvalidMatrix) as exc:
        validate_matrix(LabeledMatrix(1, frozenset({(2, 2, "omega")})), 3)
    assert exc.value.condition == "label"


@pytest.mark.parametrize("size", [1, 0, -1])
def test_a_matrix_below_size_two_is_refused(size):
    with pytest.raises(InvalidMatrix) as exc:
        validate_matrix(LabeledMatrix(0, frozenset()), size)
    assert exc.value.condition == "size"


@pytest.mark.parametrize("point, condition", [
    ((2.0, 2, ALPHA), "range"),  # 2.0 is in range(2, 3), but not an integer
    ((2, 2.0, ALPHA), "range"),
    ((2, "2", ALPHA), "range"),
    ((2, 2), "point"),
    ((2, 2, ALPHA, 1), "point"),
    (7, "point"),
])
def test_malformed_matrix_points_are_invalid_matrices(point, condition):
    with pytest.raises(InvalidMatrix) as exc:
        permutomino_from_matrix(LabeledMatrix(1, frozenset({point})), 3)
    assert exc.value.condition == condition


def _all_labeled_matrices(size):
    coords = range(2, size)
    dim = size - 2
    for cols in permutations(coords):
        points = list(zip(coords, cols))
        for labels in product(boundary.LABELS, repeat=dim):
            yield LabeledMatrix(dim, frozenset(
                (x, y, lab) for (x, y), lab in zip(points, labels)
            ))


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
def test_matrix_bijection_exhaustive(size):
    """Valid labeled matrices correspond one-to-one to convex permutominoes."""
    enumerated = set(sorted_walk(size))
    rebuilt = set()
    for matrix in _all_labeled_matrices(size):
        try:
            validate_matrix(matrix, size)
        except InvalidMatrix:
            continue
        p = permutomino_from_matrix(matrix, size)
        assert reentrant_matrix(p) == matrix
        rebuilt.add(p)
    assert rebuilt == enumerated
    for p in enumerated:
        assert permutomino_from_matrix(reentrant_matrix(p), size) == p


@pytest.mark.parametrize("size", [3, 4, 5, 6])
def test_diagonal_bounds_on_extracted_matrices(size):
    for p in sorted_walk(size):
        for x, y, lab in reentrant_matrix(p).points:
            if lab == ALPHA:
                assert y >= x
            elif lab == GAMMA:
                assert y <= x
            elif lab == BETA:
                assert x + y >= size + 1
            else:
                assert x + y <= size + 1


def test_classify_examples():
    L = from_boundary_word("NENESSWW")
    assert L.flags == {
        "column_convex": True, "row_convex": True, "convex": True,
        "directed": True, "parallelogram": True, "symmetric_xy": False,
    }
    cell = from_boundary_word("NESW")
    assert all(cell.flags.values())
    assert all(EMPTY.flags.values())


def test_classify_implication_chain():
    for n in range(2, 6):
        for p in sorted_walk(n, convex=False):
            f = p.flags
            assert not f["parallelogram"] or f["directed"]
            assert not f["directed"] or f["convex"]
            assert f["convex"] == (f["column_convex"] and f["row_convex"])


def test_symmetric_implies_involutions():
    for n in range(2, 7):
        for p in sorted_walk(n):
            if p.flags["symmetric_xy"]:
                for q in (p.pi1, p.pi2):
                    inverse = tuple(q.index(v) + 1 for v in range(1, n + 1))
                    assert q == inverse
    # the converse fails: an involution whose permutomino is not symmetric
    from permutomino.membership import canonical_permutomino

    p = canonical_permutomino((2, 1, 3, 4, 5))
    assert p.pi1 == (2, 1, 3, 4, 5)  # an involution
    assert not p.flags["symmetric_xy"]


def test_symmetric_involution_worked_example():
    from permutomino.membership import fiber

    shapes = list(fiber((3, 2, 1, 7, 6, 5, 4)))
    assert len(shapes) == 1
    assert shapes[0].flags["symmetric_xy"]


def test_transpose_matches_symmetry_flag():
    for p in sorted_walk(5):
        assert (transpose(p) == p) == p.flags["symmetric_xy"]


def test_reflections():
    for n in range(1, 6):
        for p in sorted_walk(n):
            assert reflect_y(reflect_y(p)) == p
            assert reflect_x(reflect_x(p)) == p
            assert reflect_y(p).pi1 == perms.reversal(p.pi2)
            assert reflect_x(p).pi1 == perms.complement(p.pi2)


def test_path_flags_and_word_reflections_match_the_cells():
    """Class flags read off the path and reflections that map the word agree
    with the cell-side definitions on every accepted simple polygon of
    perimeter <= 18, every convex shape up to size 7 and every column-convex
    shape up to size 6, and neither fills the cells."""
    shapes = []
    for word in closed_words(18):
        try:
            shapes.append(from_boundary_word(word))
        except (ValueError, PermutominoError):
            continue
    for n in range(2, 8):
        shapes += sorted_walk(n)
    for n in range(2, 7):
        shapes += sorted_walk(n, convex=False)
    directed_starts_not_convex = 0
    for p in shapes:
        q = from_boundary_word(p.word)
        assert q.corners == traced_corners(p.word), p
        cells = boundary._cells_from_path(q.path)
        want = cell_flags(cells)
        assert q.flags == want, p
        assert (reflect_y(q), reflect_x(q), transpose(q)) == cell_reflections(cells, p.size), p
        assert "cells" not in vars(q)
        directed_starts_not_convex += q.path[0] == (1, 1) and not want["convex"]
    assert len(shapes) == 203 + 2337 + 1441
    assert directed_starts_not_convex > 0
