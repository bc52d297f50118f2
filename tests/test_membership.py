import os
import pathlib
import subprocess
import sys
from itertools import combinations

import pytest

from conftest import all_perms
from permutomino import membership, perms
from permutomino.boundary import (
    ALPHA,
    DELTA,
    EMPTY,
    GAMMA,
    Permutomino,
)
from permutomino.errors import NotAssociated, SizeTooLarge
from permutomino.matrix import LabeledMatrix, permutomino_from_matrix, reentrant_matrix
from permutomino.membership import (
    canonical_permutomino,
    fiber,
    free_fixed_points,
    is_associated,
    is_associated_pi2,
)
from references import sorted_walk

CTILDE_4 = {
    (1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4), (1, 3, 4, 2), (1, 4, 2, 3),
    (1, 4, 3, 2), (2, 1, 4, 3), (2, 3, 1, 4), (2, 1, 3, 4), (2, 4, 1, 3),
    (3, 1, 2, 4), (3, 1, 4, 2), (3, 2, 1, 4),
}


def test_explicit_small_membership_sets():
    assert {p for p in all_perms(1) if is_associated(p)} == {(1,)}
    assert {p for p in all_perms(2) if is_associated(p)} == {(1, 2)}
    assert {p for p in all_perms(3) if is_associated(p)} == {(1, 2, 3), (1, 3, 2), (2, 1, 3)}
    assert {p for p in all_perms(4) if is_associated(p)} == CTILDE_4


def test_membership_verdicts():
    v = membership.membership_verdict((5, 9, 8, 7, 6, 3, 1, 2, 4))
    assert not v.member and v.reason == membership.DECOMPOSABLE and v.witness == 5
    assert membership.membership_verdict((3, 1, 6, 8, 2, 4, 7, 5)).member
    assert membership.membership_verdict((1,)).member
    v = membership.membership_verdict((1, 5, 8, 2, 7, 3, 9, 10, 6, 4))
    assert not v.member and v.reason == membership.NOT_UNIMODAL
    (pa, va), (pb, vb), (pc, vc) = v.witness
    assert pa < pb < pc and va < vb > vc


def test_pi2_membership():
    assert is_associated_pi2((2, 4, 1, 3)) and is_associated((2, 4, 1, 3))
    assert not is_associated_pi2((1, 2))
    assert is_associated_pi2((2, 1))
    both = {p for p in all_perms(4) if is_associated(p) and is_associated_pi2(p)}
    assert both == {(2, 4, 1, 3), (3, 1, 4, 2)}
    assert not any(
        is_associated(p) and is_associated_pi2(p) for p in all_perms(3)
    )


def test_free_fixed_points_examples():
    assert free_fixed_points((2, 1, 3, 4, 7, 6, 5)) == (3, 4)
    n = 7
    assert free_fixed_points(tuple(range(1, n + 1))) == tuple(range(2, n))  # increasing
    assert free_fixed_points((8, 6, 1, 9, 11, 14, 2, 16, 15, 13, 12, 10, 7, 3, 5, 4)) == ()
    with pytest.raises(NotAssociated):
        free_fixed_points((2, 1))


def test_canonical_worked_example():
    p = canonical_permutomino((3, 1, 6, 8, 2, 4, 7, 5))
    assert p.pi1 == (3, 1, 6, 8, 2, 4, 7, 5)
    assert p.is_convex
    assert p.word == "NNWNNNEENNESEEESSESWWSSWSWWW"
    assert p.pi2 == (6, 3, 8, 7, 1, 2, 5, 4)


def test_canonical_degenerate_sizes():
    assert canonical_permutomino((1,)) == EMPTY
    assert canonical_permutomino((1, 2)).word == "NESW"
    with pytest.raises(NotAssociated):
        canonical_permutomino((2, 1))


def test_canonical_types_free_fixed_points_alpha():
    matrix = reentrant_matrix(canonical_permutomino((2, 1, 3, 4, 5)))
    assert matrix == LabeledMatrix(
        3, frozenset({(2, 2, DELTA), (3, 3, ALPHA), (4, 4, ALPHA)})
    )


def test_fiber_examples():
    for p, size in [((2, 1, 3, 4, 5), 4), ((2, 1, 3, 4, 7, 6, 5), 4), ((1, 2), 1)]:
        shapes = fiber(p)
        assert len(shapes) == size
        assert len(set(shapes)) == size  # builds and checks every shape
    assert list(fiber((1,))) == [EMPTY]


def test_fiber_bound_is_checked_before_any_shape_is_built(monkeypatch):
    class Built(Exception):
        pass

    def refuse(*args):
        raise Built

    monkeypatch.setattr(membership, "corner_word", refuse)
    at_bound = tuple(range(1, membership.FREE_FIXED_BOUND + 3))  # free: 2..n-1
    with pytest.raises(Built):
        list(fiber(at_bound))
    with pytest.raises(SizeTooLarge):
        fiber(at_bound + (len(at_bound) + 1,))


def test_words_validated_per_shape_asked_for(monkeypatch):
    """One word is validated per shape built: 2^|F(p)| on a fiber's first pass,
    one for the canonical shape, and one for a bijection part typed gamma
    (each shape is checked against its own chains)."""
    from permutomino import bijection

    words = []
    real = membership.from_boundary_word

    def spy(word):
        words.append(word)
        return real(word)

    monkeypatch.setattr(membership, "from_boundary_word", spy)
    for p in [(2, 1, 3, 4, 5), (2, 1, 3, 4, 7, 6, 5), (1, 2, 3), (1, 2)]:
        words.clear()
        assert len(list(fiber(p))) == len(words) == 2 ** len(free_fixed_points(p))
        words.clear()
        canonical_permutomino(p)
        assert len(words) == 1
    words.clear()
    assert list(fiber((1,))) == [canonical_permutomino((1,))] == [EMPTY] and not words
    part = bijection._unique_part((1, 2, 3, 4), last=True, middle=False)
    assert len(words) == 1 and part.flags["directed"]


def test_each_fiber_computes_the_envelopes_once(monkeypatch):
    calls = []
    real = perms.envelopes

    def spy(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(perms, "envelopes", spy)
    for p in [(2, 1, 3, 4, 5), (2, 1, 3, 4, 7, 6, 5), (1, 2), (1,)]:
        calls.clear()
        shapes = fiber(p)
        assert list(shapes) == list(shapes)  # each pass builds the shapes again
        assert calls == [p]


def test_fiber_matches_the_matrix_route():
    """Each fiber shape built from the chains equals the one rebuilt from the
    canonical corner matrix with its subset of free fixed points retyped gamma."""
    shapes = 0
    for n in range(2, 9):
        for p in perms.square_permutations(n):
            if not is_associated(p):
                continue
            base = reentrant_matrix(canonical_permutomino(p))
            free = membership.free_fixed_values(p)
            want = {
                permutomino_from_matrix(LabeledMatrix(base.dim, frozenset(
                    (x, y, GAMMA if x == y and x in chosen else lab) for x, y, lab in base.points)), n)
                for k in range(len(free) + 1)
                for chosen in combinations(free, k)
            }
            assert list(fiber(p)) == sorted(want, key=Permutomino.sort_key), p
            shapes += len(want)
    assert shapes == 10805


def test_each_shape_is_checked_against_its_own_chains(monkeypatch):
    """A corner word that drops the gamma typing still gives a convex shape
    over p, the canonical one; its reentrant corners are not the chains asked
    for, so it is refused."""
    over = membership.Fiber((2, 1, 3, 4, 5))
    canonical = over.shape(())
    monkeypatch.setattr(membership, "corner_word", lambda *chains: canonical.word)
    assert over.shape(()) == canonical
    with pytest.raises(AssertionError, match="does not type"):
        over.shape(over.free)


@pytest.mark.parametrize("p, gamma", [
    ((2, 1, 3, 4, 5, 6, 7), [2]),  # a fixed point, but not a left-right maximum
    ((1, 3, 2, 4, 5, 6, 7, 8), [2]),  # not a fixed point
    ((1, 2, 3, 4, 5, 6), [7]),  # not a position of p
    ((1, 2, 3, 4, 5, 6), [1, 3]),  # an end of p
])
def test_only_free_fixed_points_can_be_typed_gamma(monkeypatch, p, gamma):
    """A point outside `free` is refused in one line before any word is threaded."""
    over = membership.Fiber(p)
    monkeypatch.setattr(membership, "corner_word", None)
    with pytest.raises(ValueError, match="is not a subset of .* free") as caught:
        over.shape(gamma)
    assert "\n" not in str(caught.value)


def test_shape_checks_hold_under_python_O():
    """The post-checks of the shape layer are raises, not asserts: with the
    word validator swapped for one that returns a wrong shape, `python -O`
    still refuses it."""
    script = """
import sys
from permutomino import boundary, membership
if not sys.flags.optimize:
    sys.exit("not run under -O")
membership.from_boundary_word = lambda word: boundary.from_boundary_word("NENESSWW")
try:
    membership.canonical_permutomino((2, 1, 3, 4, 5))
except AssertionError as exc:
    print("refused:", exc)
else:
    sys.exit("accepted a wrong shape")
"""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("refused:")


def test_fiber_law_and_membership():
    for n in range(2, 6):
        for p in all_perms(n):
            if not is_associated(p):
                continue
            shapes = fiber(p)
            assert len(shapes) == 2 ** len(free_fixed_points(p))
            for shape in shapes:
                assert shape.pi1 == p and shape.is_convex
            if p[0] > p[-1]:
                assert len(shapes) == 1  # falling ends leave no typing freedom


@pytest.mark.parametrize("n", range(1, 6))
def test_fiber_union_equals_oracle(n, convex_by_size):
    from permutomino.counting import convex_via_fibers

    assert list(convex_via_fibers(n)) == convex_by_size(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_membership_agrees_with_geometry(n, convex_by_size):
    realizable = {p.pi1 for p in convex_by_size(n, bound=7)}
    for p in all_perms(n):
        assert is_associated(p) == (p in realizable)


@pytest.mark.parametrize("n", range(1, 9))
def test_rising_ends_need_only_the_envelope(n):
    # with p(1) < p(n), indecomposability is automatic
    for p in all_perms(n):
        if p[0] < p[-1]:
            unimodal = perms.is_lower_unimodal(perms.envelopes(p).lower.values)
            assert is_associated(p) == unimodal


@pytest.mark.parametrize("n", range(1, 8))
def test_square_iff_either_vertex_class(n):
    for p in all_perms(n):
        assert perms.is_square(p) == (is_associated(p) or is_associated_pi2(p))


@pytest.mark.parametrize("n", range(2, 8))
def test_rising_end_members_are_half_the_squares(n):
    from permutomino import counting

    stats = counting.scan_stats(n)
    assert 2 * stats["assoc_first_lt_last"] == stats["square"]


def test_every_permutation_has_a_column_convex_permutomino():
    for n in range(2, 6):
        covered = set()
        for p in sorted_walk(n, convex=False):
            covered.add(p.pi1)
            covered.add(p.pi2)
        assert covered == set(all_perms(n))


def test_fibers_come_in_word_order():
    """Every realizable p up to size 10 with a free fixed point (a fiber of one
    shape has no order) yields its shapes by strictly increasing word."""
    fibers = 0
    for n in range(3, 11):
        for p in perms.square_permutations(n):
            if not membership.free_fixed_values(p) or not is_associated(p):
                continue
            words = [shape.word for shape in fiber(p)]
            assert words == sorted(set(words)), p
            fibers += 1
    assert fibers == 15600


def _class_readings(shape):
    """The directed, parallelogram and symmetric_xy flags as read off pi1."""
    p = shape.pi1
    n = len(p)
    involution = all(p[v - 1] == i for i, v in enumerate(p, start=1))
    return {
        "directed": p[0] == 1,
        "parallelogram": p[0] == 1 and p[-1] == n,
        "symmetric_xy": involution and not membership.free_fixed_values(p),
    }


@pytest.mark.parametrize("n", range(1, 8))
def test_class_flags_read_off_pi1(n, convex_by_size):
    """directed iff pi1(1) = 1; parallelogram iff also pi1(n) = n; symmetric_xy
    iff pi1 is an involution with no free fixed point: over the streamed fiber
    listing, and over the interval oracle's up to size 6."""
    from permutomino.counting import convex_via_fibers

    listings = [convex_via_fibers(n)] + ([convex_by_size(n)] if n <= 6 else [])
    for shapes in listings:
        for shape in shapes:
            readings = _class_readings(shape)
            assert {k: shape.flags[k] for k in readings} == readings, shape
