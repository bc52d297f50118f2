from collections import Counter

import pytest

from permutomino import formulas, oracles
from permutomino.formulas import NonIntegerResult, OutOfRange
from references import FRACTION_FORMS, closed_form


@pytest.mark.parametrize(
    "family,start,terms",
    [
        ("convex", 1, [1, 1, 4, 18, 84, 394, 1836, 8468]),
        ("ctilde", 1, [1, 1, 3, 13, 62, 301, 1450, 6882]),
        ("square", 1, [1, 2, 6, 24, 104, 464, 2088, 9392]),
        ("decomposable", 1, [0, 1, 3, 11, 42, 163, 638, 2510]),
        ("directed", 1, [1, 1, 3, 10, 35, 126, 462]),
        ("parallelogram", 1, [1, 1, 2, 5, 14, 42, 132]),
        ("symmetric", 1, [1, 1, 2, 4, 10, 22, 54]),
        ("centered", 1, [1, 1, 4, 16, 64, 256]),
        ("bicentered", 1, [1, 1, 4, 14, 48, 164]),
        ("stacks", 1, [1, 1, 2, 4, 8, 16, 32]),
        ("central-binomial", 0, [1, 2, 6, 20, 70, 252]),
        ("catalan", 0, [1, 1, 2, 5, 14, 42, 132]),
        ("asym-surplus", 4, [1, 10, 69, 406, 2186, 11124]),
    ],
)
def test_published_first_terms(family, start, terms):
    assert [closed_form(family, n) for n in range(start, start + len(terms))] == terms


def test_all_families_integral_up_to_12():
    for family, fn in formulas.FAMILIES.items():
        if family in ("half-diff-printed", "intersection-printed"):
            continue  # known discrepant forms, non-integral at some sizes
        start = 0 if family in ("central-binomial", "catalan") else 1
        if family in ("fixed-point-surplus", "asym-surplus"):
            start = 2
        for n in range(start, 13):
            assert isinstance(fn(n), int)


def test_fixed_point_surplus():
    assert [closed_form("fixed-point-surplus", n) for n in range(2, 7)] == [0, 1, 5, 22, 93]


def test_printed_forms_behave_as_documented():
    # the printed one-direction form is non-integral at size 4 ...
    with pytest.raises(NonIntegerResult):
        formulas.half_diff_printed(4)
    # ... and where integral it still disagrees with the definitional sequence
    assert formulas.half_diff_printed(3) == -2 != formulas.asym_surplus(3)
    assert formulas.intersection_printed(4) == 22
    with pytest.raises(OutOfRange):
        formulas.half_diff_printed(1)


def test_out_of_range():
    for family in ("convex", "ctilde", "square", "stacks"):
        with pytest.raises(OutOfRange):
            closed_form(family, 0)
    with pytest.raises(OutOfRange):
        formulas.catalan(-1)


def test_unknown_family():
    with pytest.raises(KeyError):
        closed_form("octagon", 3)


def test_closed_forms_satisfy_the_identities_at_scale():
    # the intertwined forms must agree far beyond the enumerable range
    from math import comb

    for n in range(2, 30):
        assert closed_form("ctilde", n) == closed_form("square", n) - closed_form("decomposable", n)
        assert closed_form("convex", n) == closed_form("ctilde", n) + closed_form("fixed-point-surplus", n)
        assert closed_form("square", n) == closed_form("convex", n) + comb(2 * (n - 2), n - 2)
        assert closed_form("asym-surplus", n) == closed_form("ctilde", n) - closed_form("square", n) // 2


def outcome(fn, n):
    """fn(n), or the class and message of what it raised."""
    try:
        return fn(n)
    except Exception as error:
        return type(error), str(error)


def test_only_the_division_free_families_lack_a_fraction_evaluation():
    assert set(formulas.FAMILIES) - set(FRACTION_FORMS) == {
        "central-binomial", "centered", "bicentered", "stacks"}


@pytest.mark.parametrize("family", sorted(FRACTION_FORMS))
def test_integer_evaluation_agrees_with_fraction_arithmetic(family):
    """Equal ints, or the same exception class and message, for n = -2..79;
    the non-integer message names the reduced fraction as Fraction prints it."""
    fn, reference = formulas.FAMILIES[family], FRACTION_FORMS[family]
    for n in range(-2, 80):
        got, expected = outcome(fn, n), outcome(reference, n)
        assert got == expected and type(got) is type(expected), (family, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_centered_and_stacks_count_convex_shapes_by_their_rows(n, convex_by_size):
    """centered(n) counts the convex permutominoes with a full-width row,
    stacks(n) those whose bottom row is full, both read off the cells of the
    interval oracle's listing."""
    full_row = full_bottom = 0
    for shape in convex_by_size(n):
        rows = Counter(y for _, y in shape.cells)
        width = len({x for x, _ in shape.cells})
        full_row += width in rows.values()
        full_bottom += rows[min(rows)] == width
    assert full_row == formulas.centered(n)
    assert full_bottom == formulas.stacks(n)


@pytest.mark.parametrize("family, first, message, initial", [
    ("central-binomial", 0, "central binomial needs n >= 0", [1]),
    ("centered", 1, "size must be >= 1", [1]),
    ("bicentered", 1, "size must be >= 1", [1, 1, 4]),
    ("stacks", 1, "size must be >= 1", [1]),
])
def test_division_free_families_declare_their_range_and_initial_terms(
        family, first, message, initial):
    """The four forms with no Fraction evaluation: the OutOfRange message just
    below the first index, and the published terms at the first indices."""
    fn = formulas.FAMILIES[family]
    with pytest.raises(OutOfRange) as exc:
        fn(first - 1)
    assert str(exc.value) == message
    assert [fn(n) for n in range(first, first + len(initial))] == initial


def test_each_family_is_the_module_function_of_its_name():
    for family, fn in formulas.FAMILIES.items():
        assert getattr(formulas, fn.__name__) is fn, family


def test_bicentered_matches_the_shapes_with_a_full_row_and_column_only_up_to_size_5():
    """The convex permutominoes with both a full-width row and a full-height
    column, read off the cells of the interval oracle's walk, number 1, 4, 14,
    48, 166, 584 for n = 2..7; bicentered agrees with them only for n <= 5."""
    counts = []
    for n in range(2, 8):
        both = 0
        for shape in oracles.walk(n):
            rows = Counter(y for _, y in shape.cells)
            columns = Counter(x for x, _ in shape.cells)
            both += len(columns) in rows.values() and len(rows) in columns.values()
        counts.append(both)
    assert counts == [1, 4, 14, 48, 166, 584]
    bicentered = [formulas.bicentered(n) for n in range(2, 8)]
    assert bicentered[:4] == counts[:4]
    assert bicentered[4:] == [164, 560]
