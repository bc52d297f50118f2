import pathlib
import re

import pytest

from permutomino import _kernels, cli, counting, formulas, oracles
from permutomino.boundary import Permutomino, reflect_x, reflect_y, transpose
from permutomino.errors import SizeTooLarge
from permutomino.membership import is_associated
from permutomino.perms import square_permutations
from references import sorted_walk


def test_count_ctilde_table_values():
    assert [counting.scan_stats(n)["ctilde"] for n in range(1, 8)] == [1, 1, 3, 13, 62, 301, 1450]


def test_ctilde_stratification_at_4():
    assert counting.scan_stats(4)["by_free_fixed_points"] == {0: 10, 1: 2, 2: 1}


def test_count_square_table_values():
    out = [counting.scan_stats(n) for n in range(1, 8)]
    assert [o["square"] for o in out] == [1, 2, 6, 24, 104, 464, 2088]
    assert [o["decomposable"] for o in out] == [0, 1, 3, 11, 42, 163, 638]
    assert out[2]["components"] == {1: 3, 2: 2, 3: 1}


def test_count_convex_methods_agree():
    """The fiber count equals the length of the oracle's convex walk."""
    for n in range(1, 7):
        assert counting.scan_stats(n)["convex"] == sum(1 for _ in counting.geo_walk("convex", n))


def test_fibers_method_extends_to_size_nine():
    assert counting.scan_stats(9)["convex"] == formulas.convex_permutomino(9)


def test_count_symmetric():
    assert [len(counting.listing("symmetric", n)) for n in range(1, 7)] == [1, 1, 2, 4, 10, 22]


@pytest.mark.parametrize("n", range(1, 9))
def test_permutation_listings_match_the_membership_test(n):
    """On squares the ctilde listing's split test is the paper's membership
    test, and decomposable lists the other squares."""
    squares = list(square_permutations(n))
    assert list(counting.perm_listing("ctilde", n)) == [p for p in squares if is_associated(p)]
    assert list(counting.perm_listing("decomposable", n)) == \
        [p for p in squares if not is_associated(p)]


def test_scan_bound():
    counting.scan_stats(counting.COUNT_BOUND)
    with pytest.raises(SizeTooLarge):
        counting.scan_stats(counting.COUNT_BOUND + 1)
    with pytest.raises(SizeTooLarge):
        counting.convex_via_fibers(9)
    with pytest.raises(SizeTooLarge):
        counting.perm_listing("square", counting.SCAN_BOUND + 1)


def test_size_zero_is_refused_at_the_call():
    """Like every count, the listings refuse size 0 when called, not when
    iterated (they are iterators)."""
    for call in (counting.convex_via_fibers, lambda n: counting.perm_listing("square", n),
                 lambda n: counting.geo_walk("directed", n)):
        for n in (0, -1):
            with pytest.raises(ValueError, match="size must be at least 1"):
                call(n)


@pytest.mark.parametrize("n", range(11, counting.COUNT_BOUND + 1))
def test_counts_above_the_scan_bound_match_the_closed_forms(n):
    stats = counting.scan_stats(n)
    square, decomposable = stats["square"], stats["decomposable"]
    assert square == formulas.square_perms(n)
    assert stats["ctilde"] == sum(stats["by_free_fixed_points"].values()) == formulas.ctilde(n)
    assert stats["convex"] == formulas.convex_permutomino(n)
    assert decomposable == sum(v for k, v in stats["components"].items() if k >= 2)
    assert decomposable == formulas.decomposable_square(n)
    assert 2 * stats["assoc_first_lt_last"] == square
    assert stats["both_ways"] == square - 2 * decomposable


def test_both_ways_is_even_from_size_two():
    """count_stats reads assoc_first_lt_last as ctilde - both_ways/2, which
    needs reversal to pair off the both-ways permutations."""
    for n in range(2, counting.COUNT_BOUND + 1):
        assert _kernels.count_stats(n)["both_ways"] % 2 == 0, n


def test_the_count_table_is_keyed_by_three_numbers():
    """The states (a, b, gap) up to COUNT_BOUND; splitting the gap in two
    around the first value would make them 32,336."""
    _kernels._walk.cache_clear()
    _kernels.count_stats(counting.COUNT_BOUND)
    assert _kernels._walk.cache_info().currsize == 4525


def test_fiber_listing_matches_oracle():
    for n in range(1, 8):
        shapes = list(counting.convex_via_fibers(n))  # streamed, never sorted
        assert shapes == sorted(shapes, key=Permutomino.sort_key)
        assert shapes == sorted_walk(n)


def square_images(p):
    """The images of p under the eight symmetries of the square, by name; the
    two quarter-turns are each other's inverse."""
    x, y = reflect_x(p), reflect_y(p)
    half = reflect_x(y)
    return {"identity": p, "reflect-x": x, "reflect-y": y, "half-turn": half,
            "transpose": transpose(p), "anti-transpose": transpose(half),
            "quarter-turn": transpose(x), "three-quarter-turn": transpose(y)}


# the convex permutominoes of size n = 2..7 that each symmetry fixes; the
# diagonal reflections fix formulas.symmetric(n) shapes each
FIXED = {
    "identity": [1, 4, 18, 84, 394, 1836],
    "reflect-x": [1, 0, 0, 0, 0, 0],
    "reflect-y": [1, 0, 0, 0, 0, 0],
    "half-turn": [1, 0, 6, 0, 34, 0],
    "transpose": [1, 2, 4, 10, 22, 54],
    "anti-transpose": [1, 2, 4, 10, 22, 54],
    "quarter-turn": [1, 0, 0, 0, 4, 0],
    "three-quarter-turn": [1, 0, 0, 0, 4, 0],
}


@pytest.mark.parametrize("route", [oracles.walk, counting.convex_via_fibers],
                         ids=["oracle", "fibers"])
def test_convex_shapes_up_to_symmetry_by_orbits_and_by_burnside(route):
    """The convex permutominoes of size n = 2..7 up to the symmetries of the
    square number 1, 1, 4, 13, 60, 243, by the least word of each orbit and
    by Burnside's average of the fixed counts, through each route."""
    orbits, fixed = [], {name: [] for name in FIXED}
    for n in range(2, 8):
        least, counts = set(), dict.fromkeys(FIXED, 0)
        for p in route(n):
            images = square_images(p)
            least.add(min(q.word for q in images.values()))
            for name, q in images.items():
                counts[name] += q == p
        orbits.append(len(least))
        for name, count in counts.items():
            fixed[name].append(count)
    assert fixed == FIXED
    assert [formulas.symmetric(n) for n in range(2, 8)] == FIXED["transpose"]
    burnside = [sum(column) for column in zip(*fixed.values())]
    assert all(total % 8 == 0 for total in burnside)
    assert orbits == [total // 8 for total in burnside] == [1, 1, 4, 13, 60, 243]


def test_perm_listing_stable():
    listing = list(counting.perm_listing("ctilde", 4))
    assert listing == sorted(listing)
    assert len(listing) == 13
    assert list(counting.perm_listing("square", 3)) == sorted(
        [*counting.perm_listing("ctilde", 3), *counting.perm_listing("decomposable", 3)]
    )
    with pytest.raises(ValueError):
        counting.perm_listing("convex", 3)


def test_geometric_listing_dispatch():
    assert len(counting.listing("directed", 4)) == 10
    assert len(counting.listing("column-convex", 3)) >= 4
    with pytest.raises(ValueError):
        counting.listing("square", 3)


def test_the_route_table_covers_every_enumerate_class():
    assert set(counting.ROUTES) == set(cli.PERM_CLASSES + cli.GEO_CLASSES)


def readme_routes() -> dict[str, tuple[list[str], list[int]]]:
    """{class: (its count methods, the bound of each count route and then of
    its list route)} as the "Classes for `enumerate`" bullets of README say."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullets = readme.split("Classes for `enumerate`", 1)[1].split("\n\n")[1]
    routes = {}
    for bullet in bullets.split("\n- "):
        head, body = " ".join(bullet.removeprefix("- ").split()).split(":", 1)
        methods = re.findall(r"by `([\w-]+)`", body)
        bounds = []
        for both, size in re.findall(r"\((both )?up to size (\d+)\)", body):
            bounds += [int(size)] * (2 if both else 1)
        for name in re.findall(r"`([\w-]+)`", re.sub(r"\(.*?\)", "", head)):
            routes[name] = methods, bounds
    return routes


def test_readme_lists_each_class_with_its_routes_and_bounds():
    """README's class list names every class, its `--method` names in table
    order and each route's bound, which the route accepts and exceeds by one
    with SizeTooLarge; the bounds are the four size constants."""
    readme = readme_routes()
    assert set(readme) == set(counting.ROUTES)
    for name, (counts, lister) in counting.ROUTES.items():
        methods, bounds = readme[name]
        assert methods == list(counts), name
        assert len(bounds) == len(counts) + 1, name
        for route, bound in zip([*counts.values(), lister], bounds):
            out = route(name, bound)
            assert isinstance(out, int) or next(iter(out))
            with pytest.raises(SizeTooLarge):
                next(iter(route(name, bound + 1)))
    assert {b for _, bounds in readme.values() for b in bounds} == {
        counting.COUNT_BOUND, counting.SCAN_BOUND, counting.FIBER_BOUND, counting.ORACLE_BOUND}


def test_each_by_option_reads_strata_that_its_classes_count_records_hold():
    """A class that `--by` applies to counts, by default, from the count
    record, and that record holds the strata `--by` prints."""
    for classes, key, _ in cli.BY_CLASSES.values():
        assert key in ("by_free_fixed_points", "components")
        for name in classes:
            counts, _ = counting.ROUTES[name]
            assert next(iter(counts.values())) is counting.from_record
            assert all(key in counting.scan_stats(n) for n in range(1, 8))


@pytest.mark.parametrize("name", cli.PERM_CLASSES + cli.GEO_CLASSES)
def test_method_applies_exactly_to_the_classes_with_two_count_routes(capsys, name):
    counts, _ = counting.ROUTES[name]
    for method in sorted({method for routes, _ in counting.ROUTES.values() for method in routes}):
        try:
            code = cli.main(["enumerate", name, "3", "--method", method])
        except SystemExit as exc:  # a usage error
            code = exc.code
        err = capsys.readouterr().err
        assert code == (0 if len(counts) > 1 and method in counts else 2), method
        if len(counts) < 2 and method in ("fibers", "intervals"):
            assert err.endswith("--method does not apply to class "
                                f"{name} (only to convex) (see --help)\n")


# the largest size at which a count route of each name is compared with its
# class's listing: the fibers' bound, the oracle's, or 8 for the permutation
# classes, whose listings run to SCAN_BOUND = 10
COMPARED_UP_TO = {"record": 8, "fibers": counting.FIBER_BOUND, "intervals": counting.ORACLE_BOUND}


@pytest.mark.parametrize("name", cli.PERM_CLASSES + cli.GEO_CLASSES)
def test_each_count_route_equals_its_listings_length(name):
    """Wherever a count route and the list route of a class both run, the
    count is the number of rows listed."""
    counts, lister = counting.ROUTES[name]
    compared = {method: 0 for method in counts}
    for n in range(1, 9):
        try:
            listed = sum(1 for _ in lister(name, n))
        except SizeTooLarge:
            continue
        for method, count in counts.items():
            try:
                assert count(name, n) == listed, (method, n)
            except SizeTooLarge:
                continue
            compared[method] = n
    assert compared == {method: COMPARED_UP_TO[method] for method in counts}
