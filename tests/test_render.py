import json

import pytest

from permutomino import oracles
from permutomino.boundary import EMPTY, from_boundary_word
from permutomino.membership import canonical_permutomino, fiber
from permutomino.render import (
    ascii_art,
    cells_from_ascii,
    cells_from_svg,
    from_json,
    svg_document,
    to_json,
    to_jsonable,
)


def test_json_round_trip_samples(convex_by_size):
    samples = [EMPTY, from_boundary_word("NESW"), canonical_permutomino((3, 1, 6, 8, 2, 4, 7, 5))]
    samples += list(fiber((2, 1, 3, 4, 5)))
    for n in range(1, 6):
        samples += convex_by_size(n)
    for p in samples:
        assert from_json(to_json(p)) == p


def test_json_schema_fields():
    payload = to_jsonable(canonical_permutomino((2, 1, 3)))
    assert payload["v"] == 1
    assert payload["size"] == 3
    assert payload["pi1"] == [2, 1, 3]
    assert payload["reentrant"] == [{"x": 2, "y": 2, "label": "delta"}]
    assert set(payload["classes"]) == {
        "column_convex", "row_convex", "convex", "directed", "parallelogram", "symmetric_xy",
    }


def test_json_rejects_bad_payloads():
    good = to_jsonable(from_boundary_word("NESW"))
    bad = dict(good, v=2)
    with pytest.raises(ValueError):
        from_json(json.dumps(bad))
    bad = dict(good, pi1=[2, 1])
    with pytest.raises(ValueError):
        from_json(json.dumps(bad))


def test_ascii_round_trip():
    for p in list(fiber((2, 1, 3, 4, 5))) + oracles.enumerate_convex(4):
        assert cells_from_ascii(ascii_art(p)) == p.cells
    assert cells_from_ascii(ascii_art(EMPTY)) == frozenset()
    with pytest.raises(ValueError):
        cells_from_ascii("#x\n..")


def test_ascii_orientation():
    # L-shape: cell (2,2) sits above (2,1); top row renders first
    art = ascii_art(from_boundary_word("NENESSWW"))
    assert art == ".#\n##"


def test_svg_matches_ascii_cells():
    for p in list(fiber((2, 1, 3, 4, 7, 6, 5)))[:2] + [from_boundary_word("NESW")]:
        svg = svg_document(p)
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert cells_from_svg(svg) == cells_from_ascii(ascii_art(p)) == p.cells


def test_svg_marks_corners():
    p = canonical_permutomino((2, 1, 3))
    svg = svg_document(p, cell_px=30)
    assert svg.count('class="salient"') == len(p.salient)
    assert svg.count('class="reentrant"') == 1
    assert 'data-label="delta"' in svg
    assert "δ" in svg  # the label glyph
