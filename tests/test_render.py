import json
import pathlib
import re

import pytest

from permutomino.boundary import EMPTY, Permutomino, from_boundary_word
from permutomino.membership import canonical_permutomino, fiber, free_fixed_points
from permutomino.render import (
    ascii_art,
    from_json,
    json_chunks,
    svg_document,
    to_json,
    to_jsonable,
)
from references import cells_from_ascii, cells_from_svg, sorted_walk


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
    for text in ("[]", "3", '{"v": 1}', '{"v": 1, "boundary": 5}',
                 # true == 1 == 1.0 in Python, but not as JSON values
                 '{"v": true, "boundary": "NESW"}', '{"v": 1.0, "boundary": "NESW"}',
                 '{"v": 1, "boundary": "NESW", "size": 2.0}',
                 '{"v": 1, "boundary": null, "pi1": [true]}'):
        with pytest.raises(ValueError):
            from_json(text)


def test_json_document_matches_json_dumps(convex_by_size):
    def reference(shapes):  # the CLI's encoding before json_chunks
        payload = [to_jsonable(p) for p in shapes]
        return json.dumps(payload[0] if len(payload) == 1 else payload, indent=2)

    perm = (2, 1, 3, 4, 5, 6, 9, 8, 7)
    assert len(free_fixed_points(perm)) >= 4
    cases = [[], [EMPTY], [canonical_permutomino((3, 1, 6, 8, 2, 4, 7, 5))]]
    cases += [convex_by_size(n) for n in range(1, 8)]
    cases += [sorted_walk(n, convex=False) for n in range(1, 7)]  # false flags too
    cases.append(sorted(fiber(perm), key=Permutomino.sort_key))
    for shapes in cases:
        assert "".join(json_chunks(shapes)) == reference(shapes)
        assert "".join(json_chunks(iter(shapes))) == reference(shapes)  # one pass, one ahead


def test_readme_json_example_matches_the_schema():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## JSON schema", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(example) == to_jsonable(from_boundary_word("NENESSWW"))


def test_ascii_round_trip():
    for p in list(fiber((2, 1, 3, 4, 5))) + sorted_walk(4):
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
