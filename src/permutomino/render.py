"""ASCII, SVG and JSON renderings of permutominoes.

JSON schema (version field "v" = 1):

    {"v": 1, "size": n, "boundary": "NEN...W" | null,
     "vertices": [[x, y], ...],          # clockwise from the lowest leftmost
     "pi1": [...], "pi2": [...],
     "salient": [[x, y], ...],
     "reentrant": [{"x": x, "y": y, "label": "alpha|beta|gamma|delta"}],
     "classes": {"column_convex": b, "row_convex": b, "convex": b,
                 "directed": b, "parallelogram": b, "symmetric_xy": b}}

The boundary string is authoritative; every other field is derived and checked
on the way back in.

`json_document` writes the CLI's `--format json` text without building these
dicts: one object for one shape, a list otherwise (`[]` for none), laid out as
`json.dumps(..., indent=2)` lays them out.  It joins what `json_chunks`
writes, one shape at a time, which is how the CLI streams a fiber.  It only
does layout: it knows the field order and that vertices and salient corners
are [x, y] pairs; ints go through `int.__repr__`, and the only strings, the
validated N/E/S/W word and the four label names, need no escaping, so they
are quoted as they are.  `json` itself is imported only by `to_json` and
`from_json`.
`tests/test_render.py::test_json_document_matches_json_dumps` holds it byte
for byte to `json.dumps` over `to_jsonable`.

ASCII grids use '#' for a cell and '.' for empty, rows printed top to bottom;
SVG uses the mathematical orientation (y axis upward), cells as rects, salient
corners as hollow squares and reentrant corners as labeled dots.

`write` sends the CLI's renderings to stdout or to `--out` files, each shape as
soon as it is drawn, so a streamed fiber is never held whole.
"""
from __future__ import annotations

import os
import sys
from itertools import chain, count
from typing import Iterable, Iterator

from .boundary import EMPTY, Permutomino, from_boundary_word
from .errors import OutputError

_GLYPH = {"alpha": "α", "beta": "β", "gamma": "γ", "delta": "δ"}  # none needs XML escaping


def to_jsonable(p: Permutomino) -> dict:
    return {
        "v": 1,
        "size": p.size,
        "boundary": p.word,
        "vertices": [list(v) for v in p.vertices],
        "pi1": list(p.pi1),
        "pi2": list(p.pi2),
        "salient": [list(v) for v in p.salient],
        "reentrant": [{"x": x, "y": y, "label": lab} for (x, y), lab in p.reentrant],
        "classes": dict(p.flags),
    }


def _field_list(items: list[str]) -> str:
    """A shape field's list from its items, each already indented as an item."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _pair_items(points) -> list[str]:
    return [f"    [\n      {x!r},\n      {y!r}\n    ]" for x, y in points]


def _shape_text(p: Permutomino) -> str:
    """One shape's `to_jsonable` dict as json.dumps(indent=2) writes it."""
    reentrant = [
        f'    {{\n      "x": {x!r},\n      "y": {y!r},\n      "label": "{label}"\n    }}'
        for (x, y), label in p.reentrant
    ]
    classes = ",\n".join(
        f'    "{key}": {"true" if value else "false"}' for key, value in p.flags.items()
    )
    boundary = "null" if p.word is None else f'"{p.word}"'
    return (
        f'{{\n  "v": 1,\n  "size": {p.size!r},\n'
        f'  "boundary": {boundary},\n'
        f'  "vertices": {_field_list(_pair_items(p.vertices))},\n'
        f'  "pi1": {_field_list([f"    {v!r}" for v in p.pi1])},\n'
        f'  "pi2": {_field_list([f"    {v!r}" for v in p.pi2])},\n'
        f'  "salient": {_field_list(_pair_items(p.salient))},\n'
        f'  "reentrant": {_field_list(reentrant)},\n'
        f'  "classes": {{\n{classes}\n  }}\n}}'
    )


def json_chunks(shapes: Iterable[Permutomino]) -> Iterator[str]:
    """The text of `json_document(shapes)` in pieces, one shape's at a time.

    Each shape is written as soon as it is drawn from shapes; the writer looks
    one shape ahead to tell the one-object case from the list.
    """
    shapes = iter(shapes)
    first = next(shapes, None)
    if first is None:
        yield "[]"
        return
    second = next(shapes, None)
    if second is None:
        yield _shape_text(first)
        return
    opening = "[\n  "
    for p in chain((first, second), shapes):
        # string leaves are json-escaped, so every newline is the layout's own
        yield opening + _shape_text(p).replace("\n", "\n  ")
        opening = ",\n  "
    yield "\n]"


def json_document(shapes: Iterable[Permutomino]) -> str:
    """The shapes as `json.dumps(payload[0] if len(payload) == 1 else payload,
    indent=2)` over their `to_jsonable` dicts: an object for one shape, else a
    list (`[]` for none)."""
    return "".join(json_chunks(shapes))


def to_json(p: Permutomino, indent: int | None = None) -> str:
    import json

    return json.dumps(to_jsonable(p), indent=indent)


def _same_json(a, b) -> bool:
    """Equality of JSON values that, unlike ==, tells true from 1 and 1.0 from 1."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    return a == b


def from_jsonable(data: dict) -> Permutomino:
    """Rebuild from the boundary field and verify the derived fields agree.

    Raises ValueError when data is not a version-1 object whose boundary is a
    string or null, or when a derived field disagrees in value or in JSON type
    (true is not 1, nor 1.0); a boundary string that is not a permutomino
    raises what from_boundary_word raises.
    """
    if not isinstance(data, dict):
        raise ValueError(f"want a JSON object, got {type(data).__name__}")
    if not _same_json(data.get("v"), 1):
        raise ValueError(f"unsupported schema version {data.get('v')!r}")
    if "boundary" not in data:
        raise ValueError("missing field 'boundary'")
    word = data["boundary"]
    if word is not None and not isinstance(word, str):
        raise ValueError("field 'boundary' must be a string or null")
    p = EMPTY if word is None else from_boundary_word(word)
    checks = to_jsonable(p)
    for key in ("size", "pi1", "pi2", "vertices", "salient", "reentrant", "classes"):
        if key in data and not _same_json(data[key], checks[key]):
            raise ValueError(f"inconsistent JSON field {key!r}")
    return p


def from_json(text: str) -> Permutomino:
    import json

    return from_jsonable(json.loads(text))


def ascii_art(p: Permutomino) -> str:
    if p.word is None:
        return "(empty)"
    width = height = p.size - 1
    rows = []
    for y in range(height, 0, -1):
        rows.append("".join("#" if (x, y) in p.cells else "." for x in range(1, width + 1)))
    return "\n".join(rows)


def svg_document(p: Permutomino, cell_px: int = 24) -> str:
    """Standalone SVG with the y axis pointing up (lattice point (1,1) at bottom left)."""
    n = p.size
    pad = cell_px
    side = (n - 1) * cell_px + 2 * pad if p.word else 2 * pad

    def sx(x: float) -> float:
        return pad + (x - 1) * cell_px

    def sy(y: float) -> float:
        return side - pad - (y - 1) * cell_px

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}" '
        f'viewBox="0 0 {side} {side}" data-size="{n}" data-cell-px="{cell_px}">'
    ]
    for (x, y) in sorted(p.cells):
        parts.append(
            f'<rect class="cell" data-x="{x}" data-y="{y}" x="{sx(x)}" y="{sy(y + 1)}" '
            f'width="{cell_px}" height="{cell_px}" fill="#cfd8e3" stroke="#8899aa"/>'
        )
    if p.word is not None:
        outline = " ".join(f"{sx(x)},{sy(y)}" for x, y in p.path[:-1])
        parts.append(f'<polygon points="{outline}" fill="none" stroke="#222" stroke-width="2"/>')
        r = max(cell_px // 6, 3)
        for (x, y) in p.salient:
            parts.append(
                f'<rect class="salient" x="{sx(x) - r}" y="{sy(y) - r}" width="{2 * r}" '
                f'height="{2 * r}" fill="white" stroke="#222"/>'
            )
        for (x, y), label in p.reentrant:
            parts.append(
                f'<circle class="reentrant" data-label="{label}" cx="{sx(x)}" cy="{sy(y)}" '
                f'r="{r}" fill="#222"/>'
            )
            parts.append(
                f'<text x="{sx(x) + r + 2}" y="{sy(y) - r}" font-size="{cell_px // 2}">'
                f"{_GLYPH[label]}</text>"
            )
    parts.append("</svg>")
    return "\n".join(parts)


def write(shapes: Iterable[Permutomino], fmt: str, cell_px: int, out: str | None) -> None:
    """Render shapes as fmt ('ascii', 'svg' with cells cell_px wide, or 'json')
    to out, each shape as soon as it is drawn from shapes.

    JSON is one document; ASCII and SVG are one document per shape, printed
    separated by blank lines or, with out, written to out itself when there is
    one and to numbered files (shape.svg -> shape-1.svg, ...) when there are
    several.  With no document nothing is printed and no file is written.
    """
    if fmt == "json":
        documents = iter([json_chunks(shapes)])
    elif fmt == "svg":
        documents = ([svg_document(p, cell_px)] for p in shapes)
    else:
        documents = ([ascii_art(p)] for p in shapes)
    first = next(documents, None)
    if first is None:
        if out is not None:
            print(f"no shape to render: {out} not written", file=sys.stderr)
        return
    if out is None:
        sys.stdout.writelines(first)
        for pieces in documents:
            sys.stdout.write("\n\n")
            sys.stdout.writelines(pieces)
        sys.stdout.write("\n")
        return
    second = next(documents, None)  # one ahead: is out the file itself?
    if second is None:
        paths, documents = [out], [first]
    else:
        # a name without an extension gets .out
        stem, ext = os.path.splitext(out)
        paths = (f"{stem}-{i}{ext or '.out'}" for i in count(1))
        documents = chain((first, second), documents)
    try:
        for path, pieces in zip(paths, documents):
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
    except OSError as exc:
        raise OutputError(f"{exc.filename}: {exc.strerror}") from None
