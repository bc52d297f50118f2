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

`json_chunks` writes the CLI's `--format json` text without building these
dicts, one shape at a time, which is how the CLI streams a fiber: one object
for one shape, a list otherwise (`[]` for none), laid out as
`json.dumps(..., indent=2)` lays them out.  It only does layout: it knows the
field order and that vertices and salient corners are [x, y] pairs, and
writes each line break already indented to the shape's depth in the document;
ints go through `int.__repr__`, and the only strings, the validated N/E/S/W
word and the four label names, need no escaping, so they are quoted as they
are.  `json` itself is imported only by `to_json` and `from_json`.
`tests/test_render.py::test_json_document_matches_json_dumps` holds the joined
chunks byte for byte to `json.dumps` over `to_jsonable`.

ASCII grids use '#' for a cell and '.' for empty, rows printed top to bottom;
SVG uses the mathematical orientation (y axis upward), cells as rects, salient
corners as hollow squares and reentrant corners as labeled dots.  Both draw
every cell, so the CLI draws no shape above `DRAW_BOUND` (`check_drawable`).

`write` sends the CLI's renderings to stdout or to `--out` files, each shape as
soon as it is drawn, so a streamed fiber is never held whole; an SVG document
goes out a line at a time (`svg_chunks`), so it is not held whole either.
"""
from __future__ import annotations

import os
import sys
from itertools import chain, count
from typing import Iterable, Iterator

from .boundary import EMPTY, Permutomino, from_boundary_word
from .errors import OutputError, check_size

_GLYPH = {"alpha": "α", "beta": "β", "gamma": "γ", "delta": "δ"}  # none needs XML escaping
# ascii and svg draw every cell; the fullest convex shapes of sizes 5-7 fill
# 3/4 of the (n-1)^2 box, and at this size that pattern, pi1 = 1, 101..199,
# 2..100, 200, is 29,701 cells, a 3.57 MB svg that `build` writes in about
# 0.1 s and 20 MB
DRAW_BOUND = 200


def check_drawable(fmt: str, size: int) -> None:
    """SizeTooLarge when fmt draws cells (ascii, svg) and size is above
    DRAW_BOUND; JSON is not bounded."""
    if fmt != "json":
        check_size(size, DRAW_BOUND, f"{fmt} drawings are")


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


def _shape_text(p: Permutomino, nl: str) -> str:
    """One shape's `to_jsonable` dict as json.dumps(indent=2) writes it, with
    each line break written as nl: "\n" for a lone shape, "\n  " for a list item."""
    field, item, leaf = nl + "  ", nl + "    ", nl + "      "

    def listed(texts: list[str]) -> str:
        return f"[{item}" + f",{item}".join(texts) + f"{field}]" if texts else "[]"

    def pairs(points) -> str:
        return listed([f"[{leaf}{x!r},{leaf}{y!r}{item}]" for x, y in points])

    reentrant = listed([f'{{{leaf}"x": {x!r},{leaf}"y": {y!r},{leaf}"label": "{label}"{item}}}'
                        for (x, y), label in p.reentrant])
    classes = f",{item}".join(
        f'"{key}": {"true" if value else "false"}' for key, value in p.flags.items())
    boundary = "null" if p.word is None else f'"{p.word}"'
    return (
        f'{{{field}"v": 1,{field}"size": {p.size!r},{field}"boundary": {boundary},'
        f'{field}"vertices": {pairs(p.vertices)},'
        f'{field}"pi1": {listed([repr(v) for v in p.pi1])},'
        f'{field}"pi2": {listed([repr(v) for v in p.pi2])},'
        f'{field}"salient": {pairs(p.salient)},{field}"reentrant": {reentrant},'
        f'{field}"classes": {{{item}{classes}{field}}}{nl}}}'
    )


def json_chunks(shapes: Iterable[Permutomino]) -> Iterator[str]:
    """The shapes as `json.dumps(payload[0] if len(payload) == 1 else payload,
    indent=2)` over their `to_jsonable` dicts (an object for one shape, else a
    list, `[]` for none), in pieces, one shape's at a time.

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
        yield _shape_text(first, "\n")
        return
    opening = "[\n  "
    for p in chain((first, second), shapes):
        yield opening + _shape_text(p, "\n  ")
        opening = ",\n  "
    yield "\n]"


def to_json(p: Permutomino) -> str:
    import json

    return json.dumps(to_jsonable(p))


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


def svg_chunks(p: Permutomino, cell_px: int = 24) -> Iterator[str]:
    """`svg_document` in pieces, one line at a time, each after the first
    opening with its line break."""
    n = p.size
    pad = cell_px
    side = (n - 1) * cell_px + 2 * pad if p.word else 2 * pad

    def sx(x: float) -> float:
        return pad + (x - 1) * cell_px

    def sy(y: float) -> float:
        return side - pad - (y - 1) * cell_px

    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}" '
           f'viewBox="0 0 {side} {side}" data-size="{n}" data-cell-px="{cell_px}">')
    for (x, y) in sorted(p.cells):
        yield (f'\n<rect class="cell" data-x="{x}" data-y="{y}" x="{sx(x)}" y="{sy(y + 1)}" '
               f'width="{cell_px}" height="{cell_px}" fill="#cfd8e3" stroke="#8899aa"/>')
    if p.word is not None:
        outline = " ".join(f"{sx(x)},{sy(y)}" for x, y in p.path[:-1])
        yield f'\n<polygon points="{outline}" fill="none" stroke="#222" stroke-width="2"/>'
        r = max(cell_px // 6, 3)
        for (x, y) in p.salient:
            yield (f'\n<rect class="salient" x="{sx(x) - r}" y="{sy(y) - r}" width="{2 * r}" '
                   f'height="{2 * r}" fill="white" stroke="#222"/>')
        for (x, y), label in p.reentrant:
            yield (f'\n<circle class="reentrant" data-label="{label}" cx="{sx(x)}" cy="{sy(y)}" '
                   f'r="{r}" fill="#222"/>')
            yield (f'\n<text x="{sx(x) + r + 2}" y="{sy(y) - r}" font-size="{cell_px // 2}">'
                   f"{_GLYPH[label]}</text>")
    yield "\n</svg>"


def svg_document(p: Permutomino, cell_px: int = 24) -> str:
    """Standalone SVG with the y axis pointing up (lattice point (1,1) at bottom left)."""
    return "".join(svg_chunks(p, cell_px))


def write(shapes: Iterable[Permutomino], fmt: str, cell_px: int, out: str | None) -> bool:
    """Render shapes as fmt ('ascii', 'svg' with cells cell_px wide, or 'json')
    to out, each shape as soon as it is drawn from shapes.

    JSON is one document; ASCII and SVG are one document per shape, printed
    separated by blank lines or, with out, written to out itself when there is
    one and to numbered files (shape.svg -> shape-1.svg, ...) when there are
    several.  Returns whether there was a document: with none, nothing is
    printed and no file is written.
    """
    if fmt == "json":
        documents = iter([json_chunks(shapes)])
    elif fmt == "svg":
        documents = (svg_chunks(p, cell_px) for p in shapes)
    else:
        documents = ([ascii_art(p)] for p in shapes)
    first = next(documents, None)
    if first is None:
        return False
    if out is None:
        sys.stdout.writelines(first)
        for pieces in documents:
            sys.stdout.write("\n\n")
            sys.stdout.writelines(pieces)
        sys.stdout.write("\n")
        return True
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
        raise OutputError(f"{path}: {exc.strerror}") from None
    return True
