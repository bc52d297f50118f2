"""Command line surface.

Subcommands: classify, build, enumerate, verify, decompose.  Permutations are
given as one argument of whitespace- or comma-separated 1-based integers (no
brackets); an integer, there or in a size or option, is an optional sign and
ASCII digits 0-9.  Exit codes: 0 ok; 1 only for a failed `verify` identity;
2 a usage error (a malformed argument or option, an `--out` path that cannot
be written, an `enumerate --by` or `--method` the class does not support, see
BY_CLASSES); otherwise the code of the FAILURES row of the error.  Output
that cannot be written for any reason (a reader that closed the pipe, a full
device, a stream closed before start) exits 2 with one line; with standard
error closed that line, or any note, is lost and the code kept.  Sizes above
a bound are reported before anything is printed, and an empty `--out` path,
or one whose directory does not exist, before anything is written; `build`
and `decompose --render` draw ascii and svg up to `render.DRAW_BOUND`.
`enumerate` counts and lists a class by the routes of `counting.ROUTES`,
each a function of (class, size) with its own bound; `--method` picks a count
route where there are two, and `--by` reads its strata from the count record.
`build --all` streams its shapes, so its memory does not grow with the output.
`--workers` is ignored (IGNORED).
At import this module loads only argparse, errno, io, os, sys and `errors`;
each subcommand imports what it runs in its own body (`render` only to
render, `json` only for `verify --json`): a count loads `counting` and
`_kernels` but no shape module, and `classify` loads `boundary` through
`membership`.
`main(argv)` runs one command in process and returns its exit code; `run()`
is the process entry point of the `permutomino` script and `python -m
permutomino.cli`.
"""
from __future__ import annotations

import argparse
import errno
import io
import os
import sys

from .errors import (Indecomposable, InvalidSequence, NotAssociated, NotSquare, OutputError,
                     ParseError, PermutominoError, SizeTooLarge)

# the `enumerate` classes, in counting.ROUTES order (a test holds the two equal);
# named here because argparse reads them before counting is loaded, and
# classify, build and decompose must not load counting
CLASSES = ("ctilde", "square", "decomposable", "convex", "directed", "parallelogram",
           "symmetric", "column-convex")
# each `enumerate --by`: its classes, the count record key of its strata, their label
BY_CLASSES = {"fixed-points": (("convex", "ctilde"), "by_free_fixed_points", "free-fixed-points"),
              "components": (("square", "decomposable"), "components", "components")}
IGNORED = "ignored; accepted only so that existing command lines keep working"
# (exception types, message prefix, exit code) of each error main reports in
# one stderr line; an OSError is unwritable standard output
FAILURES = (
    (ParseError, "parse error", 2),
    (OutputError, "cannot write output", 2),
    (NotAssociated, "not realizable", 3),
    (SizeTooLarge, "size too large", 4),
    ((NotSquare, Indecomposable, InvalidSequence), "outside the bijection domain", 5),
)


def integer(text: str) -> int:
    """int(text) if text is a sign and ASCII digits 0-9, else ValueError."""
    if not set(text) <= set("+-0123456789"):
        raise ValueError(text)
    return int(text)


def int_at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = integer(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def output_path(text: str) -> str:
    """argparse type: a file path whose directory exists and that is not itself a directory."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    folder = os.path.dirname(text) or "."
    if not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"no such directory: {folder}")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"is a directory: {text}")
    return text


def parse_permutation(text: str) -> tuple[int, ...]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ParseError("empty permutation")
    values = []
    for i, tok in enumerate(tokens, start=1):
        try:
            values.append(integer(tok))
        except ValueError:
            raise ParseError(f"not an integer: {tok!r}", position=i) from None
    n = len(values)
    seen = set()
    for i, v in enumerate(values, start=1):
        if not 1 <= v <= n:
            raise ParseError(f"value {v} outside 1..{n}", position=i)
        if v in seen:
            raise ParseError(f"value {v} repeated", position=i)
        seen.add(v)
    return tuple(values)


def cmd_classify(args) -> int:
    from . import membership
    from .perms import envelopes, is_square

    p = parse_permutation(args.perm)
    env = envelopes(p)
    verdict = membership._verdict(p, env)
    print(f"permutation: {' '.join(map(str, p))}  (n={len(p)})")
    for side, sub in (("upper", env.upper), ("lower", env.lower)):
        print(f"{side} envelope: {' '.join(map(str, sub.values))}"
              f"  at positions {' '.join(map(str, sub.positions))}")
    print(f"square: {'yes' if is_square(p, env) else 'no'}")
    if verdict.member:
        print("odd-vertex realizable: yes")
    elif verdict.reason == "decomposable":
        print(f"odd-vertex realizable: no (decomposable at split {verdict.witness})")
    else:
        (i, u), (j, v), (k, w) = verdict.witness  # (position, value) pairs
        print(f"odd-vertex realizable: no (lower envelope rises from {u} at position {i}"
              f" to {v} at position {j}, then falls to {w} at position {k})")
    print(f"even-vertex realizable: {'yes' if membership.is_associated_pi2(p) else 'no'}")
    if verdict.member:
        free = membership.free_fixed_values(p)
        print(f"free fixed points: {' '.join(map(str, free)) if free else '(none)'}")
        print(f"fiber size: {2 ** len(free)}")
    else:
        print("free fixed points: (not realizable)")
        print("fiber size: 0")
    return 0


def cmd_build(args) -> int:
    from .membership import canonical_permutomino, fiber
    from .render import check_drawable, write

    p = parse_permutation(args.perm)
    check_drawable(args.format, len(p))
    shapes = fiber(p) if args.all else [canonical_permutomino(p)]
    write(shapes, args.format, args.cell_px, args.out)
    return 0


def cmd_enumerate(args) -> int:
    from . import counting

    n, name, by = args.size, args.klass, args.by
    counts, lister = counting.ROUTES[name]
    if by and name not in BY_CLASSES[by][0]:
        args.parser.error(f"--by {by} does not apply to class {name} "
                          f"(only to {' and '.join(BY_CLASSES[by][0])})")
    if args.method and len(counts) < 2:
        only = " and ".join(c for c, (routes, _) in counting.ROUTES.items() if len(routes) > 1)
        args.parser.error(f"--method does not apply to class {name} (only to {only})")
    count = counts[args.method] if args.method else next(iter(counts.values()))
    # bounds come before any output: a listing's, then the count record's, then a walk's
    rows = lister(name, n) if args.list else ()
    strata = counting.scan_stats(n)[BY_CLASSES[by][1]].items() if by else ()
    # a listing held as a list (a sorted walk) is its own count
    print(len(rows) if isinstance(rows, list) else count(name, n))
    for k, v in strata:
        if k > 1 or name != "decomposable":
            print(f"{BY_CLASSES[by][2]} {k}: {v}"
                  + (f" permutations, {v << k} permutominoes" if name == "convex" else ""))
    for row in rows:  # a permutation, or a shape's (pi1, word)
        print(" ".join(map(str, row)) if lister is counting.perm_listing
              else f"{row[1] or '(empty)'}  pi1={' '.join(map(str, row[0]))}")
    return 0


def cmd_verify(args) -> int:
    from . import verify

    report = verify.verify_identities(args.max_size, strict_paper=args.strict_paper)
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2))
    else:
        for e in report.entries:
            print(f"{e.status:10s} {e.name} [{e.sizes}]"
                  + (f"  {e.detail}" if e.detail else ""))
        print(f"{'all identities pass' if report.ok else 'FAILURES present'} "
              f"(max size {report.max_size})")
    return 0 if report.ok else 1


def cmd_decompose(args) -> int:
    from .bijection import permutation_to_sequence, sequence_to_permutation

    p = parse_permutation(args.perm)
    seq = permutation_to_sequence(p)
    if sequence_to_permutation(seq) != p:
        raise AssertionError(f"no round trip for {p}")
    if args.render:  # every part is checked before any line is printed
        from .render import check_drawable, write

        check_drawable(args.format, max(part.size for part in seq))
    print(f"components: {len(seq)}")
    for i, part in enumerate(seq, start=1):
        kind = "directed convex" if i in (1, len(seq)) else "parallelogram"
        if part.size == 1:
            print(f"part {i}: (empty)  size 1")
        else:
            print(f"part {i}: size {part.size}  {kind}  boundary {part.word}  "
                  f"pi2={' '.join(map(str, part.pi2))}")
    if args.render:
        parts = [part for part in seq if part.size > 1]
        if not write(parts, args.format, args.cell_px, args.out) and args.out:
            _note(f"no shape to render: {args.out} not written")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr, exit 2,
    and whose help, unlike argparse's, raises when it cannot be written."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message} (see --help)\n")

    def print_help(self, file=None):
        out = file or sys.stdout
        out.write(self.format_help())
        out.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permutomino",
        description="Convex permutominoes: classify permutations, build fibers, "
        "enumerate classes and verify counting identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="envelopes, square test, realizability, fiber size")
    c.add_argument("perm", help="permutation, e.g. '2 1 3 4 7 6 5'")
    c.set_defaults(fn=cmd_classify)

    b = sub.add_parser("build", help="build the canonical permutomino (or the whole fiber)")
    b.add_argument("perm")
    b.add_argument("--all", action="store_true", help="emit every fiber element")
    b.add_argument("--format", choices=("ascii", "svg", "json"), default="ascii")
    b.add_argument("--cell-px", type=int_at_least(1), default=24,
                   help="SVG cell size in pixels")
    b.add_argument("--out", type=output_path, help="output path (default: standard output)")
    b.set_defaults(fn=cmd_build)

    e = sub.add_parser("enumerate", help="count (and optionally list) a class at a size")
    e.add_argument("klass", metavar="class", choices=CLASSES)
    e.add_argument("size", type=int_at_least(1))
    e.add_argument("--list", action="store_true", help="list members in stable order")
    e.add_argument("--by", choices=BY_CLASSES,
                   help="stratify the count (fixed-points: convex, ctilde; "
                        "components: square, decomposable)")
    e.add_argument("--method", choices=("fibers", "intervals"),
                   help="convex class only: counting method (default: fibers)")
    e.add_argument("--workers", type=int_at_least(1), default=1, help=IGNORED)
    e.set_defaults(fn=cmd_enumerate, parser=e)

    v = sub.add_parser("verify", help="check every counting identity up to a size")
    v.add_argument("--max-size", type=int_at_least(2), default=6)
    v.add_argument("--strict-paper", action="store_true",
                   help="also evaluate the closed forms exactly as printed in the "
                        "source material and report known discrepancies")
    v.add_argument("--json", action="store_true")
    v.add_argument("--workers", type=int_at_least(1), default=1, help=IGNORED)
    v.set_defaults(fn=cmd_verify)

    d = sub.add_parser("decompose", help="split a square permutation into its "
                                         "permutomino sequence")
    d.add_argument("perm")
    d.add_argument("--render", action="store_true", help="render the non-empty parts")
    d.add_argument("--format", choices=("ascii", "svg", "json"), default="ascii")
    d.add_argument("--cell-px", type=int_at_least(1), default=24)
    d.add_argument("--out", type=output_path, help="output path (default: standard output)")
    d.set_defaults(fn=cmd_decompose)

    return parser


class _Closed(io.TextIOBase):
    """A stream whose every write fails; flush does nothing."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


def _note(line: str) -> None:
    """Print line to standard error, best effort: it may be closed or full."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        sys.stderr = _Closed()


def main(argv: list[str] | None = None) -> int:
    # a stream closed before start is None: standard output then fails at
    # its first write, and what _note writes to standard error is lost
    sys.stdout, sys.stderr = (_Closed() if s is None else s for s in (sys.stdout, sys.stderr))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed standard output fails here, not at exit
        return code
    except OSError as exc:
        # drop what standard output still buffers, so no later flush raises again
        sys.stdout = _Closed()
        failure = OutputError(f"standard output: {exc.strerror}")
    except PermutominoError as exc:
        failure = exc
    for types, prefix, code in FAILURES:
        if isinstance(failure, types):
            _note(f"{prefix}: {failure}")
            return code
    raise failure


def run() -> None:
    """The process entry point: run main, flush both streams and end the
    process with main's exit code, skipping interpreter teardown.

    main has returned by then, so every `--out` file is closed and no module
    registers an exit handler; a flush that fails exits 2.  An exception out
    of main, argparse's SystemExit included, ends the process the normal way.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
