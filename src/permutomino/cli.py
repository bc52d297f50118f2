"""Command line surface.

Subcommands: classify, build, enumerate, verify, decompose.  Permutations are
given as one argument of whitespace- or comma-separated 1-based integers (no
brackets).  Exit codes: 0 ok; 1 only for a failed `verify` identity; 2 usage
error (a malformed permutation, a size below 1, a `--max-size` below 2, a
`--cell-px` below 1, a `--workers` below 1, an `--out` path that cannot be
written, an `enumerate --by` or `--method` the class does not support (see
BY_CLASSES), or any other bad argument) and output that cannot be written,
including a standard output closed by its reader; 3 not realizable; 4 size
too large, reported before anything is printed (a fiber with more than
`membership.FREE_FIXED_BOUND` free fixed points among them, and a `verify
--max-size` above `counting.COUNT_BOUND`, rejected before any count); 5
outside the bijection's domain.  An `--out` path whose directory does not
exist is rejected before anything is printed or written.
Counts are computed without a scan, up to size `counting.COUNT_BOUND`;
permutation listings stop at `counting.SCAN_BOUND`.  `build --all` and
`enumerate convex --list` write each shape as soon as it is built (fibers come
in output order), so their memory does not grow with the fiber or the
listing.  A `decompose --render` with no part to draw prints nothing in ASCII
or SVG, and with `--out` writes no file and says so on stderr.  `--workers` is
ignored; it is still accepted only so that existing command lines keep working.
At import this module loads only argparse, os, sys and `errors`; each
subcommand imports what it runs at the top of its own body (`render`, whose
`write` sends shapes to stdout or `--out`, by `build` and `decompose
--render`; `json` only by `verify --json`), so a job loads no module it does
not run: a count loads `counting` and `_kernels` but no shape module.
`main(argv)` runs one command in process and returns its exit code; `run()`,
the process entry point of the `permutomino` script and `python -m
permutomino.cli`, calls it, flushes both streams and ends the process with
`os._exit`, which skips interpreter teardown (every `--out` file is closed
by then, and nothing registers an exit handler).
"""
from __future__ import annotations

import argparse
import os
import sys

from .errors import (
    Indecomposable,
    InvalidSequence,
    NotAssociated,
    NotSquare,
    OutputError,
    ParseError,
    SizeTooLarge,
)

PERM_CLASSES = ("ctilde", "square", "decomposable")
GEO_CLASSES = ("convex", "directed", "parallelogram", "symmetric", "column-convex")
# the classes each `enumerate --by` applies to; `--method` applies to convex only
BY_CLASSES = {"fixed-points": ("convex", "ctilde"), "components": ("square", "decomposable")}


def int_at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def output_path(text: str) -> str:
    """argparse type: a file path whose directory exists."""
    folder = os.path.dirname(text) or "."
    if not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"no such directory: {folder}")
    return text


def parse_permutation(text: str) -> tuple[int, ...]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ParseError("empty permutation")
    values = []
    for i, tok in enumerate(tokens, start=1):
        try:
            values.append(int(tok))
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
    print(f"upper envelope: {' '.join(map(str, env.upper.values))}"
          f"  at positions {' '.join(map(str, env.upper.positions))}")
    print(f"lower envelope: {' '.join(map(str, env.lower.values))}"
          f"  at positions {' '.join(map(str, env.lower.positions))}")
    print(f"square: {'yes' if is_square(p, env) else 'no'}")
    if verdict.member:
        print("odd-vertex realizable: yes")
    elif verdict.reason == "decomposable":
        print(f"odd-vertex realizable: no (decomposable at split {verdict.witness})")
    else:
        a, b, c = verdict.witness
        print(f"odd-vertex realizable: no (lower envelope rises at {a} then falls: {b} > {c})")
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
    from .render import write

    p = parse_permutation(args.perm)
    shapes = fiber(p) if args.all else [canonical_permutomino(p)]
    write(shapes, args.format, args.cell_px, args.out)
    return 0


def cmd_enumerate(args) -> int:
    from . import counting

    n = args.size
    name = args.klass
    if name in GEO_CLASSES and name != "convex":
        shapes = counting.listing(name, n)
        print(len(shapes))
        if args.list:
            for p in shapes:
                print(f"{p.word or '(empty)'}  pi1={' '.join(map(str, p.pi1))}")
        return 0
    if name == "convex":
        # the listing's size bound is checked before the count is printed
        shapes = counting.convex_via_fibers(n) if args.list else []
        by_k = None
        if args.by == "fixed-points":
            by_k = counting.count_ctilde(n)["by_free_fixed_points"]
        if args.method == "intervals":
            count = counting.count_convex(n, method="intervals")
        elif by_k is not None:
            count = counting.fiber_sum(by_k)  # same counts as the rows below
        else:
            count = counting.count_convex(n)
        print(count)
        if by_k is not None:
            for k, v in sorted(by_k.items()):
                print(f"free-fixed-points {k}: {v} permutations, {v * 2**k} permutominoes")
        for p in shapes:
            print(f"{p.word or '(empty)'}  pi1={' '.join(map(str, p.pi1))}")
        return 0
    # the listing's size bound is checked before the count is printed
    listed = counting.perm_listing(name, n) if args.list else []
    if name == "ctilde":
        info = counting.count_ctilde(n)
        print(info["total"])
        if args.by == "fixed-points":
            for k, v in sorted(info["by_free_fixed_points"].items()):
                print(f"free-fixed-points {k}: {v}")
    elif name == "square":
        info = counting.count_square(n)
        print(info["square"])
        if args.by == "components":
            print("components 1:", info["square"] - info["decomposable"])
            for k, v in sorted(info["by_components"].items()):
                print(f"components {k}: {v}")
    else:  # decomposable
        info = counting.count_square(n)
        print(info["decomposable"])
        if args.by == "components":
            for k, v in sorted(info["by_components"].items()):
                print(f"components {k}: {v}")
    for p in listed:
        print(" ".join(map(str, p)))
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
    print(f"components: {len(seq)}")
    for i, part in enumerate(seq, start=1):
        kind = "directed convex" if i in (1, len(seq)) else "parallelogram"
        if part.size == 1:
            print(f"part {i}: (empty)  size 1")
        else:
            print(f"part {i}: size {part.size}  {kind}  boundary {part.word}  "
                  f"pi2={' '.join(map(str, part.pi2))}")
    if args.render:
        from .render import write

        write([part for part in seq if part.size > 1], args.format, args.cell_px, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr, exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message} (see --help)\n")


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
    e.add_argument("klass", metavar="class", choices=PERM_CLASSES + GEO_CLASSES)
    e.add_argument("size", type=int_at_least(1))
    e.add_argument("--list", action="store_true", help="list members in stable order")
    e.add_argument("--by", choices=("fixed-points", "components"),
                   help="stratify the count (fixed-points: convex, ctilde; "
                        "components: square, decomposable)")
    e.add_argument("--method", choices=("fibers", "intervals"),
                   help="convex class only: counting method (default: fibers)")
    e.add_argument("--workers", type=int_at_least(1), default=1,
                   help="ignored; accepted only so that existing command lines keep working")
    e.set_defaults(fn=cmd_enumerate)

    v = sub.add_parser("verify", help="check every counting identity up to a size")
    v.add_argument("--max-size", type=int_at_least(2), default=6)
    v.add_argument("--strict-paper", action="store_true",
                   help="also evaluate the closed forms exactly as printed in the "
                        "source material and report known discrepancies")
    v.add_argument("--json", action="store_true")
    v.add_argument("--workers", type=int_at_least(1), default=1,
                   help="ignored; accepted only so that existing command lines keep working")
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


def _unsupported_option(args) -> str | None:
    """Why an `enumerate` option does not apply to the class, or None."""
    if args.by is not None and args.klass not in BY_CLASSES[args.by]:
        return (f"--by {args.by} does not apply to class {args.klass} "
                f"(only to {' and '.join(BY_CLASSES[args.by])})")
    if args.method is not None and args.klass != "convex":
        return f"--method does not apply to class {args.klass} (only to convex)"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "enumerate" and (problem := _unsupported_option(args)):
        parser.error(problem)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed standard output fails here, not at exit
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # the reader closed standard output: send what is still buffered to
        # devnull, so that the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        try:  # best effort: stderr may be the same closed pipe
            print(f"cannot write output: standard output: {exc.strerror}", file=sys.stderr)
        except OSError:
            os.dup2(devnull, sys.stderr.fileno())
        return 2
    except NotAssociated as exc:
        print(f"not realizable: {exc}", file=sys.stderr)
        return 3
    except SizeTooLarge as exc:
        print(f"size too large: {exc}", file=sys.stderr)
        return 4
    except (NotSquare, Indecomposable, InvalidSequence) as exc:
        print(f"outside the bijection domain: {exc}", file=sys.stderr)
        return 5


def run() -> None:
    """The process entry point: run main, flush both streams and end the
    process with main's exit code, skipping interpreter teardown.

    main has returned by then, so every `--out` file is closed and no module
    registers an exit handler; a flush that fails exits 2, as a standard
    output closed by its reader does.  An exception out of main, argparse's
    SystemExit included, ends the process the normal way.
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
