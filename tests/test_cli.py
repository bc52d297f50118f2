import ast
import contextlib
import errno
import hashlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutomino import _kernels, counting, formulas, matrix, oracles, render
from permutomino.cli import GEO_CLASSES, PERM_CLASSES, main, parse_permutation
from permutomino.errors import ParseError
from permutomino.membership import FREE_FIXED_BOUND, canonical_permutomino
from references import cells_from_ascii


def run(capsys, *argv):
    """main's exit code, standard output and standard error, in this process."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_permutation():
    assert parse_permutation("2 1 3") == (2, 1, 3)
    assert parse_permutation("2,1,3") == (2, 1, 3)
    for text, position in [("2 x 3", 2), ("1 2 4", 3), ("1 2 2", 3), ("0 1", 1)]:
        with pytest.raises(ParseError) as exc:
            parse_permutation(text)
        assert exc.value.position == position


def test_classify_member(capsys):
    code, out, _ = run(capsys, "classify", "2 1 3 4 7 6 5")
    assert code == 0
    assert "upper envelope: 2 3 4 7 6 5" in out
    assert "lower envelope: 2 1 5" in out
    assert "square: yes" in out
    assert "odd-vertex realizable: yes" in out
    assert "free fixed points: 3 4" in out
    assert "fiber size: 4" in out


def test_classify_non_member_witness(capsys):
    code, out, _ = run(capsys, "classify", "5 9 8 7 6 3 1 2 4")
    assert code == 0
    assert "decomposable at split 5" in out
    code, out, _ = run(capsys, "classify", "1")
    assert code == 0 and "odd-vertex realizable: yes" in out


def test_classify_names_the_values_and_positions_of_a_non_square_witness(capsys):
    code, out, _ = run(capsys, "classify", "5 2 3 4 1")
    assert code == 0
    assert "odd-vertex realizable: no (lower envelope rises from 2 at position 2 to 3 at" \
        " position 3, then falls to 1 at position 5)\n" in out


def test_classify_parse_error(capsys):
    code, _, err = run(capsys, "classify", "1 2 5")
    assert code == 2 and "parse error" in err


def test_build_single_and_fiber(capsys):
    code, out, _ = run(capsys, "build", "1 2")
    assert code == 0 and out.strip() == "#"
    code, out, _ = run(capsys, "build", "2 1 3 4 5", "--all")
    assert code == 0
    grids = [g for g in out.strip().split("\n\n") if g.strip()]
    assert len(grids) == 4
    assert len({frozenset(cells_from_ascii(g)) for g in grids}) == 4


def test_build_not_realizable(capsys):
    code, _, err = run(capsys, "build", "2 1")
    assert code == 3 and "not realizable" in err


def test_build_json(capsys):
    code, out, _ = run(capsys, "build", "3 1 6 8 2 4 7 5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["v"] == 1
    assert payload["pi1"] == [3, 1, 6, 8, 2, 4, 7, 5]
    assert payload["classes"]["convex"] is True


EMPTY_SHAPE_JSON = """{
  "v": 1,
  "size": 1,
  "boundary": null,
  "vertices": [],
  "pi1": [
    1
  ],
  "pi2": [
    1
  ],
  "salient": [],
  "reentrant": [],
  "classes": {
    "column_convex": true,
    "row_convex": true,
    "convex": true,
    "directed": true,
    "parallelogram": true,
    "symmetric_xy": true
  }
}
"""


def test_json_edge_outputs(capsys):
    code, out, err = run(capsys, "decompose", "2 1", "--render", "--format", "json")
    assert code == 0 and err == ""
    assert out.endswith("part 2: (empty)  size 1\n[]\n")  # no non-empty part
    code, out, err = run(capsys, "build", "1", "--format", "json")
    assert code == 0 and err == ""
    assert out == EMPTY_SHAPE_JSON


def test_build_out_files(tmp_path, capsys):
    target = tmp_path / "shape.svg"
    code, out, _ = run(capsys, "build", "1 2 3", "--format", "svg", "--out", str(target))
    assert code == 0 and out == "" and target.exists()
    code, _, _ = run(capsys, "build", "2 1 3 4 5", "--all", "--format", "json",
                     "--out", str(tmp_path / "fiber.json"))
    assert code == 0
    payload = json.loads((tmp_path / "fiber.json").read_text())
    assert isinstance(payload, list) and len(payload) == 4  # one array document
    code, _, _ = run(capsys, "build", "2 1 3 4 5", "--all", "--format", "svg",
                     "--out", str(tmp_path / "fiber.svg"))
    assert code == 0
    assert len(sorted(tmp_path.glob("fiber-*.svg"))) == 4  # numbered files per shape
    # only the file name's own extension is split off, and a name without one gets .out
    (tmp_path / "x.d").mkdir()
    for out, first in [("x.d/shape", "x.d/shape-1.out"), (".hidden", ".hidden-1.out")]:
        code, _, err = run(capsys, "build", "1 2 3 4", "--all", "--out", str(tmp_path / out))
        assert code == 0 and err == ""
        assert (tmp_path / first).read_text().count("#") > 0
        assert len(list(tmp_path.glob(first.replace("-1.", "-*.")))) == 4


def test_enumerate_counts(capsys):
    assert run(capsys, "enumerate", "convex", "5")[1].splitlines()[0] == "84"
    assert run(capsys, "enumerate", "ctilde", "7", "--workers", "1")[1].strip() == "1450"
    assert run(capsys, "enumerate", "square", "5")[1].strip() == "104"
    assert run(capsys, "enumerate", "decomposable", "4")[1].strip() == "11"
    assert run(capsys, "enumerate", "convex", "4", "--method", "intervals")[1].strip() == "18"
    assert run(capsys, "enumerate", "symmetric", "6")[1].strip() == "22"
    assert run(capsys, "enumerate", "column-convex", "3")[1].splitlines()[0] == "4"


def test_enumerate_stratified(capsys):
    code, out, _ = run(capsys, "enumerate", "ctilde", "4", "--by", "fixed-points")
    assert code == 0
    assert out.splitlines()[0] == "13"
    assert "free-fixed-points 0: 10" in out
    assert "free-fixed-points 2: 1" in out
    code, out, _ = run(capsys, "enumerate", "square", "4", "--by", "components")
    assert "components 1: 13" in out
    assert "components 2: 7" in out


def test_enumerate_listing(capsys):
    code, out, _ = run(capsys, "enumerate", "convex", "3", "--list")
    lines = out.splitlines()
    assert lines[0] == "4" and len(lines) == 5
    assert all("pi1=" in line for line in lines[1:])
    code, out, _ = run(capsys, "enumerate", "ctilde", "3", "--list")
    assert out.splitlines()[1:] == ["1 2 3", "1 3 2", "2 1 3"]


def scan_spy(monkeypatch):
    """Record the size of every counting.scan_stats call."""
    sizes = []
    real = counting.scan_stats

    def spy(n, workers=1):
        sizes.append(n)
        return real(n, workers)

    monkeypatch.setattr(counting, "scan_stats", spy)
    return sizes


@pytest.mark.parametrize("name, count, by, first_row", [
    ("convex", 1836, "fixed-points", "free-fixed-points 0: 1264 permutations, 1264 permutominoes"),
    ("ctilde", 1450, "fixed-points", "free-fixed-points 0: 1264"),
    ("square", 2088, "components", "components 1: 1450"),
    ("decomposable", 638, "components", "components 2: 382"),
], ids=["convex", "ctilde", "square", "decomposable"])
@pytest.mark.parametrize("stratified", [False, True], ids=["count", "by"])
def test_each_count_route_scans_once(capsys, monkeypatch, name, count, by, first_row,
                                     stratified):
    """A count, with or without its strata, reads one count record, of its size."""
    sizes = scan_spy(monkeypatch)
    argv = ("enumerate", name, "7", "--workers", "1") + (("--by", by) if stratified else ())
    code, out, _ = run(capsys, *argv)
    assert code == 0 and sizes == [7]
    lines = out.splitlines()
    assert lines[0] == str(count)
    assert lines[1:2] == ([first_row] if stratified else [])


def test_verify_scans_each_size_once(capsys, monkeypatch):
    sizes = scan_spy(monkeypatch)
    code, _, _ = run(capsys, "verify", "--max-size", "6", "--workers", "1")
    assert code == 0 and sizes == [1, 2, 3, 4, 5, 6]


def test_verify_checks_the_count_bound_before_counting(capsys, monkeypatch):
    sizes = scan_spy(monkeypatch)
    code, out, err = run(capsys, "verify", "--max-size", "1000")
    assert code == 4 and out == "" and sizes == []
    assert len(err.splitlines()) == 1 and "1000" in err


ORACLE, FIBERS, LISTINGS, COUNTS = ("interval oracle is", "fiber listing is",
                                    "permutation listings are", "counts are")
# (enumerate arguments, the bound it reports, the size of that bound)
ROUTE_BOUNDS = [
    (("convex", "31", "--method", "intervals"), ORACLE, 6),
    (("convex", "7", "--method", "intervals", "--by", "fixed-points"), ORACLE, 6),
    (("convex", "31", "--list"), FIBERS, 7),
    (("convex", "8", "--list", "--by", "fixed-points"), FIBERS, 7),
    (("ctilde", "31", "--list"), LISTINGS, 10),
    (("square", "11", "--list", "--by", "components"), LISTINGS, 10),
    (("symmetric", "31"), ORACLE, 6),
    (("column-convex", "7", "--list"), ORACLE, 6),
    (("convex", "31"), COUNTS, 30),
]


@pytest.mark.parametrize("argv, bound, limit", ROUTE_BOUNDS,
                         ids=[" ".join(argv) for argv, _, _ in ROUTE_BOUNDS])
def test_enumerate_names_the_bound_of_the_route_it_takes(capsys, argv, bound, limit):
    """An oracle walk or a listing is bounded below the counts, and its bound,
    not the counts', is the one reported, before anything is printed."""
    code, out, err = run(capsys, "enumerate", *argv)
    assert (code, out) == (4, "")
    assert err == f"size too large: {bound} bounded at size {limit}, got {argv[1]}\n"


def oracle_spy(monkeypatch):
    """Record the size of every oracles.walk call."""
    sizes = []
    real = oracles.walk

    def spy(n, convex=True):
        sizes.append(n)
        return real(n, convex)

    monkeypatch.setattr(oracles, "walk", spy)
    return sizes


def test_convex_listing_is_built_once_per_size(capsys, monkeypatch):
    sizes = oracle_spy(monkeypatch)
    code, _, _ = run(capsys, "verify", "--max-size", "6", "--workers", "1")
    assert code == 0 and sizes == [1, 2, 3, 4, 5, 6]
    sizes.clear()
    code, out, _ = run(capsys, "enumerate", "symmetric", "6", "--list")
    assert code == 0 and out.splitlines()[0] == "22" and sizes == [6]


USAGE_ERRORS = [
    ((), ("enumerate", "square", "0"), "must be at least 1"),
    ((), ("enumerate", "convex", "0"), "must be at least 1"),
    ((), ("enumerate", "symmetric", "-1"), "must be at least 1"),
    ((), ("enumerate", "ctilde", "x"), "not an integer"),
    ((), ("verify", "--max-size", "1"), "must be at least 2"),
    ((), ("enumerate", "square", "5", "--workers", "-3"), "must be at least 1"),
    ((), ("verify", "--max-size", "3", "--workers", "0"), "must be at least 1"),
    ((), ("build", "1 2", "--format", "svg", "--cell-px", "0"), "must be at least 1"),
    ((), ("decompose", "3 4 1 2", "--render", "--cell-px", "0"), "must be at least 1"),
    ((), ("build", "2 1 3", "--out", "/nonexistent/x.txt"), "no such directory"),
    ((), ("decompose", "3 4 1 2", "--render", "--out", "/nonexistent/x.txt"),
     "no such directory"),
    ((), ("enumerate", "convex", "7", "--by", "components"), "does not apply to class convex"),
    ((), ("enumerate", "square", "9", "--by", "fixed-points"), "does not apply to class square"),
    ((), ("enumerate", "ctilde", "5", "--by", "components"), "does not apply to class ctilde"),
    ((), ("enumerate", "decomposable", "5", "--by", "fixed-points"),
     "does not apply to class decomposable"),
    ((), ("enumerate", "directed", "5", "--by", "fixed-points"), "does not apply to class directed"),
    ((), ("enumerate", "parallelogram", "5", "--by", "components"),
     "does not apply to class parallelogram"),
    ((), ("enumerate", "symmetric", "5", "--by", "fixed-points"), "does not apply to class symmetric"),
    ((), ("enumerate", "column-convex", "5", "--by", "components"),
     "does not apply to class column-convex"),
    ((), ("enumerate", "square", "5", "--method", "intervals"), "--method does not apply"),
    ((), ("enumerate", "ctilde", "5", "--method", "fibers"), "--method does not apply"),
    ((), ("enumerate", "directed", "5", "--method", "intervals"), "--method does not apply"),
    ((), ("enumerate", "column-convex", "9", "--list", "--method", "intervals"),
     "--method does not apply"),
    ((), ("build", "1 2 3", "--out", ""), "empty path"),
    ((), ("decompose", "3 4 1 2", "--render", "--out", ""), "empty path"),
    # an integer is an optional sign and ASCII digits 0-9: no underscore,
    # no other script's digits, no decimal point
    ((), ("enumerate", "square", "1_0"), "not an integer"),
    ((), ("enumerate", "square", "\u0665"), "not an integer"),
    ((), ("enumerate", "convex", "1.0"), "not an integer"),
    ((), ("verify", "--max-size", "1_0"), "not an integer"),
    ((), ("verify", "--max-size", "\u0666"), "not an integer"),
    ((), ("build", "1 2", "--format", "svg", "--cell-px", "2_4"), "not an integer"),
    ((), ("decompose", "3 4 1 2", "--render", "--cell-px", "2.0"), "not an integer"),
    ((), ("classify", "\u0661 \u0662"), "not an integer"),
    ((), ("classify", "2_0 1"), "not an integer"),
    ((), ("build", "2 1.0"), "not an integer"),
]


@pytest.mark.parametrize("env,argv,message", USAGE_ERRORS)
def test_usage_errors_exit_2_with_one_line(capsys, monkeypatch, env, argv, message):
    for name, value in env:
        monkeypatch.setenv(name, value)
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the value before any command runs
        code = exc.code
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert len(out.err.splitlines()) == 1 and message in out.err


def test_a_signed_integer_reads_as_before(capsys):
    assert run(capsys, "enumerate", "square", "+5") == (0, "104\n", "")
    assert parse_permutation("+2 1") == (2, 1)
    with pytest.raises(ParseError, match="value -1 outside 1..2"):
        parse_permutation("2 -1")


@pytest.mark.parametrize("argv", [
    ("enumerate", "square", "9", "--by", "fixed-points"),
    ("enumerate", "ctilde", "5", "--method", "fibers"),
])
def test_enumerate_option_misuse_names_the_subcommand(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("permutomino enumerate: error: ") and "does not apply" in err


IDENTITY_20 = " ".join(map(str, range(1, 21)))  # 18 free fixed points

TOO_LARGE = [
    ("enumerate", "convex", "9", "--list"),
    ("enumerate", "symmetric", "7", "--list"),
    ("enumerate", "square", "11", "--list"),
    ("enumerate", "decomposable", "11", "--list"),
    ("enumerate", "ctilde", "12", "--list"),
    ("build", IDENTITY_20, "--all"),
]


@pytest.mark.parametrize("argv", TOO_LARGE)
def test_bounds_are_checked_before_output(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1 and "size too large" in err


def _fullest(n):
    """1, m+1..n-1, 2..m, n for m = n // 2: its convex permutomino fills 3/4
    of its box, as the fullest ones of sizes 5-7 do."""
    m = n // 2
    return " ".join(map(str, (1, *range(m + 1, n), *range(2, m + 1), n)))


@pytest.mark.parametrize("fmt", ["ascii", "svg"])
def test_drawings_are_bounded_before_output(capsys, fmt):
    """`build` and `decompose --render` draw up to render.DRAW_BOUND; a shape
    one larger exits 4 with one stderr line and nothing on stdout, checked
    before decompose prints its parts.  JSON is not bounded."""
    bound = render.DRAW_BOUND
    cell = 'class="cell"' if fmt == "svg" else "#"
    for n in (bound, bound + 1):
        # the decomposed square's first part is the identity of size n
        split = " ".join(map(str, (*range(2, n + 2), 1)))
        for argv in (("build", _fullest(n)), ("decompose", split, "--render")):
            code, out, err = run(capsys, *argv, "--format", fmt)
            if n > bound:
                assert (code, out) == (4, ""), argv
                assert err == f"size too large: {fmt} drawings are bounded at size {bound}, got {n}\n"
            else:
                assert code == 0 and err == "", argv
                # 3/4 of the box, rounded up, for the fullest shape; the
                # identity's staircase for the decomposed part
                cells = -(-3 * (n - 1) ** 2 // 4) if argv[0] == "build" else n * (n - 1) // 2
                assert out.count(cell) == cells, argv
    code, out, err = run(capsys, "build", _fullest(bound + 1), "--format", "json")
    assert code == 0 and json.loads(out)["size"] == bound + 1 and err == ""


# sizes 1-6 and one over each bound: the oracle's, the fiber listing's, the
# permutation listings' and the counts'; no size reaches a slow listing
# (`enumerate ctilde 10 --list` takes seconds)
SIZES = [*range(1, 7), counting.ORACLE_BOUND + 1, counting.FIBER_BOUND + 1,
         counting.SCAN_BOUND + 1, counting.COUNT_BOUND + 1]
# the identity of this size has one free fixed point more than a fiber may have
OVER_FIBER_BOUND = " ".join(map(str, range(1, FREE_FIXED_BOUND + 4)))


def _one(values):
    """One positional argument from values."""
    return st.sampled_from(values).map(lambda value: (value,))


def _option(flag, values=None):
    """Nothing, or the flag (with one of values when it takes a value)."""
    present = st.just((flag,)) if values is None else st.sampled_from(values).map(
        lambda value: (flag, value))
    return st.one_of(st.just(()), present)


def _command(name, *parts):
    """The argv of subcommand name: each part draws a tuple of arguments."""
    return st.tuples(*parts).map(lambda drawn: [name, *(arg for part in drawn for arg in part)])


def _commands(out_dir):
    perm = st.one_of(
        st.integers(1, 6).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
            lambda p: " ".join(map(str, p))),
        st.sampled_from(["", "1 1", "0 1", "2 x 1", "1,3,2", OVER_FIBER_BOUND])).map(
        lambda text: (text,))
    render = (_option("--format", ["ascii", "svg", "json", "png"]),
              _option("--cell-px", ["0", "1", "24"]),
              _option("--out", [str(out_dir / "shape.txt"), str(out_dir / "no" / "x.svg"),
                                str(out_dir), ""]))
    workers = _option("--workers", ["0", "1", "2"])
    return st.one_of(
        _command("classify", perm),
        _command("build", perm, _option("--all"), *render),
        _command("enumerate", _one(PERM_CLASSES + GEO_CLASSES),
                 _one([str(n) for n in SIZES] + ["0", "-1", "x"]), _option("--list"),
                 _option("--by", ["fixed-points", "components"]),
                 _option("--method", ["fibers", "intervals"]), workers),
        _command("verify", _option("--max-size", ["1", "2", "4", "6", str(counting.COUNT_BOUND + 1)]),
                 _option("--strict-paper"), _option("--json"), workers),
        _command("decompose", perm, _option("--render"), *render),
    )


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("out")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_command_exits_with_a_documented_code(out_dir, data):
    """Over the argument grammar, every exit is 0, 2, 3, 4 or 5, and 1 only
    from `verify`; exits 2-5 write one stderr line and no traceback, and
    exit 4 prints nothing."""
    argv = data.draw(_commands(out_dir), label="argv")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    err = stderr.getvalue()
    assert code in (0, 2, 3, 4, 5) or code == 1 and argv[0] == "verify", (argv, code)
    if code >= 2:
        assert len(err.splitlines()) == 1 and err.endswith("\n"), (argv, err)
        assert "Traceback" not in err
    if code == 4:
        assert stdout.getvalue() == "", argv


def test_enumerate_size_too_large(capsys):
    """The oracle's walk is lazy; its bound is still checked before the count is printed."""
    code, out, err = run(capsys, "enumerate", "column-convex", "9")
    assert code == 4 and out == "" and "size too large" in err
    code, out, err = run(capsys, "enumerate", "directed", "7")
    assert code == 4 and out == "" and len(err.splitlines()) == 1 and "size too large" in err
    code, _, err = run(capsys, "enumerate", "ctilde", str(counting.COUNT_BOUND + 1))
    assert code == 4
    code, out, _ = run(capsys, "enumerate", "convex", "11")  # above the listing bound
    assert code == 0 and out == "780156\n"


# a file name longer than any file system takes, in a directory that exists:
# the path passes the argument check and fails only when it is opened
UNWRITABLE = "x" * 300


def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys):
    code, out, err = run(capsys, "build", "2 1 3", "--out", str(tmp_path / UNWRITABLE))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "cannot write output" in err


def test_out_naming_a_directory_is_a_usage_error(tmp_path, capsys):
    for argv in (("build", "1 2 3"), ("decompose", "3 4 1 2", "--render")):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 2 and out == "", argv
        assert len(err.splitlines()) == 1 and f"is a directory: {tmp_path}" in err, argv
    assert list(tmp_path.iterdir()) == []


def test_fiber_bound_leaves_classify_and_single_build(capsys):
    code, out, _ = run(capsys, "classify", IDENTITY_20)
    assert code == 0 and "fiber size: 262144" in out
    code, out, _ = run(capsys, "build", IDENTITY_20)
    assert code == 0 and len(out.splitlines()) == 19


def test_decompose_beyond_the_fiber_bound(capsys):
    # component 1..15 has 13 free fixed points, but decompose builds one shape of it
    code, out, _ = run(capsys, "decompose", " ".join(map(str, range(2, 17))) + " 1")
    assert code == 0 and "components: 2" in out


def subprocess_env() -> dict[str, str]:
    """The environment, with this checkout's src first on PYTHONPATH."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def test_closed_stdout_exits_2_with_one_line():
    perm = " ".join(map(str, range(1, 13)))  # 10 free fixed points: ~3 MB of JSON
    with subprocess.Popen(
        [sys.executable, "-m", "permutomino.cli", "build", perm, "--all", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env(),
    ) as proc:
        try:
            assert proc.stdout.read(16)
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
    assert code == 2
    assert len(err.splitlines()) == 1 and "cannot write output" in err
    assert "Traceback" not in err


def test_closed_stdout_and_stderr_on_one_pipe_exit_2():
    """With both streams on the pipe the reader closed, the one-line message
    cannot be written either; the exit code is still 2, not 1."""
    perm = " ".join(map(str, range(1, 13)))
    with subprocess.Popen(
        [sys.executable, "-m", "permutomino.cli", "build", perm, "--all", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=subprocess_env(),
    ) as proc:
        try:
            assert len(proc.stdout.read(16)) == 16
            proc.stdout.close()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
    assert code == 2


# a multi-shape SVG or ASCII --out writes numbered files beside its path
# (/dev/full-1.out), so only single-document outputs are pointed at /dev/full
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, redirect, code, err", [
    (("classify", "1"), ">/dev/full", 2,
     "cannot write output: standard output: No space left on device\n"),
    (("classify", "1"), ">&-", 2, "cannot write output: standard output: Bad file descriptor\n"),
    (("build", "2,1"), "2>&-", 3, ""),
    (("enumerate", "square", "31"), "2>&-", 4, ""),
    (("classify", "1"), "2>&-", 0, ""),
    (("build", "2 1 3", "--all", "--format", "json", "--out", "/dev/full"), "", 2,
     "cannot write output: /dev/full: No space left on device\n"),
    (("--help",), ">/dev/full", 2,
     "cannot write output: standard output: No space left on device\n"),
    (("--help",), ">&-", 2, "cannot write output: standard output: Bad file descriptor\n"),
    (("enumerate", "--help"), ">/dev/full", 2,
     "cannot write output: standard output: No space left on device\n"),
], ids=["full-stdout", "closed-stdout", "closed-stderr-3", "closed-stderr-4", "closed-stderr-0",
        "full-out", "help-full-stdout", "help-closed-stdout", "subcommand-help-full-stdout"])
def test_unwritable_streams_exit_with_their_code_in_one_line(capsys, argv, redirect, code, err):
    """A full device or a stream closed before start: the documented code, at
    most one stderr line and no traceback; with stderr closed, no line at all."""
    command = shlex.join([sys.executable, "-m", "permutomino.cli", *argv])
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(["/bin/sh", "-c", f"exec {command} {redirect}"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (code, err)
    expected = run(capsys, *argv)
    if code != 2:  # stdout is still open: it gets what main prints in process
        assert (proc.returncode, proc.stdout) == expected[:2]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("redirect", ["", "2>/dev/full"], ids=["stderr", "full-stderr"])
def test_the_render_note_is_best_effort(tmp_path, redirect):
    """With no part to draw, `decompose --render --out` writes no file and
    notes so on standard error; a full standard error loses the note, not
    the exit code."""
    target = tmp_path / "x.svg"
    argv = ("decompose", "2 1", "--render", "--out", str(target))
    command = shlex.join([sys.executable, "-m", "permutomino.cli", *argv])
    proc = subprocess.run(["/bin/sh", "-c", f"exec {command} {redirect}"], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    note = "" if redirect else f"no shape to render: {target} not written\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "components: 2\npart 1: (empty)  size 1\npart 2: (empty)  size 1\n", note)
    assert list(tmp_path.iterdir()) == []


class FailingStdout(io.StringIO):
    """A standard output with no descriptor whose every write fails with errno."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise OSError(self.error, os.strerror(self.error))

    def fileno(self):
        raise AssertionError("fileno() called on a stream that has none")


@pytest.mark.parametrize("error", [errno.ENOSPC, errno.EIO])
@pytest.mark.parametrize("argv", [
    ("classify", "2 1 3 4 7 6 5"),
    ("classify", "1 1"),  # a parse error comes before the first write
    ("build", "2 1 3", "--all", "--format", "json"),
    ("build", "2 1"),
    ("enumerate", "convex", "5", "--list"),
    ("enumerate", "square", "31"),
    ("verify", "--max-size", "3"),
    ("verify", "--max-size", "31"),
    ("decompose", "3 4 1 2", "--render"),
    ("decompose", "1 2 3"),
])
def test_a_failing_stdout_exits_2_unless_the_command_failed_first(capsys, argv, error):
    expected = run(capsys, *argv)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(FailingStdout(error)), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    if expected[0] == 0:  # it writes before it fails
        assert (code, stderr.getvalue()) == (
            2, f"cannot write output: standard output: {os.strerror(error)}\n")
    else:
        assert (code, stderr.getvalue()) == (expected[0], expected[2])


def test_an_error_outside_the_failure_table_propagates(capsys, monkeypatch):
    from permutomino import membership
    from permutomino.errors import NotClosed

    for error in (AssertionError("internal"), NotClosed("internal")):
        def fail(p, error=error):
            raise error

        monkeypatch.setattr(membership, "canonical_permutomino", fail)
        with pytest.raises(type(error)):
            main(["build", "2 1 3"])
    assert capsys.readouterr().err == ""


PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def console_script() -> str:
    """The target of the `permutomino` console script, module:function."""
    section = PYPROJECT.read_text().partition("[project.scripts]")[2].partition("\n[")[0]
    return re.search(r'^permutomino = "([\w.]+:\w+)"$', section, re.M).group(1)


def test_the_console_script_runs_the_process_entry_point():
    assert console_script() == "permutomino.cli:run"


def as_a_process(argv, route):
    """Run the CLI in a new interpreter, through `-m` or as the console script
    does, with its standard output buffered as it is by default."""
    if route == "-m":
        command = [sys.executable, "-m", "permutomino.cli", *argv]
    else:
        module, _, function = console_script().partition(":")
        command = [sys.executable, "-c",
                   f"import sys\nfrom {module} import {function}\nsys.exit({function}())", *argv]
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("route", ["-m", "console script"])
@pytest.mark.parametrize("argv, code", [
    (("enumerate", "convex", "5"), 0),
    (("enumerate", "convex", "7", "--list"), 0),  # 1,837 lines, more than one buffer
    (("classify", "1 2 5"), 2),
    (("enumerate", "convex", "0"), 2),  # argparse exits by SystemExit
    (("build", "2 1"), 3),
    (("enumerate", "column-convex", "9"), 4),
    (("decompose", "1 2 3"), 5),
])
def test_a_process_exits_and_writes_as_main_returns(capsys, route, argv, code):
    proc = as_a_process(argv, route)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
    assert proc.returncode == code


def test_a_process_keeps_what_it_printed_before_an_error(tmp_path, capsys):
    """The parts are printed, then the one JSON document cannot be written:
    exit 2, with the parts still on standard output."""
    argv = ("decompose", "3 4 1 2", "--render", "--format", "json",
            "--out", str(tmp_path / UNWRITABLE))
    proc = as_a_process(argv, "-m")
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
    assert proc.returncode == 2 and proc.stdout.startswith("components: 2\n")
    assert len(proc.stderr.splitlines()) == 1 and "cannot write output" in proc.stderr


def test_no_package_module_registers_an_exit_handler():
    """run() ends the process with os._exit, which runs no exit handler."""
    modules = sorted(path.stem for path in pathlib.Path(counting.__file__).parent.glob("*.py"))
    script = ("import atexit, contextlib, importlib, io\n"
              "before = atexit._ncallbacks()\n"
              f"for name in {modules!r}:\n"
              "    importlib.import_module('permutomino.' + name)\n"
              "from permutomino.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    main(['verify', '--max-size', '4', '--json'])\n"
              "    main(['build', '2 1 3 4 5', '--all', '--format', 'json'])\n"
              "print(atexit._ncallbacks() - before)")
    out = subprocess.run([sys.executable, "-c", script], env=subprocess_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out == "0\n"


@pytest.mark.parametrize("argv, name", [
    (("build", "3 1 6 8 2 4 7 5", "--format", "svg"), "shape.svg"),
    (("build", "2 1 3 4 5 6 7", "--all", "--format", "json"), "fiber.json"),
])
def test_a_process_closes_its_out_file_before_it_exits(tmp_path, capsys, argv, name):
    (tmp_path / "process").mkdir()
    (tmp_path / "main").mkdir()
    proc = as_a_process([*argv, "--out", str(tmp_path / "process" / name)], "-m")
    assert proc.returncode == 0 and proc.stdout == proc.stderr == ""
    assert run(capsys, *argv, "--out", str(tmp_path / "main" / name))[0] == 0
    written = (tmp_path / "process" / name).read_bytes()
    assert written and written == (tmp_path / "main" / name).read_bytes()


def modules_after(code: str) -> set[str]:
    """The names in sys.modules after a fresh interpreter runs code."""
    script = f"{code}\nimport sys\nprint('modules:', *sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], env=subprocess_env(),
                         capture_output=True, text=True, check=True).stdout
    return set(out.rpartition("modules:")[2].split())


# the permutation and shape modules: only the subcommands that run them load them
SHAPE_MODULES = {f"permutomino.{name}"
                 for name in ("boundary", "matrix", "membership", "perms", "bijection", "render")}
NOT_AT_IMPORT = (
    "concurrent.futures", "multiprocessing", "xml.sax", "urllib.request", "http.client",
    "email", "dataclasses", "json", "permutomino.counting", "permutomino.verify",
    "permutomino.formulas", "permutomino.oracles", "permutomino._kernels", *SHAPE_MODULES,
)


def package_modules(names: set[str]) -> set[str]:
    return {name for name in names if name.partition(".")[0] == "permutomino"}


def test_each_job_imports_only_what_it_runs():
    assert package_modules(modules_after("import permutomino")) == {"permutomino"}
    assert modules_after("import permutomino.cli").isdisjoint(NOT_AT_IMPORT)
    loaded = modules_after('from permutomino.cli import main\n'
                           'main(["enumerate", "square", "9", "--by", "components"])')
    assert package_modules(loaded) == {"permutomino", "permutomino.cli", "permutomino.errors",
                                       "permutomino.counting", "permutomino._kernels"}
    assert "dataclasses" not in loaded
    # a permutation listing filters the square generator by the split test alone
    loaded = modules_after('from permutomino.cli import main\n'
                           'main(["enumerate", "ctilde", "6", "--list"])')
    assert package_modules(loaded) == {"permutomino", "permutomino.cli", "permutomino.errors",
                                       "permutomino.counting", "permutomino._kernels",
                                       "permutomino.perms"}
    # the benchmark's verify job: the closed forms are evaluated on integers,
    # so it loads no Fraction stack
    loaded = modules_after('from permutomino.cli import main\n'
                           'main(["verify", "--max-size", "6", "--strict-paper", "--json"])')
    assert {"permutomino.verify", "permutomino.counting", "permutomino.oracles",
            "permutomino.formulas"} <= loaded
    assert loaded.isdisjoint(SHAPE_MODULES - {"permutomino.boundary"})
    assert loaded.isdisjoint({"dataclasses", "fractions", "decimal", "numbers"})
    relative, absolute = imports_of(formulas)
    assert not relative and absolute == {"__future__", "math"}
    # the shape jobs load exactly these package modules (perms imports
    # _kernels only when the square generator runs, and counting at import),
    # build their values without dataclasses and write JSON without json
    shape = {"permutomino", "permutomino.cli", "permutomino.errors", "permutomino.boundary",
             "permutomino.perms", "permutomino.membership"}
    for argv, modules in (
        (["build", "1 2 3 4 5", "--all", "--format", "json"], shape | {"permutomino.render"}),
        (["build", "3 1 6 8 2 4 7 5", "--format", "svg"], shape | {"permutomino.render"}),
        (["classify", "2 1 3 4 7 6 5"], shape),
        (["decompose", "16 15 18 19 17 14 12 13 9 7 11 10 8 3 1 6 5 2 4", "--render"],
         shape | {"permutomino.bijection", "permutomino.render"}),
        (["enumerate", "convex", "7", "--list"],
         shape | {"permutomino.counting", "permutomino._kernels"}),
        (["enumerate", "symmetric", "4", "--list"],
         {"permutomino", "permutomino.cli", "permutomino.errors", "permutomino.boundary",
          "permutomino._kernels", "permutomino.counting", "permutomino.oracles"}),
    ):
        loaded = modules_after(f"from permutomino.cli import main\nmain({argv!r})")
        assert package_modules(loaded) == modules, argv
        assert loaded.isdisjoint({"dataclasses", "json"}), argv


def imports_of(module) -> tuple[set, set]:
    """The modules a module's source imports: relative ones (None for
    `from . import x`), then absolute ones."""
    nodes = list(ast.walk(ast.parse(pathlib.Path(module.__file__).read_text())))
    relative = {node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.level}
    absolute = {node.module for node in nodes if isinstance(node, ast.ImportFrom) and not node.level}
    absolute |= {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    return relative, absolute


def test_the_kernels_import_nothing_from_the_package_but_errors():
    """A count loads no permutation or shape code: _kernels imports only the
    standard library and errors, and perms imports the moves from it."""
    relative, absolute = imports_of(_kernels)
    assert relative == {"errors"}
    assert not package_modules(absolute)


def test_the_oracle_imports_nothing_from_the_package_but_boundary_and_errors():
    """The interval oracle shares no code with the permutation side: its source
    imports only boundary from the package (its size bound is counting's)."""
    relative, absolute = imports_of(oracles)
    assert relative == {"boundary"}
    assert not package_modules(absolute)


def test_only_geo_walk_calls_the_oracle_and_the_oracle_takes_no_bound():
    """counting.geo_walk is the one call of oracles.walk in the package, and
    counting the one module that imports the oracle, so ORACLE_BOUND, which
    geo_walk checks, bounds every walk; no oracle function takes a bound."""
    callers, importers = [], set()
    for path in sorted(pathlib.Path(counting.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    "oracles" in (node.module or "").split(".")
                    or any(alias.name == "oracles" for alias in node.names)):
                importers.add(path.stem)
            if isinstance(node, ast.FunctionDef):
                callers += [(path.stem, node.name) for call in ast.walk(node)
                            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                            and call.func.attr == "walk" and isinstance(call.func.value, ast.Name)
                            and call.func.value.id == "oracles"]
    assert importers == {"counting"}
    assert callers == [("counting", "geo_walk")]
    functions = [node for node in ast.walk(ast.parse(pathlib.Path(oracles.__file__).read_text()))
                 if isinstance(node, ast.FunctionDef)]
    assert {"walk", "extend"} <= {function.name for function in functions}
    for function in functions:
        arguments = function.args
        names = [arg.arg for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs]
        assert "bound" not in names, function.name


def test_the_matrix_route_imports_nothing_from_the_package_but_boundary_and_errors():
    """The corner-matrix route sits on the word validator alone: its source
    imports only boundary and errors from the package."""
    relative, absolute = imports_of(matrix)
    assert relative == {"boundary", "errors"}
    assert not package_modules(absolute)


def test_oracle_jobs_load_no_permutation_side_module():
    for argv in (["enumerate", "column-convex", "6", "--list"],
                 ["enumerate", "convex", "6", "--method", "intervals"]):
        loaded = modules_after(f"from permutomino.cli import main\nmain({argv!r})")
        assert {"permutomino.oracles", "permutomino.boundary"} <= loaded, argv
        assert loaded.isdisjoint(SHAPE_MODULES - {"permutomino.boundary"}), argv


def test_census_job_as_run_from_the_command_line_imports_no_shape_module():
    argv = ("enumerate", "square", "9", "--by", "components", "--workers", "2")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "permutomino.cli", *argv],
                          env=subprocess_env(), capture_output=True, text=True, check=True)
    assert proc.stdout == CENSUS[argv[1:5]]
    # importtime rows: "import time: self [us] | cumulative | imported package"
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    # `-m` runs cli as __main__, so it is not among the imported modules
    assert package_modules(imported) == {"permutomino", "permutomino.errors",
                                         "permutomino.counting", "permutomino._kernels"}
    assert "dataclasses" not in imported


def test_package_names_are_their_home_modules_objects():
    import importlib

    import permutomino

    star: dict = {}
    exec("from permutomino import *", star)
    for name in permutomino.__all__:
        value = getattr(permutomino, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value is star[name], name
        assert name in dir(permutomino)
    with pytest.raises(AttributeError):
        permutomino.no_such_name


def test_every_module_parses_as_the_declared_minimum_python():
    """Every module is valid syntax for the `requires-python` of pyproject.toml (3.10)."""
    root = pathlib.Path(__file__).resolve().parents[1]
    declared = re.search(r'requires-python = ">=3\.(\d+)"', (root / "pyproject.toml").read_text())
    minimum = (3, int(declared[1]))
    sources = sorted((root / "src" / "permutomino").glob("*.py"))
    assert minimum == (3, 10) and len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=minimum)


def test_classify_scans_each_envelope_once(capsys, monkeypatch):
    from permutomino import perms

    calls = []
    scan = perms._envelope_positions
    monkeypatch.setattr(perms, "_envelope_positions", lambda p: calls.append(p) or scan(p))
    code, out, _ = run(capsys, "classify", "2 1 3 4 7 6 5")
    assert code == 0 and "square: yes" in out and "even-vertex realizable: no" in out
    # p for the printout, the verdict and the square line; its reversal for pi2
    assert calls == [(2, 1, 3, 4, 7, 6, 5), (5, 6, 7, 4, 3, 1, 2)]


CENSUS = {
    ("square", "9", "--by", "components"): """42064
components 1: 32156
components 2: 5812
components 3: 2510
components 4: 1024
components 5: 386
components 6: 130
components 7: 37
components 8: 8
components 9: 1
""",
    ("convex", "9", "--by", "fixed-points"): """38632
free-fixed-points 0: 29222 permutations, 29222 permutominoes
free-fixed-points 1: 2089 permutations, 4178 permutominoes
free-fixed-points 2: 610 permutations, 2440 permutominoes
free-fixed-points 3: 173 permutations, 1384 permutominoes
free-fixed-points 4: 46 permutations, 736 permutominoes
free-fixed-points 5: 13 permutations, 416 permutominoes
free-fixed-points 6: 2 permutations, 128 permutominoes
free-fixed-points 7: 1 permutations, 128 permutominoes
""",
    ("decomposable", "9", "--by", "components"): """9908
components 2: 5812
components 3: 2510
components 4: 1024
components 5: 386
components 6: 130
components 7: 37
components 8: 8
components 9: 1
""",
    ("ctilde", "9", "--by", "fixed-points"): """32156
free-fixed-points 0: 29222
free-fixed-points 1: 2089
free-fixed-points 2: 610
free-fixed-points 3: 173
free-fixed-points 4: 46
free-fixed-points 5: 13
free-fixed-points 6: 2
free-fixed-points 7: 1
""",
}


@pytest.mark.parametrize("argv", CENSUS, ids=lambda argv: argv[0])
def test_census_output_is_pinned(capsys, argv):
    code, out, err = run(capsys, "enumerate", *argv, "--workers", "2")
    assert code == 0 and err == ""
    assert out == CENSUS[argv]


# sha256 of the full stdout, recorded while validation still rebuilt every
# shape's cells, so validation, corners and rendering stay byte-identical
SHAPE_DIGESTS = {
    ("build", "2 1 3 4 5 6 7 8 10 9", "--all", "--format", "json"):
        "4e4490135fc50eecc8242044d1dd5d5459d0b9daea03cdbe6ffb7913ea8cd4ce",
    ("build", "2 1 3 4 5 6 7 8 10 9", "--all", "--format", "svg"):
        "219aaafedd041918e97a46a7818d864b3826007cc1414c6abfb605dd0879f37c",
    ("enumerate", "convex", "6", "--list"):
        "2d474f0cef1364fb2074591ffd12fe4c342ec0b90184b4a73b5b3193a20928c8",
    # recorded while fibers threaded their own chain words: every part kind of
    # the bijection, the last one built with all its free fixed points gamma
    ("decompose", "16 15 18 19 17 14 12 13 9 7 11 10 8 3 1 6 5 2 4", "--render", "--format", "json"):
        "34ae33f16c7d60a2d19406b11827f725249431a7bd8c2e7b4919f55c1b6ce53b",
}


@pytest.mark.parametrize("argv", SHAPE_DIGESTS,
                         ids=("build-json", "build-svg", "enumerate-list", "decompose-json"))
def test_shape_output_is_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SHAPE_DIGESTS[argv]


# sha256 of `verify --max-size 8 --strict-paper`, as text and as JSON; size 8
# spans both the count rows and the oracle rows (to 6).  Neither output holds a
# timing, so each digest covers every byte.
VERIFY_DIGESTS = {
    (): "5b09f3ac566d1400095fc93ee6abd823932db565a65ee08b2b78a9674a353ebc",
    ("--json",): "1220e034aa9d98c24d9babf87d50535f91e968d3ff16810ad7fcf71c2c1dd23b",
}


@pytest.mark.parametrize("extra", VERIFY_DIGESTS, ids=("text", "json"))
def test_verify_output_is_pinned(capsys, extra):
    code, out, err = run(capsys, "verify", "--max-size", "8", "--strict-paper", *extra)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[extra]


def test_verify_text_and_json(capsys):
    code, out, _ = run(capsys, "verify", "--max-size", "4")
    assert code == 0
    assert "all identities pass" in out
    code, out, _ = run(capsys, "verify", "--max-size", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    row = next(e for e in payload["entries"] if e["name"] == "ctilde = square - decomposable")
    assert row["status"] == "pass" and row["detail"] == "n=4: 13 = 24 - 11"


def test_verify_strict_paper(capsys):
    code, out, _ = run(capsys, "verify", "--max-size", "4", "--strict-paper")
    assert code == 0  # discrepancies are reported, not failed
    assert "discrepant" in out


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "3 2 1")
    assert code == 0
    assert "components: 3" in out
    assert out.count("(empty)") == 3
    code, out, _ = run(
        capsys, "decompose", "16 15 18 19 17 14 12 13 9 7 11 10 8 3 1 6 5 2 4")
    assert code == 0
    assert "components: 5" in out
    assert "pi2=3 5 4 1 2" in out


def test_decompose_domain_errors(capsys):
    code, _, err = run(capsys, "decompose", "1 2 3")
    assert code == 5 and "bijection domain" in err
    code, _, err = run(capsys, "decompose", "5 2 3 4 1")
    assert code == 5


def test_decompose_render(capsys):
    code, out, _ = run(capsys, "decompose", "3 4 1 2", "--render")
    assert code == 0
    assert "#" in out


@pytest.mark.parametrize("fmt", ["ascii", "svg"])
def test_decompose_render_with_no_nonempty_part(tmp_path, capsys, fmt):
    """Parts of size 1 are not drawn: nothing is printed after the part lines,
    and with --out no file is written and stderr says so."""
    code, out, err = run(capsys, "decompose", "3 2 1", "--render", "--format", fmt)
    assert code == 0 and err == ""
    assert out.endswith("part 3: (empty)  size 1\n")
    target = tmp_path / "parts.out"
    code, out, err = run(capsys, "decompose", "3 2 1", "--render", "--format", fmt,
                         "--out", str(target))
    assert code == 0 and out.endswith("part 3: (empty)  size 1\n")
    assert len(err.splitlines()) == 1 and "not written" in err
    assert list(tmp_path.iterdir()) == []


class _Sink(io.TextIOBase):
    """A standard output that keeps nothing but the number of shapes and lines written."""

    def __init__(self):
        self.shapes = self.lines = 0

    def write(self, text):
        self.shapes += text.count('"v": 1')
        self.lines += text.count("\n")
        return len(text)


def traced_peak(call, *args):
    """call(*args) and the peak of the memory traced while it ran, in MiB."""
    tracemalloc.start()
    try:
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def quiet_main(*argv):
    """main's exit code and the number of lines it printed, all sent to a _Sink."""
    sink = _Sink()
    with contextlib.redirect_stdout(sink):
        code = main(list(argv))
    return code, sink.lines


def test_build_all_streams_one_shape_at_a_time():
    """A fiber of 1,024 shapes (about 3 MB of JSON) is written shape by shape:
    the traced peak stays far below the size of the document."""
    perm = " ".join(map(str, range(1, 13)))  # 10 free fixed points
    with contextlib.redirect_stdout(_Sink()):
        assert main(["build", "1 2 3 4", "--all", "--format", "json"]) == 0  # imports
    sink = _Sink()
    with contextlib.redirect_stdout(sink):
        code, peak = traced_peak(main, ["build", perm, "--all", "--format", "json"])
    assert code == 0 and sink.shapes == 1024
    assert peak < 3, f"peak {peak:.2f} MiB"


def test_svg_is_written_one_line_at_a_time(tmp_path):
    """The fullest shape at render.DRAW_BOUND, pi1 = 1, 101..199, 2..100, 200,
    draws 29,701 cells, a 3.57 MB SVG document.  It is written a line at a
    time, so the traced peak of `write` (4.7 MiB, mostly the traced cell
    set) stays far below the 19.7 MiB of building the document whole."""
    shape = canonical_permutomino((1, *range(101, 200), *range(2, 101), 200))
    assert shape.size == render.DRAW_BOUND
    target = tmp_path / "shape.svg"
    wrote, peak = traced_peak(render.write, [shape], "svg", 24, str(target))
    assert wrote and target.read_text(encoding="utf-8") == render.svg_document(shape)
    assert target.stat().st_size > 3.5e6 and peak < 8, f"peak {peak:.2f} MiB"


def test_oracle_counts_keep_no_shape():
    """The geometric convex count folds over the oracle's walk: its peak stays
    far below the 0.4 MiB or more that the 394 shapes of size 6 hold as a list."""
    def walk_length(n):
        return sum(1 for _ in counting.geo_walk("convex", n))

    walk_length(4)  # imports
    count, peak = traced_peak(walk_length, 6)
    assert count == 394 and peak < 0.1, f"peak {peak:.3f} MiB"


def test_geometric_listing_keeps_only_its_rows():
    """The 1,262 column-convex rows of size 6 take about 0.25 MiB; their
    shapes, with the corners that validation seeds, take about 2 MiB as a
    list."""
    counting.listing("column-convex", 4)  # imports
    rows, peak = traced_peak(counting.listing, "column-convex", 6)
    assert len(rows) == 1262 and peak < 0.5, f"peak {peak:.3f} MiB"


def test_permutation_listing_streams():
    """`enumerate square 9 --list` prints 42,064 rows, about 1 MB of text
    and 5 MiB as tuples, yet peaks within 0.5 MiB of the bare count."""
    quiet_main("enumerate", "square", "9", "--list")  # imports and kernel tables
    (code, lines), listed = traced_peak(quiet_main, "enumerate", "square", "9", "--list")
    assert code == 0 and lines == 1 + 42064
    (code, lines), counted = traced_peak(quiet_main, "enumerate", "square", "9")
    assert code == 0 and lines == 1
    assert listed - counted < 0.5, f"listing peak {listed:.3f} MiB, count peak {counted:.3f} MiB"
