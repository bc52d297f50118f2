import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import pytest

from permutomino import counting, oracles
from permutomino.cli import main, parse_permutation
from permutomino.errors import ParseError
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


def test_convex_by_fixed_points_scans_once(capsys, monkeypatch):
    sizes = scan_spy(monkeypatch)
    code, out, _ = run(capsys, "enumerate", "convex", "7", "--by", "fixed-points",
                       "--workers", "1")
    assert code == 0 and sizes == [7]
    lines = out.splitlines()
    assert lines[0] == "1836"
    assert lines[1] == "free-fixed-points 0: 1264 permutations, 1264 permutominoes"


def test_verify_scans_each_size_once(capsys, monkeypatch):
    sizes = scan_spy(monkeypatch)
    code, _, _ = run(capsys, "verify", "--max-size", "6", "--workers", "1")
    assert code == 0 and sizes == [1, 2, 3, 4, 5, 6]


def test_verify_checks_the_count_bound_before_counting(capsys, monkeypatch):
    sizes = scan_spy(monkeypatch)
    code, out, err = run(capsys, "verify", "--max-size", "1000")
    assert code == 4 and out == "" and sizes == []
    assert len(err.splitlines()) == 1 and "1000" in err


def oracle_spy(monkeypatch):
    """Record the size of every oracles.enumerate_convex call."""
    sizes = []
    real = oracles.enumerate_convex

    def spy(n, bound=oracles.DEFAULT_BOUND):
        sizes.append(n)
        return real(n, bound)

    monkeypatch.setattr(oracles, "enumerate_convex", spy)
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


def test_enumerate_size_too_large(capsys):
    code, _, err = run(capsys, "enumerate", "column-convex", "9")
    assert code == 4 and "size too large" in err
    code, _, err = run(capsys, "enumerate", "ctilde", str(counting.COUNT_BOUND + 1))
    assert code == 4
    code, out, _ = run(capsys, "enumerate", "convex", "11")  # above the listing bound
    assert code == 0 and out == "780156\n"


def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys):
    code, out, err = run(capsys, "build", "2 1 3", "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "cannot write output" in err


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
    """The parts are printed, then the one JSON document cannot be written to
    a directory: exit 2, with the parts still on standard output."""
    argv = ("decompose", "3 4 1 2", "--render", "--format", "json", "--out", str(tmp_path))
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
                 for name in ("boundary", "membership", "perms", "bijection", "render")}
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
    loaded = modules_after('from permutomino.cli import main\nmain(["verify", "--max-size", "4"])')
    assert {"permutomino.verify", "permutomino.counting", "permutomino.oracles"} <= loaded
    assert loaded.isdisjoint(SHAPE_MODULES - {"permutomino.boundary"})
    assert "dataclasses" not in loaded
    # the shape jobs build their values without dataclasses and write JSON without json
    for argv in (
        ["build", "1 2 3 4 5", "--all", "--format", "json"],
        ["build", "3 1 6 8 2 4 7 5", "--format", "svg"],
        ["classify", "2 1 3 4 7 6 5"],
        ["decompose", "16 15 18 19 17 14 12 13 9 7 11 10 8 3 1 6 5 2 4", "--render"],
        ["enumerate", "convex", "7", "--list"],
        ["enumerate", "symmetric", "4", "--list"],
    ):
        loaded = modules_after(f"from permutomino.cli import main\nmain({argv!r})")
        assert "permutomino.boundary" in loaded, argv
        assert loaded.isdisjoint({"dataclasses", "json"}), argv


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


# sha256 of `verify --max-size 8 --strict-paper`, recorded before the identities
# became a row table; size 8 spans both the count rows and the oracle rows (to 6).
# The --json digest drops the per-row "elapsed" lines, which vary from run to run.
VERIFY_DIGESTS = {
    (): "5b09f3ac566d1400095fc93ee6abd823932db565a65ee08b2b78a9674a353ebc",
    ("--json",): "729d54fe162b07c49fe0bc51cf6ac1539a880b6960a05052fd8905d05a7da483",
}


@pytest.mark.parametrize("extra", VERIFY_DIGESTS, ids=("text", "json"))
def test_verify_output_is_pinned(capsys, extra):
    code, out, err = run(capsys, "verify", "--max-size", "8", "--strict-paper", *extra)
    assert code == 0 and err == ""
    kept = "".join(line for line in out.splitlines(keepends=True) if '"elapsed":' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == VERIFY_DIGESTS[extra]


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
    """A standard output that keeps nothing but the number of shapes written."""

    def __init__(self):
        self.shapes = 0

    def write(self, text):
        self.shapes += text.count('"v": 1')
        return len(text)


def test_build_all_streams_one_shape_at_a_time():
    """A fiber of 1,024 shapes (about 3 MB of JSON) is written shape by shape:
    the traced peak stays far below the size of the document."""
    perm = " ".join(map(str, range(1, 13)))  # 10 free fixed points
    with contextlib.redirect_stdout(_Sink()):
        assert main(["build", "1 2 3 4", "--all", "--format", "json"]) == 0  # imports
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["build", perm, "--all", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.shapes == 1024
    assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"
