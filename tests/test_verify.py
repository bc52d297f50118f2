import importlib.util
import pathlib
import sys

import pytest

import permutomino
from permutomino import _kernels, boundary, counting, formulas, membership, oracles, verify
from permutomino.cli import main
from permutomino.errors import NotAssociated, NotPermutomino
from permutomino.verify import sequence_class_count, verify_identities
from references import composition_class_count


def square_fault(monkeypatch):
    """Make the square closed form 2 too large at n = 5."""
    real = formulas.square_perms
    monkeypatch.setattr(formulas, "square_perms", lambda n: real(n) + 2 * (n == 5))


def bijection_fault(monkeypatch):
    """Make |T_{5,3}| 1 too large."""
    real = verify.sequence_class_count

    def faulty(n, k, directed_counts, parallelogram_counts):
        return real(n, k, directed_counts, parallelogram_counts) + ((n, k) == (5, 3))

    monkeypatch.setattr(verify, "sequence_class_count", faulty)


# the rows each fault fails, with their details; every other row passes
FAULTS = {
    square_fault: {
        "square closed form": "n=5: 104 != 106 (n=5: 104 = 106)",
        "one-direction surplus (definitional closed combination)":
            "n=5: 10 != 11 (n=5: 10 = 11)",
    },
    bijection_fault: {
        "decomposable classes match permutomino sequences": "n=5: 11 != 12 (n=5,k=3: 11 = 12)",
    },
}


def test_all_identities_pass_to_size_five():
    report = verify_identities(5)
    assert report.ok
    assert all(e.status == "pass" for e in report.entries)
    names = [e.name for e in report.entries]
    assert len(names) == len(set(names))  # each identity exactly once


def test_report_details_show_the_numbers():
    report = verify_identities(4)
    row = next(e for e in report.entries if e.name == "ctilde = square - decomposable")
    assert row.status == "pass"
    assert row.detail == "n=4: 13 = 24 - 11"
    as_dict = report.as_dict()
    assert as_dict["ok"] is True
    assert set(as_dict["entries"][0]) == {"name", "sizes", "status", "detail"}


def test_strict_mode_reports_discrepancies_without_failing():
    report = verify_identities(5, strict_paper=True)
    assert report.ok  # discrepant rows are not failures
    statuses = {e.name: e.status for e in report.entries}
    assert statuses["one-direction surplus closed form as printed"] == "discrepant"
    assert statuses["intersection closed form as printed"] == "discrepant"
    row = next(e for e in report.entries if e.name == "intersection closed form as printed")
    assert "printed 22 vs definitional 2" in row.detail


def test_default_mode_has_no_discrepancy_rows():
    report = verify_identities(4)
    assert not [e for e in report.entries if e.status == "discrepant"]


def test_sequence_class_count_matches_generating_identity():
    # |T_{n,2}| is a pure convolution of the directed counts
    directed = {1: 1, 2: 1, 3: 3, 4: 10, 5: 35}
    parallelogram = {1: 1, 2: 1, 3: 2, 4: 5, 5: 14}
    assert sequence_class_count(4, 2, directed, parallelogram) == sum(
        directed[a] * directed[4 - a] for a in range(1, 4)
    )
    assert sequence_class_count(3, 3, directed, parallelogram) == 1


def test_sequence_class_count_matches_the_composition_sum():
    directed = {s: formulas.directed_convex(s) for s in range(2, 9)}
    parallelogram = {s: formulas.parallelogram(s) for s in range(2, 9)}
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert sequence_class_count(n, k, directed, parallelogram) == \
                composition_class_count(n, k, directed, parallelogram), (n, k)


def test_max_size_validation():
    with pytest.raises(ValueError):
        verify_identities(1)


@pytest.mark.parametrize("fault", FAULTS, ids=("square", "bijection"))
def test_a_fault_fails_exactly_its_rows(capsys, monkeypatch, fault):
    fault(monkeypatch)
    report = verify_identities(6)
    assert not report.ok
    assert {e.name: e.detail for e in report.entries if e.status == "fail"} == FAULTS[fault]
    assert all(e.status == "pass" for e in report.entries if e.name not in FAULTS[fault])
    assert main(["verify", "--max-size", "6"]) == 1
    assert "FAILURES present" in capsys.readouterr().out


# One-token defects of the counting kernel, each a substitution that occurs
# once in _kernels.py.
KERNEL_MUTANTS = {
    "split-gap": ("if b == 0 and gap == 0:", "if b == 0 and gap <= 1:"),
    "reversal-split-gap": ("reversal_split = a == 0 and gap == 0",
                           "reversal_split = a == 0 and gap <= 1"),
    "free-fixed-left-gt-0": ("reversal_split and left > 1", "reversal_split and left > 0"),
    "free-fixed-left-gt-2": ("reversal_split and left > 1", "reversal_split and left > 2"),
    "top-end-unguarded": ("if gap and b == 0 and (a or gap > 1):", "if gap and b == 0:"),
    "both-ways-at-reversal-split": ("0 if reversal_split else both_ways", "both_ways"),
}

# the mutants that change the convex count
CONVEX_FIELD = {"split-gap", "reversal-split-gap", "free-fixed-left-gt-0", "free-fixed-left-gt-2",
                "top-end-unguarded"}

# Each row of verify_identities(8) and the kernel mutants it fails under.
# "ctilde = square - decomposable" can fail under none: count_stats reads all
# three fields off one split polynomial.  The two vertex-class rows and the
# rising-ends row fail together because, with square = ctilde + decomposable
# and assoc_first_lt_last = ctilde - both_ways/2 built in, the three are one
# identity.  The oracle rows read no kernel output.
ROWS_CAUGHT = {
    "convex = sum of 2^k over free-fixed-point classes (closed form)": CONVEX_FIELD,
    "convex: fiber sum vs interval oracle": CONVEX_FIELD,
    "ctilde closed form (exact rational factor)": {"split-gap", "top-end-unguarded"},
    "ctilde = square - decomposable": set(),
    "square closed form": {"top-end-unguarded"},
    "decomposable closed form": {"split-gap", "top-end-unguarded"},
    "square = both vertex classes united":
        {"split-gap", "reversal-split-gap", "both-ways-at-reversal-split"},
    "intersection = square - 2*decomposable":
        {"split-gap", "reversal-split-gap", "both-ways-at-reversal-split"},
    "realizable with rising ends = half the squares":
        {"split-gap", "reversal-split-gap", "both-ways-at-reversal-split"},
    "one-direction surplus (definitional closed combination)": {"split-gap", "top-end-unguarded"},
    "square = convex + central binomial": CONVEX_FIELD,
    "convex = realizable + free-fixed-point surplus": CONVEX_FIELD,
    "directed convex oracle vs closed form": set(),
    "parallelogram oracle vs catalan": set(),
    "symmetric oracle vs closed form": set(),
    "decomposable classes match permutomino sequences": {"split-gap", "top-end-unguarded"},
}


@pytest.mark.parametrize("mutant", KERNEL_MUTANTS)
def test_verify_fails_every_kernel_mutant(tmp_path, monkeypatch, mutant):
    """A copy of _kernels.py with one defect, loaded in place of the module,
    fails exactly the rows that ROWS_CAUGHT names for it."""
    text, replacement = KERNEL_MUTANTS[mutant]
    monkeypatch.setattr(counting, "_kernels", load_copy(tmp_path, _kernels, text, replacement))
    report = verify_identities(8)
    assert [e.name for e in report.entries] == list(ROWS_CAUGHT)
    failed = {e.name for e in report.entries if e.status == "fail"}
    assert failed and not report.ok
    assert failed == {row for row, caught in ROWS_CAUGHT.items() if mutant in caught}


GEOMETRIC_ROWS = {"convex: fiber sum vs interval oracle", "directed convex oracle vs closed form",
                  "parallelogram oracle vs catalan", "symmetric oracle vs closed form",
                  "decomposable classes match permutomino sequences"}

# One-token defects of the interval oracle, each a substitution that occurs
# once in oracles.py, and the rows of verify_identities(6) each fails, or the
# error that the validator raises on the first stack it rejects.
ORACLE_MUTANTS = {
    "no-convex-top-rule": (
        "used >> top & 1 or convex and tops_fell and top > prev_top", "used >> top & 1",
        {"convex: fiber sum vs interval oracle"}),
    "no-convex-bottom-rule": (
        "used >> bottom & 1 or convex and bottoms_rose and bottom < prev_bottom",
        "used >> bottom & 1", {"convex: fiber sum vs interval oracle"}),
    "first-bottom-from-2": (
        "for bottom in range(1, n):", "for bottom in range(2, n):", GEOMETRIC_ROWS),
    "top-moves-only-up": (
        "for top in range(prev_bottom + 1, n + 1):", "for top in range(prev_top + 1, n + 1):",
        GEOMETRIC_ROWS - {"parallelogram oracle vs catalan"}),
    "top-side-reused": ("used >> top & 1 or", "False or", NotPermutomino),
}


@pytest.mark.parametrize("mutant", ORACLE_MUTANTS)
def test_verify_fails_every_oracle_mutant(tmp_path, monkeypatch, mutant):
    """A copy of oracles.py with one defect, loaded in place of the module,
    fails exactly the rows that ORACLE_MUTANTS names for it, or raises there."""
    text, replacement, caught = ORACLE_MUTANTS[mutant]
    # counting imports the oracle from the package when it walks
    monkeypatch.setattr(permutomino, "oracles", load_copy(tmp_path, oracles, text, replacement))
    if isinstance(caught, type):
        with pytest.raises(caught):
            verify_identities(6)
        return
    report = verify_identities(6)
    assert {e.name for e in report.entries if e.status == "fail"} == caught


def load_copy(tmp_path, module, text=None, replacement=None):
    """A copy of a package module, with text (which must occur once) replaced,
    loaded under a name inside the package so its relative imports resolve
    to the modules in sys.modules."""
    source = pathlib.Path(module.__file__).read_text()
    if text is not None:
        assert source.count(text) == 1
        source = source.replace(text, replacement)
    name = module.__name__.rpartition(".")[2]
    path = tmp_path / f"{name}.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location(f"permutomino._{name}_mutant", path)
    copy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(copy)
    return copy


# One-token defects of counting, each a substitution that occurs once in
# counting.py, and the rows of verify_identities(6) each fails.  verify reads
# counting only through scan_stats and oracle_counts, so the five that fail no
# row change only `enumerate` routes, which a size-5 run of ROUTES shows:
#   column-convex-walks-convex: the column-convex count and listing;
#   ctilde-lists-decomposable: the ctilde listing and the convex fibers;
#   flag-negated: the directed, parallelogram and symmetric counts and listings;
#   fibers-of-squares: the convex listing (a decomposable square has no fiber);
#   record-reads-ctilde: the square, decomposable and convex record counts.
COUNTING_MUTANTS = {
    "flag-counted-always": ("counts[name][n] += p.flags[flag]", "counts[name][n] += 1",
                            GEOMETRIC_ROWS - {"convex: fiber sum vs interval oracle"}),
    "first-size-skipped": ("for n in sizes:", "for n in sizes[1:]:",
                           GEOMETRIC_ROWS - {"decomposable classes match permutomino sequences"}),
    "column-convex-walks-convex": ('convex=class_name != "column-convex"', "convex=True", set()),
    "ctilde-lists-decomposable": ("return filter(is_indecomposable, squares)",
                                  "return filterfalse(is_indecomposable, squares)", set()),
    "flag-negated": ("if p.flags[flag])", "if not p.flags[flag])", set()),
    "fibers-of-squares": ('perm_listing("ctilde", n)', 'perm_listing("square", n)', set()),
    "record-reads-ctilde": ("else record)[class_name]", 'else record)["ctilde"]', set()),
}


def route_outputs(module, n):
    """What each route of module.ROUTES gives at size n: a count, the listed
    rows, or NotAssociated when the listing raises it."""
    out = {}
    for name, (counts, lister) in module.ROUTES.items():
        for method, count in counts.items():
            out[name, method] = count(name, n)
        try:
            out[name, "list"] = list(lister(name, n))
        except NotAssociated:
            out[name, "list"] = NotAssociated
    return out


@pytest.mark.parametrize("mutant", COUNTING_MUTANTS)
def test_verify_fails_every_counting_mutant(tmp_path, monkeypatch, mutant):
    """A copy of counting.py with one defect, loaded in place of the module,
    fails exactly the rows that COUNTING_MUTANTS names for it; one that fails
    none changes some route, so no mutant is equivalent."""
    text, replacement, caught = COUNTING_MUTANTS[mutant]
    copy = load_copy(tmp_path, counting, text, replacement)
    monkeypatch.setattr(verify, "counting", copy)
    report = verify_identities(6)
    assert {e.name for e in report.entries if e.status == "fail"} == caught
    if not caught:
        assert route_outputs(copy, 5) != route_outputs(counting, 5)


# One-token defects of membership, each a substitution that occurs once in
# membership.py, and what list(convex_via_fibers(n)) does for n <= 6: raise
# AssertionError, matching the text, first at the size given, or (None)
# equal the oracle's listing.  verify builds no fiber, so no row of
# verify_identities(6) fails under any of them.
#   split-needs-two: the ctilde listing never passes the verdict a
#   decomposable permutation, so the listing cannot see the split test;
#   free-fixed-at-equal-high: equivalent, since the values of a permutation
#   are distinct and v == high never holds.
MEMBERSHIP_MUTANTS = {
    "free-fixed-from-1": ("1 < v < n", "1 <= v < n", (2, "does not type")),
    "alphas-from-first": ("upper[1:top]", "upper[:top]", (2, "does not type")),
    "gammas-from-pivot": ("low[pivot + 1:-1]", "low[pivot:-1]", (2, "does not type")),
    "least-free-bit-first": ("m >> (top - i) & 1", "m >> i & 1", (4, "does not follow")),
    "split-needs-two": ("    if splits:", "    if len(splits) > 1:", None),
    "free-fixed-at-equal-high": ("if v > high:", "if v >= high:", None),
}


@pytest.mark.parametrize("mutant", MEMBERSHIP_MUTANTS)
def test_verify_builds_no_fiber(tmp_path, monkeypatch, convex_by_size, mutant):
    """A copy of membership.py with one defect, loaded in place of the module,
    fails no row of verify; the fiber listing raises as MEMBERSHIP_MUTANTS
    says, or equals the oracle's."""
    text, replacement, raises = MEMBERSHIP_MUTANTS[mutant]
    # counting imports fiber from the module in sys.modules when it lists
    monkeypatch.setitem(sys.modules, "permutomino.membership",
                        load_copy(tmp_path, membership, text, replacement))
    assert all(e.status == "pass" for e in verify_identities(6).entries)
    size, match = raises or (7, None)  # no size up to 6 raises
    for n in range(1, size):
        assert list(counting.convex_via_fibers(n)) == convex_by_size(n)
    if raises:
        with pytest.raises(AssertionError, match=match):
            list(counting.convex_via_fibers(size))


# One-token defects of boundary, each a substitution that occurs once in
# boundary.py, and the rows of verify_identities(6) each fails.  verify
# validates and classifies only the shapes the oracle generates:
#   row-convex-always: the convex walk yields only row-convex shapes;
#   missing-start-accepted: each stack has one side per ordinate by
#   construction, so no coordinate is ever missing.
BOUNDARY_MUTANTS = {
    "directed-anywhere": ("convex and vertices[0] == (1, 1)", "convex",
                          {"directed convex oracle vs closed form", "parallelogram oracle vs catalan",
                           "decomposable classes match permutomino sequences"}),
    "parallelogram-without-top-corner": (
        "directed and (n, n) in vertices", "directed",
        {"parallelogram oracle vs catalan", "decomposable classes match permutomino sequences"}),
    "symmetric-unrotated": ("in word + word", "== word", {"symmetric oracle vs closed form"}),
    "row-convex-always": ('row_convex = "N" not in word.translate(_DROP_HORIZONTAL).lstrip("N")',
                          "row_convex = True", set()),
    "missing-start-accepted": ("starts.count(c) != 1", "starts.count(c) > 1", set()),
}


@pytest.mark.parametrize("mutant", BOUNDARY_MUTANTS)
def test_verify_sees_boundary_only_through_the_oracle(tmp_path, monkeypatch, mutant):
    """A copy of boundary.py with one defect, loaded in place of the module
    under a fresh copy of the oracle, fails exactly the rows that
    BOUNDARY_MUTANTS names for it."""
    text, replacement, caught = BOUNDARY_MUTANTS[mutant]
    monkeypatch.setitem(sys.modules, "permutomino.boundary",
                        load_copy(tmp_path, boundary, text, replacement))
    # the oracle's copy imports the validator from the boundary copy
    monkeypatch.setattr(permutomino, "oracles", load_copy(tmp_path, oracles))
    report = verify_identities(6)
    assert {e.name for e in report.entries if e.status == "fail"} == caught
