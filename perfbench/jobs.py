"""Workloads of the benchmark: seeded CLI job lists and their output checks.

A job is one `python -m permutomino.cli ...` invocation.  Every check here is
computed by the benchmark itself (known counts, its own record-based square
test, its own free-fixed-point and component counts) or compared against
reference digests recorded once from the program, so a wrong output is
counted as a failure instead of being timed.
"""
from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass

WORKLOADS = ("census", "verify", "fibers")

# The first line of `enumerate <class> <n>` must equal these.  All but the
# column-convex count are values of the closed forms in permutomino.formulas;
# 1262 is the interval oracle's count, recorded here as a fixed value.
KNOWN_COUNTS = {
    ("square", 9): 42064,
    ("convex", 9): 38632,
    ("decomposable", 9): 9908,
    ("ctilde", 9): 32156,
    ("convex", 7): 1836,
    ("convex", 6): 394,
    ("column-convex", 6): 1262,
    ("symmetric", 6): 22,
    ("square", 5): 104,
}


@dataclass(frozen=True)
class Job:
    """Arguments after `python -m permutomino.cli`."""

    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def workers(self) -> int:
        """Scan workers the job asks for (1 when the subcommand runs no scan)."""
        if "--workers" in self.argv:
            return int(self.argv[self.argv.index("--workers") + 1])
        return 1

    def with_workers(self, workers: int) -> "Job":
        if "--workers" not in self.argv:
            return self
        argv = list(self.argv)
        argv[argv.index("--workers") + 1] = str(workers)
        return Job(tuple(argv))


# ---------------------------------------------------------------- permutations
# These predicates are the benchmark's own and deliberately share no code with
# permutomino.perms / permutomino.membership.

def records(p: tuple[int, ...]) -> list[set[str]]:
    """For each entry, which of lr-max, lr-min, rl-max, rl-min it is."""
    n = len(p)
    out = [set() for _ in range(n)]
    hi, lo = 0, n + 1
    for i, v in enumerate(p):
        if v > hi:
            out[i].add("lr-max")
            hi = v
        if v < lo:
            out[i].add("lr-min")
            lo = v
    hi, lo = 0, n + 1
    for i in range(n - 1, -1, -1):
        v = p[i]
        if v > hi:
            out[i].add("rl-max")
            hi = v
        if v < lo:
            out[i].add("rl-min")
            lo = v
    return out


def is_square_by_records(p: tuple[int, ...]) -> bool:
    """Square iff every entry is a left-to-right or right-to-left max or min."""
    return all(records(p))


def skew_components(p: tuple[int, ...]) -> int:
    """Number of components of p as a direct difference (skew sum)."""
    n = len(p)
    low = n + 1
    splits = 0
    for r in range(1, n):
        low = min(low, p[r - 1])
        if low == n - r + 1:
            splits += 1
    return splits + 1


def free_fixed_count(p: tuple[int, ...]) -> int:
    """Fixed points f with 1 < f < n that exceed every earlier entry."""
    n = len(p)
    count = 0
    best = 0
    for i, v in enumerate(p):
        if v == i + 1 and 1 < v < n and v > best:
            count += 1
        best = max(best, v)
    return count


def is_realizable(p: tuple[int, ...]) -> bool:
    """pi1 of some convex permutomino: square and skew-indecomposable."""
    return is_square_by_records(p) and skew_components(p) == 1


def random_realizable(rng: random.Random, n: int, free: int) -> tuple[int, ...]:
    """A realizable permutation of size n with exactly `free` free fixed points.

    Local moves (adjacent swaps and 3-rotations) on the identity, kept only
    when the result passes the benchmark's own tests.
    """
    for _ in range(100_000):
        p = list(range(1, n + 1))
        for _ in range(rng.randint(1, n - 2 - free + 1)):
            i = rng.randrange(n - 1)
            width = 2 if i == n - 2 else rng.choice((2, 3))
            shift = rng.randrange(1, width)
            window = p[i:i + width]
            p[i:i + width] = window[shift:] + window[:shift]
        q = tuple(p)
        if is_realizable(q) and free_fixed_count(q) == free:
            return q
    raise RuntimeError(f"no realizable permutation of size {n} with {free} free fixed points")


# Which records a component must keep when it is skew-summed with others:
# entries left of it are larger, entries right of it smaller.
_ROLE_RECORDS = {
    "first": {"lr-max", "lr-min", "rl-max"},
    "middle": {"lr-min", "rl-max"},
    "last": {"lr-min", "rl-max", "rl-min"},
}


def random_decomposable(rng: random.Random, sizes: list[int]) -> tuple[int, ...]:
    """A square permutation whose skew components have the given sizes."""
    parts = []
    for i, size in enumerate(sizes):
        role = "first" if i == 0 else "last" if i == len(sizes) - 1 else "middle"
        while True:
            comp = tuple(rng.sample(range(1, size + 1), size))
            if skew_components(comp) == 1 and all(
                flags & _ROLE_RECORDS[role] for flags in records(comp)
            ):
                break
        parts.append(comp)
    out: tuple[int, ...] = ()
    for comp in parts:
        out = tuple(v + len(comp) for v in out) + comp
    if not is_square_by_records(out) or skew_components(out) != len(sizes):
        raise AssertionError(f"generated {out} is not a {len(sizes)}-component square")
    return out


def random_composition(rng: random.Random, total: int, parts: int, largest: int) -> list[int]:
    """`parts` sizes in 1..largest adding up to `total`."""
    while True:
        cuts = sorted(rng.sample(range(1, total), parts - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        if max(sizes) <= largest:
            return sizes


# ---------------------------------------------------------------- job lists

def _perm_arg(p: tuple[int, ...]) -> str:
    return " ".join(map(str, p))


def census_jobs() -> list[Job]:
    return [
        Job(("enumerate", "square", "9", "--by", "components", "--workers", "2")),
        Job(("enumerate", "convex", "9", "--by", "fixed-points", "--workers", "2")),
        Job(("enumerate", "decomposable", "9", "--by", "components", "--workers", "2")),
        Job(("enumerate", "ctilde", "9", "--by", "fixed-points", "--workers", "2")),
    ]


def verify_jobs() -> list[Job]:
    return [
        Job(("verify", "--max-size", "6", "--strict-paper", "--json", "--workers", "2")),
        Job(("enumerate", "column-convex", "6", "--list")),
        Job(("enumerate", "symmetric", "6", "--list")),
        Job(("enumerate", "convex", "6", "--method", "intervals")),
    ]


# (size, free fixed points) per `build` job: the fiber sizes, and so the work,
# are the same for every seed; the seed picks which permutations.
BUILD_SLOTS = ((13, 9, "json"), (12, 8, "json"), (14, 10, "json"), (10, 6, "svg"))
# (size, components) per `decompose` job.
DECOMPOSE_SLOTS = ((24, 4), (28, 5))
CLASSIFY_SLOT = (11, 7)


def fibers_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed * 1_000_003 + 17)
    jobs = [Job(("enumerate", "convex", "7", "--list", "--workers", "1"))]
    for n, free, fmt in BUILD_SLOTS:
        p = random_realizable(rng, n, free)
        jobs.append(Job(("build", _perm_arg(p), "--all", "--format", fmt)))
    for n, parts in DECOMPOSE_SLOTS:
        q = random_decomposable(rng, random_composition(rng, n, parts, 8))
        jobs.append(Job(("decompose", _perm_arg(q), "--render")))
    jobs.append(Job(("classify", _perm_arg(random_realizable(rng, *CLASSIFY_SLOT)))))
    return jobs


def workload_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of a workload, in the seed's order."""
    if workload == "census":
        jobs = census_jobs()
    elif workload == "verify":
        jobs = verify_jobs()
    elif workload == "fibers":
        jobs = fibers_jobs(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------- checks

def digest(job: Job, stdout: str) -> str:
    """sha256 of the output, with the per-row timings of `verify --json` dropped."""
    if job.argv[0] == "verify" and "--json" in job.argv:
        report = json.loads(stdout)
        for entry in report.get("entries", []):
            entry.pop("elapsed", None)
        stdout = json.dumps(report, sort_keys=True)
    return hashlib.sha256(stdout.encode()).hexdigest()


def check_output(job: Job, stdout: str, reference: dict[str, str]) -> str | None:
    """None when the output is right, else a one-line reason."""
    try:
        problem = _check_content(job, stdout)
    except (ValueError, KeyError, IndexError) as exc:
        problem = f"unreadable output: {exc!r}"
    if problem is None and job.key in reference and digest(job, stdout) != reference[job.key]:
        problem = "output digest differs from the reference"
    return problem


def _parse_perm(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split())


def _check_content(job: Job, stdout: str) -> str | None:
    cmd = job.argv[0]
    lines = stdout.splitlines()
    if cmd == "enumerate":
        known = KNOWN_COUNTS.get((job.argv[1], int(job.argv[2])))
        if known is not None and int(lines[0]) != known:
            return f"count {lines[0]} != known {known}"
        if "--list" in job.argv and len(lines) != 1 + int(lines[0]):
            return f"listing has {len(lines) - 1} rows for count {lines[0]}"
        return None
    if cmd == "verify":
        report = json.loads(stdout)
        bad = [e["name"] for e in report["entries"] if e["status"] == "fail"]
        if not report["ok"] or bad:
            return f"identities failed: {bad}"
        return None
    p = _parse_perm(job.argv[1])
    if cmd == "build":
        want = 2 ** free_fixed_count(p)
        if "json" in job.argv:
            shapes = json.loads(stdout)
            shapes = shapes if isinstance(shapes, list) else [shapes]
            if any(tuple(s["pi1"]) != p for s in shapes):
                return "a fiber shape has the wrong pi1"
            got = len({s["boundary"] for s in shapes})
        else:
            got = stdout.count("<svg")
        return None if got == want else f"fiber has {got} shapes, expected {want}"
    if cmd == "decompose":
        want = skew_components(p)
        parts = sum(1 for line in lines if re.match(r"part \d+:", line))
        if lines[0] != f"components: {want}" or parts != want:
            return f"expected {want} components, got {lines[0]!r} and {parts} parts"
        return None
    if cmd == "classify":
        want = f"fiber size: {2 ** free_fixed_count(p) if is_realizable(p) else 0}"
        square = f"square: {'yes' if is_square_by_records(p) else 'no'}"
        missing = [line for line in (want, square) if line not in lines]
        return f"missing {missing}" if missing else None
    return f"no check for subcommand {cmd!r}"
