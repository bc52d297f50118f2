"""Tests of the benchmark's own code: predicates, inputs, output gate, metric names.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import jobs  # noqa: E402
import run  # noqa: E402
from jobs import Job  # noqa: E402
from permutomino import membership, perms  # noqa: E402

TINY_JOBS = [
    Job(("enumerate", "square", "5", "--by", "components", "--workers", "2")),
    Job(("verify", "--max-size", "4", "--json", "--workers", "2")),
    Job(("build", "1 2 3 4", "--all", "--format", "json")),
    Job(("decompose", "3 4 1 2", "--render")),
    Job(("classify", "1 3 2 4")),
]
TINY_PROBES = {"n9": (4, 1), "n6": (3, 1)}


def _perm(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split())


def test_record_square_test_agrees_with_library_over_s7():
    for p in permutations(range(1, 8)):
        assert jobs.is_square_by_records(p) == perms.is_square(p), p


def test_fibers_inputs_are_seeded_and_in_the_domain():
    assert jobs.workload_jobs("fibers", 3) == jobs.workload_jobs("fibers", 3)
    assert jobs.fibers_jobs(3) != jobs.fibers_jobs(4)
    for seed in range(20):
        for job in jobs.fibers_jobs(seed):
            if job.argv[0] in ("build", "classify"):
                p = _perm(job.argv[1])
                assert membership.membership_verdict(p).member
                assert len(membership.free_fixed_points(p)) == jobs.free_fixed_count(p)
            elif job.argv[0] == "decompose":
                q = _perm(job.argv[1])
                assert perms.is_square(q)
                assert len(perms.decompose(q)) == jobs.skew_components(q)


def test_seed_only_reorders_fixed_workloads():
    for workload in ("census", "verify"):
        keys = {seed: sorted(j.key for j in jobs.workload_jobs(workload, seed)) for seed in range(4)}
        assert len({tuple(k) for k in keys.values()}) == 1


def test_gate_rejects_wrong_counts_and_fibers():
    assert jobs.check_output(Job(("enumerate", "square", "9")), "42063\n", {}) is not None
    assert jobs.check_output(Job(("enumerate", "square", "9")), "42064\n", {}) is None
    build = Job(("build", "1 2 3 4", "--all", "--format", "svg"))
    assert jobs.check_output(build, "<svg></svg>" * 3, {}) is not None
    assert jobs.check_output(build, "<svg></svg>" * 4, {}) is None


def _metric_units(section: str) -> dict[str, str]:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def test_smoke_run_emits_every_metric_with_its_unit(monkeypatch):
    for key, value in run.job_env().items():
        monkeypatch.setenv(key, value)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        record = run.benchmark("smoke", 0, 0.0, trace, job_list=TINY_JOBS, probes=TINY_PROBES)
        summary = record["summary"]
        assert summary["correct"], record["jobs"]
        assert summary["attempted"] >= len(TINY_JOBS) and summary["failed"] == 0
        got = {name: m["unit"] for name, m in summary["metrics"].items()}
        assert got == _metric_units(section)
        assert all(isinstance(m["value"], (int, float)) for m in summary["metrics"].values())


def test_wrong_reference_digest_counts_as_failure(monkeypatch):
    job = TINY_JOBS[0]
    monkeypatch.setattr(run, "load_reference", lambda: {job.key: "0" * 64})
    record = run.benchmark("smoke", 0, 0.0, 0, job_list=[job])
    assert not record["summary"]["correct"]
    assert record["summary"]["failed"] == record["summary"]["attempted"] >= 1
    assert {j["problem"] for j in record["jobs"]} == {"output digest differs from the reference"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "census", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
