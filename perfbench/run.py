#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the permutomino CLI.

    python3 perfbench/run.py --workload census|verify|fibers \
        [--seed 0] [--seconds 30] [--trace 0|1]

Run it from the root of a source checkout (it needs src/permutomino).  Jobs
are real CLI invocations, `python -m permutomino.cli ...` with PYTHONPATH=src
and the pure-Python kernels, run one at a time; no job uses more than two scan
workers.  The seed fixes the job order and the `fibers` inputs.

--trace 0 repeats the workload's job list as subprocesses for --seconds
seconds and reports the medians of the end-to-end metrics.  --trace 1 runs the
same jobs in process with one scan worker, once untraced and once with every
layer wrapped in spans (see spans.py), and reports the per-layer metrics.
Every job's output is checked (see jobs.py); a wrong output counts as a
failure and makes the exit code 1.  The last line of standard output is one
JSON object; a fuller record, with the environment, goes to
perfbench/out/BENCH_<workload>_seed<seed>_trace<t>.json.

    python3 perfbench/run.py --record-reference

rewrites perfbench/reference.json, the output digests of the default seed's
jobs, from the current source.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from jobs import Job, WORKLOADS, check_output, digest, workload_jobs
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
JOB_TIMEOUT_S = 150
SETUP_SPAWNS = 5  # fresh-interpreter imports per pass over the job list
# counting.scan_stats sizes timed with one and two workers: (size, repeats)
SPEEDUP_PROBES = {"n9": (9, 1), "n6": (6, 5)}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "kernels.scan_stats.calls": "count",
    "kernels.scan_stats.self_s": "s",
    "kernels.squares_kept": "count",
    "kernels.squares_per_s": "1/s",
    "counting.scan_stats.calls": "count",
    "counting.convex_via_fibers.s": "s",
    "counting.speedup_w2.n9": "ratio",
    "counting.speedup_w2.n6": "ratio",
    "oracles.enumerate_convex.calls": "count",
    "oracles.enumerate_convex.self_s": "s",
    "oracles.enumerate_column_convex.self_s": "s",
    "oracles.enumerate_class.calls": "count",
    "oracles.shapes_kept": "count",
    "oracles.accept_ratio": "ratio",
    "boundary.from_boundary_word.calls": "count",
    "boundary.from_boundary_word.self_s": "s",
    "boundary.word_from_cells.calls": "count",
    "boundary.word_from_cells.self_s": "s",
    "boundary.reentrant_matrix.self_s": "s",
    "boundary.permutomino_from_matrix.self_s": "s",
    "membership.membership_verdict.calls": "count",
    "membership.membership_verdict.self_s": "s",
    "membership.fiber.calls": "count",
    "membership.fiber.self_s": "s",
    "membership.fiber.shapes": "count",
    "membership.canonical_permutomino.self_s": "s",
    "perms.envelopes.calls": "count",
    "perms.envelopes.self_s": "s",
    "bijection.permutation_to_sequence.self_s": "s",
    "render.self_s": "s",
    "render.out_bytes": "bytes",
    "verify.self_s": "s",
    "formulas.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
}


def job_env(kernels: str = "python") -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PERMUTOMINO_WORKERS", None)  # every job pins --workers itself
    env["PERMUTOMINO_KERNELS"] = kernels
    env["PYTHONPATH"] = str(SRC)
    return env


def import_program() -> None:
    """Make `import permutomino` in this process load src/ with the jobs' settings."""
    os.environ.update(job_env())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------- subprocess jobs

@dataclass
class JobRun:
    job: Job
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    returncode: int
    stdout: str
    problem: str | None = None


class Spawner:
    """Runs commands through spawner.py, one at a time."""

    def __init__(self) -> None:
        OUT.mkdir(exist_ok=True)
        # one file per benchmark process, so that concurrent runs do not mix outputs
        self._stdout = OUT / f"job_stdout_{os.getpid()}.txt"
        self._proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=JOB_TIMEOUT_S)
        self._stdout.unlink(missing_ok=True)

    def run(self, argv: list[str], env: dict[str, str]) -> tuple[dict, bytes]:
        """Reply of spawner.py (wall_s, cpu_s, maxrss_kb, code) and the standard output."""
        request = {"argv": argv, "env": env, "cwd": str(ROOT), "stdout": str(self._stdout),
                   "stderr": str(OUT / "stderr.txt"), "timeout": JOB_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py exited")
        return json.loads(reply), self._stdout.read_bytes()

    def job(self, job: Job, reference: dict[str, str], env: dict[str, str]) -> JobRun:
        reply, out = self.run([sys.executable, "-m", "permutomino.cli", *job.argv], env)
        stdout = out.decode("utf-8", errors="replace")
        code = reply["code"]
        run = JobRun(job, reply["wall_s"], reply["cpu_s"], reply["maxrss_kb"], code, stdout)
        run.problem = f"exit code {code}" if code else check_output(job, stdout, reference)
        return run

    def setup_time(self, env: dict[str, str]) -> float:
        reply, _ = self.run([sys.executable, "-c", "import permutomino.cli"], env)
        if reply["code"]:
            raise RuntimeError(f"importing permutomino.cli failed with exit code {reply['code']}")
        return reply["wall_s"]


def measure_end_to_end(job_list: list[Job], seconds: float, reference: dict[str, str]):
    """Repeat the job list for about `seconds`; medians over the passes."""
    env = job_env()
    walls, cpus, rss, setups, runs = [], [], [], [], []
    with Spawner() as spawner:
        # untimed warm-up: the first job after an idle spell runs measurably slower
        runs.append(spawner.job(job_list[0], reference, env))
        start = time.perf_counter()
        while True:
            setups += [spawner.setup_time(env) for _ in range(SETUP_SPAWNS)]
            batch = [spawner.job(job, reference, env) for job in job_list]
            walls.append(sum(r.wall_s for r in batch))
            cpus.append(sum(r.cpu_s for r in batch))
            rss.append(max(r.maxrss_kb for r in batch))
            runs += batch
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(walls) > seconds:
                break
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss) / 1024,
        "setup_s": statistics.median(setups),
    }
    detail = {"passes": len(walls), "wall_s": walls, "cpu_s": cpus,
              "peak_rss_kb": rss, "setup_s": setups}
    return metrics, runs, detail


def compare_backends(job_list: list[Job], reference: dict[str, str]) -> tuple[str, list[JobRun]]:
    """Outputs of the compiled kernels must equal the reference (untimed)."""
    if importlib.util.find_spec("permutomino._speedups") is None:
        return "unmeasured: compiled kernels not built", []
    env = job_env("c")
    with Spawner() as spawner:
        runs = [spawner.job(job, reference, env) for job in job_list]
    return "outputs compared, not timed", runs


# ---------------------------------------------------------------- traced run

def run_in_process(cli, job_list: list[Job], reference, tracer: Tracer | None):
    """Run the jobs through cli.main with stdout captured: (seconds in cli.main, runs)."""
    if tracer:
        tracer.install()
    try:
        runs = [run_job_in_process(cli, job, reference, tracer) for job in job_list]
    finally:
        if tracer:
            tracer.uninstall()
    return sum(r.wall_s for r in runs), runs


def run_job_in_process(cli, job: Job, reference, tracer: Tracer | None) -> JobRun:
    buf = io.StringIO()
    argv = list(job.with_workers(1).argv)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            if tracer:
                code = tracer.call("cli.main", cli.main, (argv,), label=job.key)
            else:
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    run = JobRun(job, time.perf_counter() - t0, 0.0, 0, code, buf.getvalue())
    run.problem = f"exit code {code}" if code else check_output(job, run.stdout, reference)
    return run


def speedup(counting, n: int, repeats: int) -> float:
    """t(workers=1) / t(workers=2) of counting.scan_stats(n), medians of `repeats`."""
    times = {1: [], 2: []}
    for _ in range(repeats):
        for workers in (1, 2):
            t0 = time.perf_counter()
            counting.scan_stats(n, workers=workers)
            times[workers].append(time.perf_counter() - t0)
    return statistics.median(times[1]) / statistics.median(times[2])


def layer_metrics(tracer: Tracer, runs: list[JobRun], untraced_s: float, traced_s: float,
                  speedups: dict[str, float]) -> dict[str, float]:
    calls, self_s, total_s = tracer.aggregate()
    layers = tracer.layer_self()
    counters = tracer.counters
    kept = counters["kernels.squares_kept"]
    scan_s = self_s.get("kernels.scan_stats", 0.0)
    words = counters["oracles.words_validated"]
    rendered = sum(len(r.stdout.encode()) for r in runs
                   if r.job.argv[0] == "build" or "--render" in r.job.argv)
    values = {
        "kernels.scan_stats.calls": calls["kernels.scan_stats"],
        "kernels.scan_stats.self_s": scan_s,
        "kernels.squares_kept": kept,
        "kernels.squares_per_s": kept / scan_s if scan_s else 0.0,
        "counting.scan_stats.calls": calls["counting.scan_stats"],
        "counting.convex_via_fibers.s": total_s.get("counting.convex_via_fibers", 0.0),
        "oracles.shapes_kept": counters["oracles.shapes_kept"],
        "oracles.accept_ratio": counters["oracles.shapes_kept"] / words if words else 0.0,
        "membership.fiber.shapes": counters["membership.fiber.shapes"],
        "render.out_bytes": rendered,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    }
    values.update({f"counting.speedup_w2.{k}": v for k, v in speedups.items()})
    for metric in PER_LAYER:
        if metric in values:
            continue
        head, _, tail = metric.rpartition(".")
        if tail == "calls":
            values[metric] = calls[head]
        elif tail == "self_s":
            values[metric] = self_s.get(head, 0.0) if "." in head else layers.get(head, 0.0)
    return values


def measure_traced(job_list: list[Job], seconds: float, reference: dict[str, str],
                   probes: dict[str, tuple[int, int]] = SPEEDUP_PROBES):
    """Untraced and traced in-process passes; medians over the passes.

    One untimed job warms the process up first, and the two passes swap order
    every time, so trace.overhead_frac does not charge run order to the spans.
    """
    import_program()
    from permutomino import cli, counting

    _, runs = run_in_process(cli, job_list[:1], reference, None)
    passes = []
    start = time.perf_counter()
    while True:
        tracer = Tracer()
        order = (tracer, None) if len(passes) % 2 else (None, tracer)
        timed = {t: run_in_process(cli, job_list, reference, t) for t in order}
        (untraced_s, plain), (traced_s, traced) = timed[None], timed[tracer]
        speedups = {name: speedup(counting, n, repeats) for name, (n, repeats) in probes.items()}
        passes.append(layer_metrics(tracer, traced, untraced_s, traced_s, speedups))
        runs += plain + traced
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    metrics = {name: statistics.median(p[name] for p in passes) for name in PER_LAYER}
    root_s = sum(end - begin for _, begin, end, parent, _ in tracer.spans if parent < 0)
    shares = {layer: s / root_s for layer, s in sorted(
        tracer.layer_self().items(), key=lambda kv: -kv[1])}
    detail = {"passes": len(passes), "layer_share_of_traced_wall": shares,
              "calls_by_job": tracer.calls_by_root()}
    return metrics, runs, detail, tracer


# ---------------------------------------------------------------- reporting

def environment(workload: str, seed: int, seconds: float, trace: int, job_list) -> dict:
    import_program()
    from permutomino import _kernels

    return {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "kernel_backend": getattr(_kernels, "BACKEND", "unknown"),
        "workers_per_job": {job.key: (1 if trace else job.workers) for job in job_list},
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def record_reference() -> int:
    env = job_env()
    reference = {}
    with Spawner() as spawner:
        for workload in WORKLOADS:
            for job in workload_jobs(workload, DEFAULT_SEED):
                run = spawner.job(job, {}, env)
                if run.problem:
                    print(f"{job.key}: {run.problem}", file=sys.stderr)
                    return 1
                reference[job.key] = digest(job, run.stdout)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} digests to {REFERENCE}")
    return 0


def benchmark(workload: str, seed: int, seconds: float, trace: int,
              job_list: list[Job] | None = None, probes=SPEEDUP_PROBES) -> dict:
    """Run one workload and return the result record (the last line is its summary)."""
    OUT.mkdir(exist_ok=True)
    job_list = workload_jobs(workload, seed) if job_list is None else job_list
    reference = load_reference()
    record = {"environment": environment(workload, seed, seconds, trace, job_list)}
    if trace:
        metrics, runs, detail, tracer = measure_traced(job_list, seconds, reference, probes)
        units = PER_LAYER
        spans_path = OUT / f"spans_{workload}_seed{seed}.jsonl"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, runs, detail = measure_end_to_end(job_list, seconds, reference)
        units = END_TO_END
        backends = {"python": "measured"}
        if workload == "census":
            backends["c"], extra = compare_backends(job_list, reference)
            runs += extra
        record["environment"]["backends"] = backends
    failed = [r for r in runs if r.problem]
    record.update(
        detail=detail,
        jobs=[{"job": r.job.key, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
               "maxrss_kb": r.maxrss_kb, "code": r.returncode, "problem": r.problem}
              for r in runs],
        fail_frac=len(failed) / len(runs),
        summary={
            "correct": not failed,
            "attempted": len(runs),
            "failed": len(failed),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    )
    path = OUT / f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["path"] = path
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="permutomino CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "permutomino" / "cli.py").is_file():
        print(f"no permutomino sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")

    record = benchmark(args.workload, args.seed, args.seconds, args.trace)
    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {env['kernel_backend']}  python {env['python']}  cpus {env['cpu_count']}")
    for job in record["jobs"]:
        if job["problem"]:
            print(f"FAILED {job['job']}: {job['problem']}")
    print(f"fail_frac {record['fail_frac']:.4f}")
    for layer, share in record["detail"].get("layer_share_of_traced_wall", {}).items():
        print(f"layer {layer:<12} {share:7.2%} of traced wall")
    summary = record["summary"]
    for name, m in summary["metrics"].items():
        print(f"{name:<42} {m['value']:>16.6f} {m['unit']}")
    print(f"record: {record['path'].relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
