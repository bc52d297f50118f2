#!/usr/bin/env python3
"""Benchmark the scan kernels: compiled extension vs pure Python.

Times the two hot loops (the statistics scan, which the pure-Python kernel
runs over the square permutations and the compiled one over S_n, and the dual
square-test agreement scan over S_n) on every available backend and prints a
small table.

    python benchmarks/bench_kernels.py [--max-size 8] [--repeat 3]
"""
from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from permutomino._kernels import backends  # noqa: E402


def best_of(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=8)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    mods = backends()
    print(f"backends: {', '.join(sorted(mods))}")
    header = f"{'scan':<22}{'n':>3}" + "".join(f"{name:>14}" for name in sorted(mods))
    if len(mods) > 1:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))

    for label, call in (
        ("scan_stats", lambda mod, n: mod.scan_stats(n)),
        ("square_agreement", lambda mod, n: mod.square_agreement(n)),
    ):
        for n in range(5, args.max_size + 1):
            results = {}
            timings = {}
            for name in sorted(mods):
                mod = mods[name]
                timings[name] = best_of(lambda: results.setdefault(name, call(mod, n)), args.repeat)
            values = list(results.values())
            assert all(v == values[0] for v in values), f"backend mismatch at {label}({n})"
            row = f"{label:<22}{n:>3}" + "".join(
                f"{timings[name] * 1000:>12.2f}ms" for name in sorted(mods)
            )
            if len(mods) > 1:
                slow = max(timings.values())
                fast = min(timings.values())
                row += f"{slow / fast:>9.1f}x"
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
