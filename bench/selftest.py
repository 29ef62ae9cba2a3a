#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny inputs (about a minute).

    python3 bench/selftest.py

Checks that
- a tiny run of each workload prints every metric of BENCHMARK.json, by name
  and with its unit, in both modes, and finds nothing wrong;
- a corrupted output (a flipped verdict, or one changed CSV byte) counts as a
  failed configuration;
- the per-layer counts repeat exactly across two traced runs with one seed;
- without the qwell sources the benchmark exits nonzero and prints no result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNT_SUFFIXES = (".calls", ".misses", ".cells", ".terms", "_slots", "_bytes", ".order_p50", ".zero_frac")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if result is not None and set(result) != {"correct", "attempted", "failed", "metrics"}:
        result = None
    return proc.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def report(ok: bool, label: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    for workload in (w["name"] for w in spec["workloads"]):
        counts = []
        for run, trace in enumerate((0, 1, 1)):
            rc, result = bench("--workload", workload, "--trace", str(trace), "--tiny")
            ok = rc == 0 and result is not None and result["correct"] and result["failed"] == 0
            units = {k: v["unit"] for k, v in result["metrics"].items()} if ok else {}
            report(ok and units == wanted[trace],
                   f"{workload} run {run + 1} (trace={trace}): correct, every metric with its unit")
            if trace and ok:
                counts.append({k: v["value"] for k, v in result["metrics"].items()
                               if k.endswith(COUNT_SUFFIXES)})
        report(len(counts) == 2 and counts[0] == counts[1], f"{workload}: traced counts repeat exactly")

        corrupt = "csv" if workload == "density" else "verdict"
        rc, result = bench("--workload", workload, "--trace", "0", "--tiny", "--corrupt", corrupt)
        report(rc == 0 and result is not None and not result["correct"] and result["failed"] >= 1,
               f"{workload}: a corrupted output ({corrupt}) counts as a failed config")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    rc, result = bench("--workload", "scan", "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    report(rc != 0 and result is None, "without the sources: nonzero exit and no result")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
