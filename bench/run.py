#!/usr/bin/env python3
"""qwell benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload scan|large-q|density --seed N --seconds S --trace 0|1

Run from the root of a qwell checkout; the program is imported from `src/`
and nothing is installed.  Every repetition runs in a fresh interpreter
(bench/child.py), which is what a CLI user pays and keeps qwell's caches cold
between repetitions.  Outputs are checked against independent oracles
(bench/checks.py).  The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the line before it
records the environment.  Run records and traces go to `.bench_out/`.

--trace 0  first starts a few interpreters that only set up, then repeats
           passes while another pass fits into --seconds: a pass is one scan,
           or every large-q / density configuration once, in one interpreter.
           Reports END_TO_END: set-up time, configurations per second, the
           latency per configuration at p50 and p75 over every configuration
           of every pass (40 per pass, or every scan configuration inside the
           pool workers) and the peak RSS of any process.  Times are scaled
           to a fixed machine speed, see REFERENCE_S.
--trace 1  runs a fixed part of the workload three ways, each in one fresh
           interpreter: untraced with one worker, untraced with nproc
           workers (scan only, for the parallel speed-up) and traced with one
           worker (bench/tracer.py).  Reports PER_LAYER: counts, raw self
           times per layer and the tracing overhead.
--tiny and --corrupt exist for bench/selftest.py.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

from child import LATENCY_RECORD, REFERENCE_ROUNDS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("scan", "large-q", "density")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 5
# Reported times are scaled to a fixed machine speed.  Each child times a
# fixed reference computation (child.reference_work) before and after every
# job; a job's time is multiplied by REFERENCE_S over the mean of the two, and
# set-up time and a scan by REFERENCE_S over the child's median.  A shared host drifts
# between speed phases of +-25% that last seconds to minutes, so raw times
# spread more between runs than any bound below 0.25 allows.  Raw times are
# kept in the run record.
REFERENCE_S = 0.010

END_TO_END = {
    "setup_s": "s",
    "configs_per_s": "1/s",
    "config_s_p50": "s",
    "config_s_p75": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.import_s": "s",
    "predictors.conjecture_scan.self_s": "s",
    "predictors.result_bytes": "bytes",
    "predictors.parallel_speedup": "x",
    "plateau.detect_plateaux.self_s": "s",
    "plateau.build_cells.calls": "count",
    "plateau.build_cells.self_s": "s",
    "plateau.window_sums.calls": "count",
    "plateau.window_sums.self_s": "s",
    "plateau.cells": "count",
    "plateau.terms": "count",
    "cyclotomic.is_zero.calls": "count",
    "cyclotomic.is_zero.self_s": "s",
    "cyclotomic.is_zero.zero_frac": "ratio",
    "cyclotomic.to_complex.calls": "count",
    "cyclotomic.to_complex.self_s": "s",
    "cyclotomic.reduced.calls": "count",
    "cyclotomic.reduced.self_s": "s",
    "cyclotomic.cyclotomic_poly.misses": "count",
    "cyclotomic.cyclotomic_poly.self_s": "s",
    "cyclotomic.coeff_slots": "count",
    "cyclotomic.order_p50": "order",
    "wavefield.density_p.calls": "count",
    "wavefield.density_p.self_s": "s",
    "wavefield.interval_I.self_s": "s",
    "gauss.coefficient_c.calls": "count",
    "gauss.coefficient_c.self_s": "s",
    "figures.density_samples.self_s": "s",
    "figures.render_csv.self_s": "s",
    "figures.render_svg.self_s": "s",
    "figures.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


class Runner:
    """Spawns fresh interpreters, checks their outputs and keeps the tallies."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "TALBOT_THREADS"}
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.setup: list[float] = []
        self.raw_setup: list[float] = []
        self.rss_kb = 0
        self.workers_used: set[int] = set()
        self.output_bytes = {"cli": 0, "figures": 0}
        self.checked: dict[str, str] = {}  # output path -> digest of its checked bytes
        self.record: dict = {}  # extra facts for the run record
        self.digests = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))

    def spawn(self, jobs: list[dict], trace: bool = False, latency_file: Path | None = None) -> dict:
        self.spawned += 1
        spec_path = self.work / f"spec-{self.spawned}.json"
        spec = {"src": str(SRC), "workload": self.args.workload, "jobs": jobs, "trace": trace,
                "trace_file": str(OUT / f"trace-{self.args.workload}-seed{self.args.seed}.npz"),
                "latency_file": str(latency_file) if latency_file else None}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(spec_path), repr(t_spawn)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            out = None
            os.killpg(proc.pid, signal.SIGKILL)  # pool workers share the session
            proc.communicate()
        try:  # anything the child left behind in its session
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if out is None:
            raise ChildFailed("child exceeded the run's time limit")
        if proc.returncode != 0:
            raise ChildFailed(f"child exited {proc.returncode}: {err.decode()[-400:]}")
        try:
            report = json.loads(out)
        except ValueError:
            raise ChildFailed(f"child printed no report: {err.decode()[-400:]}") from None
        refs = report["reference_s"]
        report["scale"] = REFERENCE_S / statistics.median(refs)
        first = REFERENCE_ROUNDS - 1  # the reference just before the first job
        for job, before, after in zip(report["jobs"], refs[first:], refs[first + 1:]):
            job["scale"] = 2 * REFERENCE_S / (before + after)
        self.setup.append(report["setup_s"] * report["scale"])
        self.raw_setup.append(report["setup_s"])
        self.rss_kb = max(self.rss_kb, report["maxrss_kb"])
        for job in report["jobs"]:
            if "workers_used" in job:
                self.workers_used.add(job["workers_used"])
        return report

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    # -- one workload pass: jobs, a child, the checks ----------------------

    def scan_job(self, workers: int) -> tuple[dict, dict]:
        from workloads import SCAN_GRID, TINY_SCAN_GRID

        grid = TINY_SCAN_GRID if self.args.tiny else SCAN_GRID
        path = self.work / "scan.json"
        argv = ["scan", "--lambda-den", str(grid["lambda_den"]), "--lambda-max", grid["lambda_max"],
                "--qmax", str(grid["q_max"]), "--nmax", str(grid["n_max"]), "--out", str(path)]
        expected = self.digests["scan"][json.dumps(grid, sort_keys=True)]
        return {"kind": "scan", "argv": argv, "workers": workers, "out": str(path)}, expected

    def config_job(self, config: dict, index: int) -> dict:
        from workloads import DENSITY_SAMPLES, TINY_DENSITY_SAMPLES

        if self.args.workload == "large-q":
            path = self.work / f"plateaux-{index}.json"
            argv = ["plateaux", "--lambda", config["lambda"], "--N", str(config["n_state"]),
                    "--tau", config["tau"], "--output", str(path)]
            return {"kind": "plateaux", "argv": argv, "out": str(path), "config": config}
        samples = TINY_DENSITY_SAMPLES if self.args.tiny else DENSITY_SAMPLES
        return {"kind": "density", "lambda": config["lambda"], "n_state": config["n_state"],
                "tau": config["tau"], "samples": samples, "config": config,
                "csv": str(self.work / f"density-{index}.csv"),
                "svg": str(self.work / f"density-{index}.svg")}

    def check(self, job: dict, result: dict, expected: dict | None = None) -> bool:
        """Check one job's output; True when every configuration in it is right.

        The first output of a job gets the oracle checks; a repetition of the
        job must reproduce it byte for byte."""
        import checks

        count = expected["total"] if job["kind"] == "scan" else 1
        self.attempted += count
        label = job.get("config", "scan")
        if not result["ok"] or result["rc"] != 0:
            self.fail(count, f"{label}: {result.get('error', result.get('rc'))}")
            return False
        paths = [job[k] for k in ("out", "csv", "svg") if k in job]
        blobs = [Path(p).read_bytes() for p in paths]
        blobs[0] = self.corrupted(blobs[0])
        self.output_bytes["figures" if job["kind"] == "density" else "cli"] += sum(map(len, blobs))
        digest = checks.sha256(b"".join(blobs))
        try:
            if paths[0] in self.checked:
                same = digest == self.checked[paths[0]]
                failed, reason = (0, None) if same else (count, "output differs from the checked first one")
            elif job["kind"] == "scan":
                failed, reason = checks.check_scan(blobs[0], expected)
            else:
                if job["kind"] == "plateaux":
                    reason = checks.check_plateaux(blobs[0], job["config"])
                else:
                    config = job["config"]
                    key = f"{config['lambda']}|{config['n_state']}|{config['tau']}|{job['samples']}"
                    reason = checks.check_density(blobs[0], blobs[1], config, job["samples"],
                                                  self.digests["density"].get(key))
                failed = 1 if reason else 0
        except (KeyError, IndexError, TypeError, ValueError) as exc:  # malformed output
            failed, reason = count, f"output does not parse: {exc!r}"
        if failed:
            self.fail(failed, f"{label}: {reason}")
            return False
        self.checked[paths[0]] = digest
        return True

    def corrupted(self, data: bytes) -> bytes:
        """The self-test's corruption of the first output checked."""
        kind, self.args.corrupt = self.args.corrupt, None
        if kind == "verdict" and self.args.workload == "scan":
            return data.replace(b'"consistent":true', b'"consistent":false', 1)
        if kind == "verdict":
            report = json.loads(data)
            report["intervals"] = [] if report["intervals"] else [
                {"interval": ["0/1", "1/2"], "center": "1/4", "level": 1.0,
                 "kind": "positive", "vanishing_side": "plus"}]
            return json.dumps(report, sort_keys=True, indent=2).encode() + b"\n"
        if kind == "csv":  # first digit of the largest density value
            rows = data.split(b"\n")[1:-1]
            row = max(rows, key=lambda r: float(r.split(b",")[1]))
            offset = data.index(row) + row.index(b",") + 1
            digit = (data[offset] - ord("0") + 1) % 10 + ord("0")
            return data[:offset] + bytes([digit]) + data[offset + 1:]
        return data

    def run_jobs(self, jobs: list[dict], trace: bool = False, expected=None,
                 latency_file: Path | None = None) -> tuple[dict | None, list[float], list[bool]]:
        """One interpreter for `jobs`; returns (report, job walls, job passed its checks)."""
        try:
            report = self.spawn(jobs, trace, latency_file)
        except ChildFailed as exc:
            for job in jobs:
                count = expected["total"] if job["kind"] == "scan" else 1
                self.attempted += count
                self.fail(count, str(exc))
            return None, [], []
        ok = [self.check(job, res, expected) for job, res in zip(jobs, report["jobs"])]
        return report, [res["wall_s"] for res in report["jobs"]], ok


def measure(runner: Runner) -> dict:
    """Untraced passes while another pass fits into --seconds."""
    from workloads import configs, pass_order

    args = runner.args
    for _ in range(SETUP_PROBES):
        runner.spawn([])
    if args.workload != "scan":
        jobs = [runner.config_job(c, c["slot"]) for c in configs(args.workload, args.seed, args.tiny)]
    latencies: list[float] = []  # scaled, one per configuration and pass
    rates: list[float] = []
    raw: dict[str, list[float]] = {"walls": [], "scales": []}
    t_begin = time.monotonic()
    pass_index = 0
    while True:
        t_pass = time.monotonic()
        if args.workload == "scan":
            job, expected = runner.scan_job(nproc())
            latency_file = runner.work / f"latency-{pass_index}.bin"
            report, walls, ok = runner.run_jobs([job], expected=expected, latency_file=latency_file)
            if ok and ok[0]:
                scale = report["scale"]  # one long job: the child's median speed
                rates.append(expected["total"] / (walls[0] * scale))
                for (seconds,) in struct.iter_unpack(LATENCY_RECORD, latency_file.read_bytes()):
                    latencies.append(seconds * scale)
        else:
            order = pass_order(jobs, args.seed, pass_index)
            report, walls, ok = runner.run_jobs(order)
            for job, wall, good in zip(report["jobs"] if report else [], walls, ok):
                if good:
                    latencies.append(wall * job["scale"])
        if report is not None:
            raw["walls"].append(sum(walls))
            raw["scales"].append(report["scale"])
        pass_index += 1
        pass_s = time.monotonic() - t_pass
        if time.monotonic() - t_begin + pass_s > args.seconds:
            break
        if time.monotonic() + pass_s > runner.deadline:
            break
    runner.record.update(passes=pass_index, raw=dict(raw, setup_s=statistics.median(runner.raw_setup)))
    if not latencies:
        return {}
    return {
        "setup_s": statistics.median(runner.setup),
        "configs_per_s": statistics.median(rates) if rates else len(latencies) / sum(latencies),
        "config_s_p50": percentile(latencies, 0.50),
        "config_s_p75": percentile(latencies, 0.75),
        "peak_rss_mb": runner.rss_kb / 1024.0,
    }


def trace(runner: Runner) -> dict:
    """Untraced serial, untraced parallel (scan) and traced runs of one part."""
    from workloads import trace_configs

    def scaled_wall(report) -> float:
        return sum(job["wall_s"] * job["scale"] for job in report["jobs"]) if report else 0.0

    args = runner.args
    if args.workload == "scan":
        serial_job, expected = runner.scan_job(1)
        parallel_job, _ = runner.scan_job(nproc())
        serial, _, _ = runner.run_jobs([serial_job], expected=expected)
        parallel, _, _ = runner.run_jobs([parallel_job], expected=expected)
        speedup = scaled_wall(serial) / scaled_wall(parallel) if parallel else 0.0
        jobs = [serial_job]
    else:
        jobs = [runner.config_job(c, c["slot"]) for c in trace_configs(args.workload, args.seed, args.tiny)]
        expected = None
        serial, _, _ = runner.run_jobs(jobs)
        speedup = 0.0
    runner.output_bytes = {"cli": 0, "figures": 0}
    traced, _, _ = runner.run_jobs(jobs, trace=True, expected=expected)
    if traced is None or serial is None:
        return {}
    walls = {"serial": scaled_wall(serial), "traced": scaled_wall(traced)}
    runner.record.update(poly_cache_info=traced["poly_cache_info"], scaled_walls=walls)
    metrics = {name: traced["layers"].get(name, 0) for name in PER_LAYER}
    metrics.update({
        "cli.import_s": traced["import_s"],
        "cli.output_bytes": runner.output_bytes["cli"],
        "figures.output_bytes": runner.output_bytes["figures"],
        "predictors.parallel_speedup": speedup,
        "trace.overhead_s": walls["traced"] - walls["serial"],
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--corrupt", choices=("verdict", "csv"), default=None,
                        help="damage the first output before it is checked, for the self-test")
    args = parser.parse_args(argv)
    if args.corrupt and (args.corrupt == "csv") != (args.workload == "density"):
        parser.error("--corrupt csv applies to density, --corrupt verdict to scan and large-q")

    if not (SRC / "qwell" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qwell sources at {SRC}; run from a qwell checkout\n")
        return 2
    sys.path.insert(0, str(SRC))

    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    runner = Runner(args, work)
    try:
        if args.trace:
            metrics, units = trace(runner), PER_LAYER
        else:
            metrics, units = measure(runner), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env["loadavg_end"] = list(os.getloadavg())
    env["workers_used"] = sorted(runner.workers_used)
    correct = runner.failed == 0 and runner.attempted > 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": max(1, runner.attempted),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": args.workload, "trace": args.trace, "tiny": args.tiny, "env": env,
              "failures": runner.reasons, **runner.record, **result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for reason in runner.reasons:
        sys.stderr.write(f"failed: {reason}\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
