"""One measured repetition in a fresh interpreter.

Usage: python3 child.py SPEC.json SPAWN_TIME

SPEC.json names the qwell source tree, the jobs to run and whether to trace;
SPAWN_TIME is the parent's time.monotonic() just before it started this
process, so set-up time counts interpreter start-up as a CLI user pays it.
Prints one JSON object with the set-up time, the wall time of each job, the
times of the reference computation run around the jobs and, when traced, the
per-layer summary.  Outputs are checked by the parent.

Before every job but the first, the lru caches of every loaded qwell module
are cleared, so each configuration starts as cold as in a fresh interpreter
without paying for one.
"""
from __future__ import annotations

import json
import os
import resource
import struct
import sys
import time
import traceback
from fractions import Fraction
from functools import partial

LATENCY_RECORD = "d"  # seconds of one detect_plateaux call in a scan
REFERENCE_ROUNDS = 5  # before the first job and after the last


def reference_work() -> float:
    """Seconds taken by fixed pure-Python integer and list work, like
    qwell's inner loops; the parent scales every time by it."""
    t0 = time.perf_counter()
    slots = [0] * 997
    acc = 0
    for i in range(40_000):
        j = (i * i + 7 * i) % 997
        slots[j] += 1
        acc += slots[(3 * j) % 997]
    return time.perf_counter() - t0


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "qwell" or name.startswith("qwell."):
            for value in vars(module).values():
                # a traced function keeps its lru_cache object in __wrapped__
                for fn in (value, getattr(value, "__wrapped__", None)):
                    if callable(getattr(fn, "cache_clear", None)):
                        fn.cache_clear()


def _run_scan(cli, predictors, job, latency_fd):
    workers = job["workers"]
    cli.conjecture_scan = partial(cli.conjecture_scan, workers=workers)
    if latency_fd is not None:
        # Per-configuration latency inside the pool workers: each forked
        # worker inherits this wrapper and the descriptor, and O_APPEND keeps
        # the 8-byte records whole.  A pool that spawned its workers would
        # leave the scan's latencies unmeasured.
        detect = predictors.detect_plateaux

        def timed_detect(params):
            t0 = time.perf_counter()
            report = detect(params)
            os.write(latency_fd, struct.pack(LATENCY_RECORD, time.perf_counter() - t0))
            return report

        predictors.detect_plateaux = timed_detect
    return cli.main(job["argv"]), predictors.scan_workers(workers)


def _run_density(figures, job):
    from qwell.wavefield import WellParams

    params = WellParams(Fraction(job["lambda"]), job["n_state"], Fraction(job["tau"]))
    rows = figures.density_samples(params, job["samples"])
    report = figures.detect_plateaux(params)
    csv_text = figures.render_csv(rows)
    svg_text = figures.render_svg(rows, report)
    with open(job["csv"], "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    with open(job["svg"], "w", encoding="utf-8") as fh:
        fh.write(svg_text)
    return 0


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    t_spawn = float(sys.argv[2])
    sys.path.insert(0, spec["src"])
    t_import = time.perf_counter()
    import qwell.cli as cli

    import_s = time.perf_counter() - t_import
    cli.build_parser()
    setup_s = time.monotonic() - t_spawn

    import qwell.figures as figures
    import qwell.predictors as predictors

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(config_per_detect=spec["workload"] == "scan")
        tracer.install()

    latency_fd = None
    if spec.get("latency_file"):
        latency_fd = os.open(spec["latency_file"], os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    # the reference runs between jobs, outside their timed regions, so each
    # job can be scaled by the machine speed of its own moment
    reference = [reference_work() for _ in range(REFERENCE_ROUNDS)]
    results = []
    for index, job in enumerate(spec["jobs"]):
        if index:
            if tracer is not None:
                tracer.bank_poly_misses()
            clear_caches()
        if tracer is not None:
            tracer.config_id = index
        out = {"ok": True}
        t0 = time.perf_counter()
        try:
            if job["kind"] == "scan":
                out["rc"], out["workers_used"] = _run_scan(cli, predictors, job, latency_fd)
            elif job["kind"] == "plateaux":
                out["rc"] = cli.main(job["argv"])
            else:
                out["rc"] = _run_density(figures, job)
        except Exception:  # a failed configuration is data for the parent
            out["ok"] = False
            out["error"] = traceback.format_exc(limit=4)
        out["wall_s"] = time.perf_counter() - t0
        results.append(out)
        reference.append(reference_work())

    if latency_fd is not None:
        os.close(latency_fd)
    reference += [reference_work() for _ in range(REFERENCE_ROUNDS - 1)]
    report = {
        "reference_s": reference,
        "setup_s": setup_s,
        "import_s": import_s,
        "jobs": results,
        "maxrss_kb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                         resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.summary()
        report["poly_cache_info"] = tracer.poly_cache_info()
        tracer.save(spec["trace_file"])
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
