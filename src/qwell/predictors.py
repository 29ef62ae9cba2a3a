"""Closed-form plateau predictors and the conjecture scanner.

Both closed forms read q through the period p = params.threshold: q for odd
q, q/2 for even q, where half of the Gauss coefficients vanish.
Fragmentation (lam above p) forces equally spaced forbidden zones of common
radius 1/(2p) - 1/(2 lam).  Below p, an odd integer 2 N lam guarantees a
unique plateau with explicit center and radius, zero-level exactly when q
divides 4 N lam.  The scanner sweeps a parameter grid, runs the exact
detector on every non-fragmentation configuration and records any
disagreement with the predicted picture verbatim: a disagreement is data,
not an error.

The scan runs the detector once per Galois orbit of each (lam, q) task
(galois_links; the identity is stated at plateau.conjugate_report).  A scan
record is its JSON line, made from integers in the process that ran the
task: predictions are integer numerators (_predicted_numerators), and most
lines a template.  A forked worker sends its rows back with marshal, so they
hold builtins only; detect_plateaux(record.params) gives a record's
intervals.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .cyclotomic import image_root
from .plateau import (ZERO_LEVEL, PlateauReport, build_cells, conjugate_report,
                      detect_plateaux, exponent_rule)
from .rationals import format_rational
from .wavefield import WellParams, fragmentation_threshold

# one encoder renders every scan record line, as json.dumps would with these options
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# The most configurations conjecture_scan accepts, by the closed-form bound it
# checks before building the grid.
MAX_SCAN_CONFIGS = 10_000_000

CASE_ODD = "odd"
CASE_MOD4 = "0mod4"
CASE_MOD4_PLUS2 = "2mod4"


@dataclass(frozen=True)
class FragmentationLayout:
    case: str
    centers: tuple[Fraction, ...]
    radius: Fraction
    clipped: tuple[int, ...]  # indices into centers of the halved end intervals
    intervals: tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class PlateauPrediction:
    center: Fraction
    radius: Fraction
    zero_level: bool
    lo: Fraction
    hi: Fraction


class ScanRecord(NamedTuple):
    lam: Fraction
    q: int
    n_state: int
    a: int
    note: str  # the first check that failed, empty when all hold
    zero_checks: int
    line: str  # the record's compact JSON text

    @property
    def params(self) -> WellParams:
        return WellParams(self.lam, self.n_state, Fraction(self.a, self.q))

    @property
    def consistent(self) -> bool:
        return not self.note


def has_fragmentation(params: WellParams) -> bool:
    """lam > p, the period q or q/2 (exact comparison)."""
    return params.lam > params.threshold


def is_critical(params: WellParams) -> bool:
    return params.lam == params.threshold


def doubled_drift_is_odd(params: WellParams) -> bool:
    """Whether 2 N lam is an odd integer, the predicted existence condition:
    with lam = u/v in lowest terms, whether v divides 2 N u with an odd
    quotient.  Integers only, since every scan record reads it again."""
    num, den = 2 * params.n_state * params.lam.numerator, params.lam.denominator
    return num % den == 0 and num // den % 2 == 1


def zero_level_predicted(params: WellParams) -> bool:
    """Whether q divides 4 N lam (which is then an integer): with lam = u/v in
    lowest terms, whether v q divides 4 N u."""
    num, den = 4 * params.n_state * params.lam.numerator, params.lam.denominator
    return num % (den * params.q) == 0


def fragmentation_layout(params: WellParams) -> FragmentationLayout:
    """Exact forbidden-zone layout in the fragmentation regime lam > p: radius
    1/(2p) - 1/(2 lam) about the centers j/(2p), 0 <= j <= p, with j odd, or
    j even when q = 2 mod 4.  The end intervals are clipped to [0, 1/2]; only
    the center 1/2 (odd q) and the center 0 (q = 2 mod 4) are halved."""
    if not has_fragmentation(params):
        raise ValueError("layout requires the fragmentation regime")
    q, p = params.q, params.threshold
    case = CASE_ODD if q % 2 else CASE_MOD4 if q % 4 == 0 else CASE_MOD4_PLUS2
    half = Fraction(1, 2)
    radius = Fraction(1, 2 * p) - 1 / (2 * params.lam)
    first = 0 if case == CASE_MOD4_PLUS2 else 1
    centers = [Fraction(j, 2 * p) for j in range(first, p + 1, 2)]
    intervals = []
    clipped = []
    for i, c in enumerate(centers):
        lo = max(Fraction(0), c - radius)
        hi = min(half, c + radius)
        if lo != c - radius or hi != c + radius:
            clipped.append(i)
        intervals.append((lo, hi))
    return FragmentationLayout(case, tuple(centers), radius, tuple(clipped), tuple(intervals))


def nonfrag_prediction(params: WellParams) -> PlateauPrediction:
    """Predicted unique plateau below the threshold p when 2 N lam is odd:
    center D(2 a N lam / q + 1/2), radius D(p/(2 lam) + 1/2)/p, intersected
    with [0, 1/2], D the distance to the nearest integer (_predicted_numerators).
    Derivation: the README, "Why the predicted interval".
    """
    if params.lam >= params.threshold:
        raise ValueError("prediction requires lam strictly below the threshold")
    if not doubled_drift_is_odd(params):
        raise ValueError("prediction requires 2 N lam to be an odd integer")
    *numerators, den = _predicted_numerators(params)
    center, radius, lo, hi = (Fraction(x, den) for x in numerators)
    return PlateauPrediction(center, radius, zero_level_predicted(params), lo, hi)


def _predicted_numerators(params: WellParams) -> tuple[int, int, int, int, int]:
    """(center, radius, lo, hi, den): nonfrag_prediction over den = 4 u v p q,
    lam = u/v, from integers: D((4 a N u + v q) / (2 v q)) and
    D((p v + u) / (2 u)) / p, with D(n / m) = min(n % m, m - n % m) / m."""
    u, v, q, p = params.lam.numerator, params.lam.denominator, params.q, params.threshold
    c, r = (4 * params.a * params.n_state * u + v * q) % (2 * v * q), (p * v + u) % (2 * u)
    center, radius = min(c, 2 * v * q - c) * 2 * u * p, min(r, 2 * u - r) * 2 * v * q
    den = 4 * u * v * p * q
    return center, radius, max(0, center - radius), min(den >> 1, center + radius), den


def peak_count(params: WellParams) -> int:
    """Total density peaks on [0, 1/2] in the fragmentation regime: p N."""
    if not has_fragmentation(params):
        raise ValueError("peak count applies to the fragmentation regime")
    return params.threshold * params.n_state


def count_local_maxima(params: WellParams, samples: int = 10_000) -> int:
    """Local maxima of the density on the grid of figures.density_samples,
    the numeric cross-check for peak_count.  Each run of equal samples counts
    as one sample, so a peak whose two nearest samples tie is counted once."""
    import numpy as np

    from .figures import density_samples

    ps = density_samples(params, samples)[:, 1]
    ps = ps[np.r_[True, ps[1:] != ps[:-1]]]
    return int(np.count_nonzero((ps[:-2] < ps[1:-1]) & (ps[1:-1] > ps[2:])))


def _lambda_grid(lambda_dens: int, lambda_max: Fraction) -> list[Fraction]:
    return sorted(
        Fraction(u, v)
        for v in range(1, lambda_dens + 1)
        for u in range(v + 1, math.floor(lambda_max * v) + 1)
        if math.gcd(u, v) == 1
    )


def _round12(v: float) -> float:
    return float(f"{v:.12g}")


def _params_json(params: WellParams) -> dict:
    return {
        "lambda": format_rational(params.lam),
        "n_state": params.n_state,
        "tau": format_rational(params.tau),
    }


def _interval_json(interval) -> dict:
    return {
        "interval": [format_rational(interval.lo), format_rational(interval.hi)],
        "center": format_rational((interval.lo + interval.hi) / 2),
        "level": _round12(interval.level),
        "kind": interval.kind,
        "vanishing_side": interval.vanishing_side,
    }


def _report_json(report: PlateauReport) -> dict:
    """The params, intervals and zero_checks of a report, as plateaux and a scan
    record both print them."""
    return _params_json(report.params) | {
        "intervals": [_interval_json(iv) for iv in report.intervals],
        "zero_checks": report.zero_checks}


def _check_record(params: WellParams, report: PlateauReport, exists: bool) -> str:
    """The note of one configuration whose predicted existence is exists: the
    first of existence, uniqueness, interval and kind on which the report
    contradicts the prediction, or "", compared on integers."""
    n_found = len(report.intervals)
    note = ""
    if not exists:
        if n_found:
            note = f"no plateau predicted but {n_found} detected"
    elif n_found != 1:
        note = f"a unique plateau was predicted but {n_found} detected"
    else:
        found, (*_, lo, hi, den) = report.intervals[0], _predicted_numerators(params)
        if (found.lo.numerator * den != lo * found.lo.denominator
                or found.hi.numerator * den != hi * found.hi.denominator):
            note = (f"interval [{found.lo}, {found.hi}] != predicted"
                    f" [{Fraction(lo, den)}, {Fraction(hi, den)}]")
        elif (found.kind == ZERO_LEVEL) != (zero := zero_level_predicted(params)):
            note = f"kind {found.kind} contradicts zero-level prediction {zero}"
    return note


def _scan_row(params: WellParams, report: PlateauReport) -> tuple[int, int, str, int, str]:
    """(n_state, a, note, zero_checks, line) of one configuration: builtins
    only, so that a forked worker can marshal them.  A consistent line
    with no interval, most of a scan, is a template filled with integers."""
    exists = doubled_drift_is_odd(params)
    note = _check_record(params, report, exists)
    lam, tau = params.lam, params.tau
    if note or report.intervals:
        out = _report_json(report)
        out["predicted_exists"], out["consistent"] = exists, not note
        if note:
            out["note"] = note
        line = _LINE_ENCODER.encode(out)
    else:  # consistent with no interval, so no plateau was predicted
        line = (f'{{"consistent":true,"intervals":[],"lambda":"{lam.numerator}/{lam.denominator}",'
                f'"n_state":{params.n_state},"predicted_exists":false,'
                f'"tau":"{tau.numerator}/{tau.denominator}","zero_checks":{report.zero_checks}}}')
    return params.n_state, tau.numerator, note, report.zero_checks, line


def _task_configs(q: int, n_max: int) -> list[tuple[int, int]]:
    """The (N, a) of a (lam, q) scan task in grid order: by N, then by a coprime to q."""
    return [(n, a) for n in range(1, n_max + 1) for a in range(1, q) if math.gcd(a, q) == 1]


def galois_links(lam: Fraction, q: int, n_max: int) -> list[tuple[int, int, int] | None]:
    """The Galois orbit map of one (lam, q) scan task, with no detector call:
    per configuration (N, a) in the grid order of _task_configs, None for a
    representative, which the scan detects, or (source, t, sign) for a
    configuration read from the report at grid position source through
    sigma_t (plateau.conjugate_report).

    The links are those conjugate_report accepts, (a, N) to (a t^-1 mod q, N')
    with t coprime to lcm(q, W), W = v q / gcd(u, q) for lam = u/v, and
    t N = +-N' (mod W).  The t are
    bucketed per N by t N mod W; the first configuration in grid order not
    yet reached is a representative, and every configuration its buckets
    send it to with N' >= N is read from it, unless an earlier
    representative claimed it already.  So every source precedes its targets
    and is detected itself.
    """
    w = lam.denominator * q // math.gcd(lam.numerator, q)
    modulus = math.lcm(q, w)
    units = [t for t in range(1, modulus) if math.gcd(t, modulus) == 1]
    inverse = {t: pow(t, -1, q) for t in units}
    buckets = {n_state: {} for n_state in range(1, n_max + 1)}
    for n_state, bucket in buckets.items():
        for t in units:
            bucket.setdefault(t * n_state % w, []).append(t)
    configs = _task_configs(q, n_max)
    position = {config: i for i, config in enumerate(configs)}
    links: list[tuple[int, int, int] | None] = [None] * len(configs)
    reached = [False] * len(configs)
    for source, (n_state, a) in enumerate(configs):
        if reached[source]:
            continue
        reached[source] = True
        for target_n in range(n_state, n_max + 1):
            for sign in (1, -1):
                for t in buckets[n_state].get(sign * target_n % w, ()):
                    target = position[target_n, a * inverse[t] % q]
                    if not reached[target]:
                        reached[target] = True
                        links[target] = (source, t, sign)
    return links


def _scan_chunk(args: tuple[Fraction, int, int]) -> list[tuple[int, int, str, int, str]]:
    """The rows of one (lam, q) task in grid order.  The detector runs once
    per Galois orbit, on its representative (galois_links); every other
    record is its source's report carried over by sigma_t
    (plateau.conjugate_report).  The layers shared by all of the task's
    configurations, its cells and the F_ell root of each order (which depends
    on q and s only), are built first, though both are cached: else the first
    detector run of the task or order pays for them, a slow tail in latency."""
    lam, q, n_max = args
    taus = [Fraction(a, q) for a in range(1, q) if math.gcd(a, q) == 1]  # _task_configs' order
    grid = [WellParams(lam, n_state, tau) for n_state in range(1, n_max + 1) for tau in taus]
    build_cells(lam, q)
    for order in {exponent_rule(params)[0] for params in grid[::len(grid) // n_max]}:  # one per N
        image_root(order)
    reports: list[PlateauReport] = []
    for params, link in zip(grid, galois_links(lam, q, n_max)):
        if link is None:
            reports.append(detect_plateaux(params))
        else:
            source, t, sign = link
            reports.append(conjugate_report(reports[source], params, t, sign))
    return [_scan_row(params, report) for params, report in zip(grid, reports)]


def scan_workers(requested: int | None = None) -> int:
    """Worker count for parameter sweeps: by default the CPUs this process
    may run on (its affinity mask, so taskset and cpusets count)."""
    available = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count())
    return max(1, requested or available or 1)


def _forked_map(fn, tasks: list, n_procs: int) -> list:
    """[fn(task) for task in tasks], computed by this process and n_procs - 1
    forked children; with n_procs = 1 it forks nothing and this process runs
    every task.  Each process takes the next task index from one counter, an
    8-byte integer held in a pipe: a process that reads it holds it alone
    until it writes the next index back.  A child sends its {index: result} on
    its own pipe as one marshal blob, so results must be builtins, or nothing
    if fn raises there.  Once the children are reaped, this process runs each
    task that no process returned, so fn must be pure: its error is raised
    here as itself, and a child that dies costs a re-run.  The children are
    forked, not spawned, so they see this process's module globals as they
    are (a wrapped detect_plateaux too); this process must run no other
    thread.  A child ends with os._exit, so it flushes no inherited buffer and
    runs no atexit hook.  Every child is reaped before this returns or raises,
    and killed first if this process's own share raises."""
    import marshal

    def run() -> dict:
        done = {}
        while True:
            index = int.from_bytes(os.read(counter_r, 8), "little")
            os.write(counter_w, (index + 1).to_bytes(8, "little"))
            if index >= len(tasks):
                return done
            done[index] = fn(tasks[index])

    counter_r, counter_w = os.pipe()
    os.write(counter_w, bytes(8))
    children: dict[int, int] = {}  # pid -> the read end of its result pipe
    try:
        for _ in range(n_procs - 1):
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(result_r)
                os.close(result_w)
                raise
            if pid == 0:
                try:
                    with open(result_w, "wb") as out:
                        out.write(marshal.dumps(run()))
                finally:
                    os._exit(0)
            os.close(result_w)
            children[pid] = result_r
        done = run()
        for result_r in children.values():
            with open(result_r, "rb", closefd=False) as pipe:
                blob = pipe.read()
            if blob:
                done.update(marshal.loads(blob))
    except BaseException:
        import signal

        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, result_r in children.items():
            os.close(result_r)
            os.waitpid(pid, 0)
        os.close(counter_r)
        os.close(counter_w)
    return [done[index] if index in done else fn(tasks[index]) for index in range(len(tasks))]


def conjecture_scan(
    lambda_dens: int = 8,
    lambda_max: Fraction = Fraction(6),
    q_max: int = 20,
    n_max: int = 3,
    workers: int | None = None,
) -> list[ScanRecord]:
    """Sweep every non-fragmentation configuration on the grid and compare
    the exact detector against the predicted existence / uniqueness /
    interval / zero-level picture.

    Results come back in deterministic grid order regardless of worker
    scheduling.  Every scan runs through one map, _forked_map: workers beyond
    this process are forked, and without os.fork this process scans alone.
    A task no worker returned runs again here, so its error is raised as
    itself and a lost worker changes no record.  Inconsistent records are
    returned, never raised.  A grid with lambda_dens, q_max or n_max below 1,
    whose closed-form bound on configurations exceeds MAX_SCAN_CONFIGS, or
    that holds no configuration, raises ValueError before any work starts.
    """
    if min(lambda_dens, q_max, n_max) < 1:
        raise ValueError(
            "lambda_dens, q_max and n_max (--lambda-den, --qmax, --nmax) must be at"
            f" least 1, got {lambda_dens}, {q_max} and {n_max}"
        )
    # every lam >= threshold(q) is skipped and threshold(q) <= q <= q_max, so
    # the grid stops at q_max however large lambda_max is
    lambda_max = min(Fraction(lambda_max), Fraction(q_max))
    # at most (lambda_max - 1) v fractions u/v per v, and q - 1 fractions a/q per q
    fractions = (lambda_max - 1) * lambda_dens * (lambda_dens + 1) / 2
    bound = fractions * n_max * q_max * (q_max - 1) / 2
    if bound > MAX_SCAN_CONFIGS:
        raise ValueError(
            f"the scan grid may hold up to {math.floor(bound)} configurations, beyond"
            f" the supported limit MAX_SCAN_CONFIGS = {MAX_SCAN_CONFIGS}"
        )
    tasks = [(lam, q, n_max) for lam in _lambda_grid(lambda_dens, lambda_max)
             for q in range(2, q_max + 1) if lam < fragmentation_threshold(q)]
    if not tasks:
        raise ValueError(f"the scan grid holds no configuration: no lambda = u/v in (1,"
                         f" {lambda_max}] with v <= {lambda_dens} lies below the"
                         f" threshold of a q <= {q_max}")
    n_procs = min(scan_workers(workers), len(tasks)) if hasattr(os, "fork") else 1
    chunks = _forked_map(_scan_chunk, tasks, n_procs)
    return [ScanRecord(lam, q, *row) for (lam, q, _), chunk in zip(tasks, chunks)
            for row in chunk]
