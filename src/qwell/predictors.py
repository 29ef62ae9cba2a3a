"""Closed-form plateau predictors and the conjecture scanner.

Fragmentation (lam above the threshold q, or q/2 for even q) forces equally
spaced forbidden zones whose centers and common radius have explicit
formulas.  Below the threshold, an odd integer value of 2 N lam guarantees a
unique plateau with explicit center and radius, zero-level exactly when q
divides 4 N lam.  The scanner sweeps a parameter grid, runs the exact
detector on every non-fragmentation configuration and records any
disagreement with the predicted picture verbatim: a disagreement is data,
not an error.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .plateau import ZERO_LEVEL, PlateauReport, detect_plateaux
from .rationals import dist_nearest_int
from .wavefield import WellParams, density_p, fragmentation_threshold

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


@dataclass(frozen=True)
class ScanRecord:
    params: WellParams
    predicted_exists: bool
    detected: PlateauReport
    consistent: bool
    note: str = ""


def has_fragmentation(params: WellParams) -> bool:
    """lam > q for odd q, lam > q/2 for even q (exact comparison)."""
    return params.lam > params.threshold


def is_critical(params: WellParams) -> bool:
    return params.lam == params.threshold


def doubled_drift_is_odd(params: WellParams) -> bool:
    """Whether 2 N lam is an odd integer, the predicted existence condition."""
    x = 2 * params.n_lam
    return x.denominator == 1 and x.numerator % 2 == 1


def zero_level_predicted(params: WellParams) -> bool:
    """Whether q divides 4 N lam (which is then an integer)."""
    x = 4 * params.n_lam
    return x.denominator == 1 and x.numerator % params.q == 0


def fragmentation_layout(params: WellParams) -> FragmentationLayout:
    """Exact forbidden-zone layout in the fragmentation regime, with the end
    intervals clipped to [0, 1/2] (only the last odd-q interval and the
    first q = 2 mod 4 interval are halved)."""
    if not has_fragmentation(params):
        raise ValueError("layout requires the fragmentation regime")
    q = params.q
    half = Fraction(1, 2)
    inv_2lam = 1 / (2 * params.lam)
    if q % 2:
        case = CASE_ODD
        radius = Fraction(1, 2 * q) - inv_2lam
        centers = [Fraction(2 * m + 1, 2 * q) for m in range(0, (q + 1) // 2)]
    elif q % 4 == 0:
        case = CASE_MOD4
        radius = Fraction(1, q) - inv_2lam
        centers = [Fraction(2 * m + 1, q) for m in range(0, q // 4)]
    else:
        case = CASE_MOD4_PLUS2
        radius = Fraction(1, q) - inv_2lam
        centers = [Fraction(2 * m, q) for m in range(0, (q + 2) // 4)]
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
    """Predicted unique plateau below the threshold when 2 N lam is odd:
    center D(2 a N lam / q + 1/2), radius D(q/(2 lam) + 1/2)/q for odd q and
    2 D(q/(4 lam) + 1/2)/q for even q, intersected with [0, 1/2]."""
    if params.lam >= params.threshold:
        raise ValueError("prediction requires lam strictly below the threshold")
    if not doubled_drift_is_odd(params):
        raise ValueError("prediction requires 2 N lam to be an odd integer")
    q = params.q
    half = Fraction(1, 2)
    center = dist_nearest_int(Fraction(2 * params.a, q) * params.n_lam + half)
    if q % 2:
        radius = dist_nearest_int(q / (2 * params.lam) + half) / q
    else:
        radius = 2 * dist_nearest_int(q / (4 * params.lam) + half) / q
    lo = max(Fraction(0), center - radius)
    hi = min(half, center + radius)
    return PlateauPrediction(center, radius, zero_level_predicted(params), lo, hi)


def peak_count(params: WellParams) -> int:
    """Total density peaks on [0, 1/2] in the fragmentation regime:
    q N for odd q, q N / 2 for even q."""
    if not has_fragmentation(params):
        raise ValueError("peak count applies to the fragmentation regime")
    q, n = params.q, params.n_state
    return q * n if q % 2 else q * n // 2


def count_local_maxima(params: WellParams, samples: int = 10_000) -> int:
    """Strict local maxima of the density on an offset grid over [0, 1/2];
    the numeric cross-check for peak_count."""
    ps = density_p((np.arange(samples) + 0.5) / (2.0 * samples), params)
    return int(np.count_nonzero((ps[:-2] < ps[1:-1]) & (ps[1:-1] > ps[2:])))


def _lambda_grid(lambda_dens: int, lambda_max: Fraction) -> list[Fraction]:
    return sorted(
        Fraction(u, v)
        for v in range(1, lambda_dens + 1)
        for u in range(v + 1, math.floor(lambda_max * v) + 1)
        if math.gcd(u, v) == 1
    )


def _check_record(params: WellParams, report: PlateauReport) -> ScanRecord:
    predicted = doubled_drift_is_odd(params)
    n_found = len(report.intervals)
    if not predicted:
        if n_found == 0:
            return ScanRecord(params, False, report, True)
        return ScanRecord(
            params, False, report, False,
            f"no plateau predicted but {n_found} detected",
        )
    prediction = nonfrag_prediction(params)
    if n_found != 1:
        return ScanRecord(
            params, True, report, False,
            f"a unique plateau was predicted but {n_found} detected",
        )
    found = report.intervals[0]
    if (found.lo, found.hi) != (prediction.lo, prediction.hi):
        return ScanRecord(
            params, True, report, False,
            f"interval [{found.lo}, {found.hi}] != predicted"
            f" [{prediction.lo}, {prediction.hi}]",
        )
    if (found.kind == ZERO_LEVEL) != prediction.zero_level:
        return ScanRecord(
            params, True, report, False,
            f"kind {found.kind} contradicts zero-level prediction"
            f" {prediction.zero_level}",
        )
    return ScanRecord(params, True, report, True)


def _scan_chunk(args: tuple[Fraction, int, int]) -> list[ScanRecord]:
    lam, q, n_max = args
    records = []
    for n_state in range(1, n_max + 1):
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            params = WellParams(lam, n_state, Fraction(a, q))
            records.append(_check_record(params, detect_plateaux(params)))
    return records


def scan_workers(requested: int | None = None) -> int:
    """Worker count for parameter sweeps, capped by TALBOT_THREADS."""
    workers = requested or os.cpu_count() or 1
    cap = os.environ.get("TALBOT_THREADS")
    if cap:
        workers = min(workers, max(1, int(cap)))
    return max(1, workers)


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
    scheduling.  Inconsistent records are returned, never raised.  A grid
    with lambda_dens, q_max or n_max below 1, or whose closed-form bound on
    configurations exceeds MAX_SCAN_CONFIGS, raises ValueError before any
    work starts.
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
    tasks = []
    for lam in _lambda_grid(lambda_dens, lambda_max):
        for q in range(2, q_max + 1):
            if lam >= fragmentation_threshold(q):
                continue
            tasks.append((lam, q, n_max))

    n_workers = scan_workers(workers)
    if n_workers == 1 or len(tasks) < 2:
        chunks = map(_scan_chunk, tasks)
        return [record for chunk in chunks for record in chunk]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        chunks = pool.map(_scan_chunk, tasks, chunksize=8)
        return [record for chunk in chunks for record in chunk]
