import errno
import json
import marshal
import math
import os
import pickle
import signal
import struct
import time
from fractions import Fraction
from functools import partial

import pytest

from oracles import count_local_maxima, dist_nearest_int, galois_links_search
from qwell import cli, predictors
from qwell.cli import _scan_json, main
from qwell.plateau import ZERO_LEVEL, ExactFloatMismatch, build_cells, detect_plateaux
from qwell.predictors import (
    CASE_MOD4,
    CASE_MOD4_PLUS2,
    CASE_ODD,
    conjecture_scan,
    doubled_drift_is_odd,
    fragmentation_layout,
    galois_links,
    has_fragmentation,
    is_critical,
    nonfrag_prediction,
    peak_count,
    zero_level_predicted,
)
from qwell.wavefield import WellParams, fragmentation_threshold


def test_has_fragmentation_examples():
    assert has_fragmentation(WellParams(Fraction(107, 10), 1, Fraction(2, 7)))
    assert has_fragmentation(WellParams(Fraction(107, 10), 2, Fraction(1, 12)))
    assert not has_fragmentation(WellParams(Fraction(5, 2), 1, Fraction(1, 3)))


def test_layout_odd_q():
    layout = fragmentation_layout(WellParams(Fraction(107, 10), 1, Fraction(2, 7)))
    assert layout.case == CASE_ODD
    assert layout.centers == (
        Fraction(1, 14), Fraction(3, 14), Fraction(5, 14), Fraction(1, 2),
    )
    assert layout.radius == Fraction(1, 14) - Fraction(5, 107)
    assert layout.clipped == (3,)
    assert layout.intervals[-1] == (Fraction(1, 2) - layout.radius, Fraction(1, 2))


def test_layout_q_multiple_of_4():
    layout = fragmentation_layout(WellParams(Fraction(107, 10), 2, Fraction(1, 12)))
    assert layout.case == CASE_MOD4
    assert layout.centers == (Fraction(1, 12), Fraction(3, 12), Fraction(5, 12))
    assert layout.radius == Fraction(1, 12) - Fraction(5, 107)
    assert layout.clipped == ()


def test_layout_q_2_mod_4():
    layout = fragmentation_layout(WellParams(Fraction(107, 10), 1, Fraction(3, 10)))
    assert layout.case == CASE_MOD4_PLUS2
    assert layout.centers == (Fraction(0), Fraction(1, 5), Fraction(2, 5))
    assert layout.radius == Fraction(1, 10) - Fraction(5, 107)
    assert layout.clipped == (0,)
    assert layout.intervals[0] == (Fraction(0), layout.radius)


def test_layout_rejects_non_fragmentation():
    with pytest.raises(ValueError):
        fragmentation_layout(WellParams(Fraction(5, 2), 1, Fraction(1, 3)))


NONFRAG_CASES = [
    (Fraction(5, 2), 1, Fraction(1, 3), Fraction(1, 6), Fraction(1, 30), False),
    (Fraction(5, 2), 3, Fraction(13, 18), Fraction(1, 3), Fraction(1, 30), False),
    (Fraction(5, 4), 2, Fraction(11, 6), Fraction(1, 3), Fraction(1, 10), False),
    (Fraction(3, 2), 1, Fraction(5, 3), Fraction(1, 2), Fraction(1, 6), True),
    (Fraction(3, 2), 3, Fraction(1, 6), Fraction(0), Fraction(1, 6), True),
    (Fraction(3, 2), 3, Fraction(7, 18), Fraction(0), Fraction(1, 18), True),
]


@pytest.mark.parametrize("lam,n_state,tau,center,radius,zero", NONFRAG_CASES)
def test_nonfrag_prediction_values(lam, n_state, tau, center, radius, zero):
    pred = nonfrag_prediction(WellParams(lam, n_state, tau))
    assert pred.center == center
    assert pred.radius == radius
    assert pred.zero_level == zero
    assert pred.lo == max(Fraction(0), center - radius)
    assert pred.hi == min(Fraction(1, 2), center + radius)


def test_nonfrag_prediction_rejects_bad_regimes():
    with pytest.raises(ValueError):
        nonfrag_prediction(WellParams(Fraction(107, 10), 1, Fraction(2, 7)))
    with pytest.raises(ValueError):
        # 2 N lam = 4 is even
        nonfrag_prediction(WellParams(Fraction(2), 1, Fraction(1, 5)))


def test_existence_predicate():
    assert doubled_drift_is_odd(WellParams(Fraction(5, 2), 1, Fraction(1, 3)))
    assert not doubled_drift_is_odd(WellParams(Fraction(5, 2), 2, Fraction(1, 3)))
    assert zero_level_predicted(WellParams(Fraction(3, 2), 1, Fraction(5, 3)))
    assert not zero_level_predicted(WellParams(Fraction(5, 2), 1, Fraction(1, 3)))


def test_peak_count_formulas():
    assert peak_count(WellParams(Fraction(107, 10), 1, Fraction(2, 7))) == 7
    assert peak_count(WellParams(Fraction(107, 10), 2, Fraction(1, 12))) == 12
    assert peak_count(WellParams(Fraction(107, 10), 1, Fraction(3, 10))) == 5
    with pytest.raises(ValueError):
        peak_count(WellParams(Fraction(5, 2), 1, Fraction(1, 3)))


def test_peak_count_matches_grid_maxima():
    p = WellParams(Fraction(107, 10), 1, Fraction(2, 7))
    assert count_local_maxima(p, samples=4000) == 7


def test_grid_maxima_count_a_peak_whose_nearest_samples_tie():
    # at 4000 samples each of the 5 peaks falls midway between two samples
    p = WellParams(Fraction(25, 2), 1, Fraction(1, 10))
    assert count_local_maxima(p, samples=4000) == peak_count(p) == 5


def test_grid_maxima_match_peak_count_where_samples_tie():
    # the lambdas at which the nearest samples of a peak can tie
    pairs = 0
    for lam in (Fraction(9, 2), Fraction(21, 2), Fraction(25, 2), Fraction(15)):
        for q in range(2, 13):
            for a in range(1, q):
                for n_state in (1, 2):
                    p = WellParams(lam, n_state, Fraction(a, q))
                    if math.gcd(a, q) != 1 or not has_fragmentation(p):
                        continue
                    for samples in (2000, 4000):
                        assert count_local_maxima(p, samples) == peak_count(p), (p, samples)
                        pairs += 1
    assert pairs == 544


@pytest.mark.parametrize(
    "lam,tau",
    [
        (Fraction(3), Fraction(1, 3)),
        (Fraction(5), Fraction(2, 5)),
        (Fraction(2), Fraction(1, 4)),
        (Fraction(3), Fraction(1, 6)),
    ],
)
def test_critical_expansion_has_no_plateaux(lam, tau):
    params = WellParams(lam, 1, tau)
    assert is_critical(params)
    assert not has_fragmentation(params)
    report = detect_plateaux(params)
    assert report.intervals == ()
    # on every cell each windowed sum is a single surviving term
    for cell in build_cells(params.lam, params.q):
        assert len(cell.members) == 1


def test_detector_agrees_with_layout_on_all_fragmentation_configs():
    # every fragmentation configuration with q <= 15 for three expansion factors
    for lam in (Fraction(107, 10), Fraction(21, 2), Fraction(8)):
        for q in range(1, 16):
            threshold = Fraction(q) if q % 2 else Fraction(q, 2)
            if lam <= threshold:
                continue
            for a in [a for a in range(1, q + 1) if math.gcd(a, q) == 1]:
                for n_state in (1, 2):
                    params = WellParams(lam, n_state, Fraction(a, q))
                    layout = fragmentation_layout(params)
                    report = detect_plateaux(params)
                    assert [(iv.lo, iv.hi) for iv in report.intervals] == list(layout.intervals)
                    assert all(iv.kind == ZERO_LEVEL for iv in report.intervals)


def test_small_scan_is_consistent_and_ordered():
    records = conjecture_scan(lambda_dens=4, lambda_max=Fraction(3), q_max=8, n_max=2, workers=1)
    assert records
    assert all(r.consistent for r in records)
    # deterministic ordering: rerun matches
    again = conjecture_scan(lambda_dens=4, lambda_max=Fraction(3), q_max=8, n_max=2, workers=1)
    assert [(r.params, doubled_drift_is_odd(r.params)) for r in records] == [
        (r.params, doubled_drift_is_odd(r.params)) for r in again
    ]
    by_params = {r.params: r for r in records}
    golden = WellParams(Fraction(5, 2), 1, Fraction(1, 3))
    assert golden in by_params
    rec = by_params[golden]
    assert doubled_drift_is_odd(rec.params)
    assert [(iv.lo, iv.hi) for iv in detect_plateaux(rec.params).intervals] == [
        (Fraction(2, 15), Fraction(1, 5))
    ]


def test_scan_reuses_the_cells_within_each_lambda_q_task():
    # the benchmark's tiny scan grid: 18 (lam, q) tasks, each building its
    # cells once, before its configurations, and reading them back once per
    # configuration: detected or mirrored, so one cached layout serves them all
    build_cells.cache_clear()
    records = conjecture_scan(lambda_dens=4, lambda_max=Fraction(3, 2), q_max=8, n_max=2, workers=1)
    tasks = {(r.params.lam, r.params.q) for r in records}
    info = build_cells.cache_info()
    assert len(tasks) > 1
    assert (info.hits, info.misses) == (len(records), len(tasks))
    assert info.currsize == 1


def test_scan_covers_squarefree_composite_even_drift():
    records = conjecture_scan(lambda_dens=2, lambda_max=Fraction(4), q_max=15, n_max=2, workers=1)
    hits = 0
    for r in records:
        q = r.params.q
        factors = {f for f in range(2, q + 1) if q % f == 0 and all(f % p for p in range(2, f))}
        squarefree_composite = len(factors) > 1 and all(q % (p * p) for p in factors)
        drift = 2 * r.params.n_lam
        if squarefree_composite and drift.denominator == 1 and drift.numerator % 2 == 0:
            hits += 1
            assert detect_plateaux(r.params).intervals == ()
    assert hits > 0


def test_scan_refuses_grid_arguments_below_1():
    for grid in [(0, Fraction(6), 20, 3), (8, Fraction(6), -5, 3), (8, Fraction(6), 20, -1)]:
        with pytest.raises(ValueError, match="at least 1"):
            conjecture_scan(*grid, workers=1)


def test_scan_bound_admits_the_default_and_a_larger_grid(monkeypatch):
    # the default grid, and v <= 16, q <= 60, N <= 5 (2,185,490 configurations);
    # a task is one (lam, q) pair of the grid, here shipping one plain row
    monkeypatch.setattr(predictors, "_scan_chunk", lambda task: [(1, 1, "", 0, "{}")])
    for grid, tasks in [((8, Fraction(6), 20, 3), 1665), ((16, Fraction(6), 60, 5), 22073)]:
        assert len(conjecture_scan(*grid, workers=1)) == tasks


# The closed forms written once per parity case, as the paper states them;
# the predictors write them once over the period p.
def layout_by_case(params):
    q, inv_2lam = params.q, 1 / (2 * params.lam)
    if q % 2:
        case, radius = CASE_ODD, Fraction(1, 2 * q) - inv_2lam
        centers = [Fraction(2 * m + 1, 2 * q) for m in range(0, (q + 1) // 2)]
    elif q % 4 == 0:
        case, radius = CASE_MOD4, Fraction(1, q) - inv_2lam
        centers = [Fraction(2 * m + 1, q) for m in range(0, q // 4)]
    else:
        case, radius = CASE_MOD4_PLUS2, Fraction(1, q) - inv_2lam
        centers = [Fraction(2 * m, q) for m in range(0, (q + 2) // 4)]
    intervals = [(max(Fraction(0), c - radius), min(Fraction(1, 2), c + radius))
                 for c in centers]
    return case, tuple(centers), radius, tuple(intervals)


def radius_by_case(params):
    q, half = params.q, Fraction(1, 2)
    if q % 2:
        return dist_nearest_int(q / (2 * params.lam) + half) / q
    return 2 * dist_nearest_int(q / (4 * params.lam) + half) / q


def peaks_by_case(params):
    q, n = params.q, params.n_state
    return q * n if q % 2 else q * n // 2


# the q of the benchmark's large-q and density slots above 60
BENCH_SLOT_QS = (150, 151, 152, 154, 155, 156, 158, 162, 164, 168, 175, 180, 184,
                 185, 190, 196, 198, 200, 204, 208, 211, 216, 220, 224, 225, 230,
                 232, 248, 252, 257, 263, 270, 272, 288, 296, 304, 331, 336, 368, 960)


def lambdas_about(threshold, width):
    """Every u/v above 1 with v <= 10 within width of the threshold, both sides."""
    return sorted({Fraction(u, v) for v in range(1, 11)
                   for u in range(max(v + 1, math.floor((threshold - width) * v)),
                                  math.floor((threshold + width) * v) + 1)})


def sweep_against_the_cases(q, lams, units):
    """Compare every prediction at lam in lams, N <= 3 and a in units with the
    per-case formulas; returns the number compared.  The layout reads neither
    a nor N, so each lam above the threshold takes the next a in turn."""
    checked = 0
    for i, lam in enumerate(lams):
        params = WellParams(lam, 1, Fraction(units[i % len(units)], q))
        if has_fragmentation(params):
            layout = fragmentation_layout(params)
            assert (layout.case, layout.centers, layout.radius, layout.intervals) == (
                layout_by_case(params))
            for n_state in (1, 2, 3):
                config = WellParams(params.lam, n_state, params.tau)
                assert peak_count(config) == peaks_by_case(config)
            checked += 4
            continue
        for n_state in (1, 2, 3):
            if is_critical(params) or not doubled_drift_is_odd(
                    WellParams(params.lam, n_state, params.tau)):
                continue
            for a in units:
                config = WellParams(lam, n_state, Fraction(a, q))
                pred, radius = nonfrag_prediction(config), radius_by_case(config)
                assert (pred.radius, pred.lo, pred.hi) == (
                    radius, max(Fraction(0), pred.center - radius),
                    min(Fraction(1, 2), pred.center + radius))
                checked += 1
    return checked


def test_predictions_over_p_equal_the_per_case_formulas():
    # every q <= 60 and every unit a, N <= 3 and lambda = u/v (v <= 10) within
    # 1 of the threshold on both sides; and at a = 1 every lambda below it
    # with 2 N lam odd, lambda = m/(2N)
    checked = 0
    for q in range(1, 61):
        threshold = Fraction(q) if q % 2 else Fraction(q, 2)
        units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        checked += sweep_against_the_cases(q, lambdas_about(threshold, 1), units)
        odd_drifts = {Fraction(m, 2 * n) for n in (1, 2, 3)
                      for m in range(2 * n + 1, int(2 * n * threshold), 2)}
        checked += sweep_against_the_cases(q, sorted(odd_drifts), [1])
    assert checked > 10_000


@pytest.mark.parametrize("q", BENCH_SLOT_QS)
def test_predictions_over_p_equal_the_per_case_formulas_at_the_bench_q(q):
    threshold = Fraction(q) if q % 2 else Fraction(q, 2)
    lams = lambdas_about(threshold, 1) + [Fraction(3, 2), Fraction(5, 2), Fraction(7, 6)]
    assert sweep_against_the_cases(q, lams, [1, q - 1]) > 0


def test_record_is_consistent_exactly_when_its_note_is_empty():
    assert predictors.ScanRecord(Fraction(5, 2), 3, 1, 1, "", 2, "{}").consistent
    assert not predictors.ScanRecord(Fraction(5, 2), 3, 1, 1, "kind", 2, "{}").consistent


def test_default_workers_follow_the_cpu_affinity_mask(monkeypatch):
    # a process confined by taskset or a cpuset to one CPU of a larger host
    monkeypatch.setattr(predictors.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(predictors.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert predictors.scan_workers() == 1
    monkeypatch.setattr(predictors.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert predictors.scan_workers() == 4


# the benchmark's tiny scan grid: lambda_den, lambda_max, q_max, n_max
TINY_SCAN_GRID = (4, Fraction(3, 2), 8, 2)
# the benchmark's scan grid
BENCH_SCAN_GRID = (8, Fraction(5, 4), 20, 3)


def test_the_pool_gives_the_records_and_bytes_of_the_serial_scan():
    assert predictors.scan_workers(2) == 2
    serial = conjecture_scan(*TINY_SCAN_GRID, workers=1)
    pooled = conjecture_scan(*TINY_SCAN_GRID, workers=2)
    assert pooled == serial
    assert _scan_json(pooled, *TINY_SCAN_GRID) == _scan_json(serial, *TINY_SCAN_GRID)


def assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("grid,workers,tasks", [
    ((1, Fraction(2), 6, 2), 8, 3),    # more workers than tasks
    ((1, Fraction(2), 3, 2), 2, 1),    # a single task
    (TINY_SCAN_GRID, 3, 18),
])
def test_a_forked_scan_gives_the_records_of_the_serial_scan(grid, workers, tasks):
    serial = conjecture_scan(*grid, workers=1)
    assert len(dict.fromkeys((r.lam, r.q) for r in serial)) == tasks
    assert conjecture_scan(*grid, workers=workers) == serial
    assert_no_child_is_left()


def test_forked_processes_claim_each_task_once(tmp_path):
    # more processes than cores contend for the task counter; an update of it
    # lost to a race would hand one task to two processes
    tasks, claims = list(range(2000)), tmp_path / "claims.bin"
    log = os.open(claims, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def square(task):
        os.write(log, struct.pack("q", task))
        return task * task

    def stop(signum, frame):
        raise TimeoutError("the forked map did not end within 60 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(60)
    try:
        assert predictors._forked_map(square, tasks, 4) == [task * task for task in tasks]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        os.close(log)
    assert sorted(task for (task,) in struct.iter_unpack("q", claims.read_bytes())) == tasks
    assert_no_child_is_left()


def test_a_platform_without_fork_scans_serially(monkeypatch):
    serial = conjecture_scan(*TINY_SCAN_GRID, workers=1)
    monkeypatch.delattr(os, "fork")
    assert conjecture_scan(*TINY_SCAN_GRID, workers=2) == serial


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("workers,failing", [(1, 1), (2, 1), (3, 2)])
def test_a_failed_fork_reaches_the_caller_and_leaves_no_pipe_or_child(monkeypatch, workers,
                                                                       failing):
    # the failing-th fork raises, as os.fork does with EAGAIN; one process
    # forks nothing, so it still gives the serial records
    serial, real_fork, forks = conjecture_scan(*TINY_SCAN_GRID, workers=1), os.fork, []

    def fork():
        forks.append(None)
        if len(forks) == failing:
            raise OSError(errno.EAGAIN, "fork refused")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    before = open_fds()
    if workers == 1:
        assert conjecture_scan(*TINY_SCAN_GRID, workers=workers) == serial
    else:
        with pytest.raises(OSError, match="fork refused"):
            conjecture_scan(*TINY_SCAN_GRID, workers=workers)
    assert (len(forks), open_fds()) == (failing * (workers > 1), before)
    assert_no_child_is_left()


# the tiny grid's last task, which only a child can take first (see below)
FAILING_TASK = (Fraction(3, 2), 8, 2)
ATTEMPT = struct.Struct("qqqq")  # pid and the task's lam (numerator, denominator) and q


def _raising_on_one_task(error, log):
    # FAILING_TASK raises in whichever process runs it, and every call appends
    # its (pid, task) to an O_APPEND file.  A child holds its first task until
    # the parent has taken one, so each process's first task is one of the
    # first n_procs; the parent holds its own until a child has met the error,
    # so the parent runs that task again only after the children are reaped
    parent, real_chunk = os.getpid(), predictors._scan_chunk

    def attempts():
        return [(pid, (Fraction(num, den), q, FAILING_TASK[2]))
                for pid, num, den, q in ATTEMPT.iter_unpack(log.read_bytes())]

    def may_go_on():
        if os.getpid() == parent:
            return any(pid != parent and task == FAILING_TASK for pid, task in attempts())
        return any(pid == parent for pid, _ in attempts())

    def chunk(task):
        lam, q, _ = task
        with open(log, "ab") as out:
            out.write(ATTEMPT.pack(os.getpid(), lam.numerator, lam.denominator, q))
        deadline = time.monotonic() + 30
        while not may_go_on() and time.monotonic() < deadline:
            time.sleep(0.001)
        if task == FAILING_TASK:
            raise error
        return real_chunk(task)
    return chunk, attempts


def assert_a_child_met_the_error_first(attempts):
    # one child took the failing task from the counter, then the caller ran it again
    pids = [pid for pid, task in attempts() if task == FAILING_TASK]
    assert len(pids) == 2 and pids[0] != os.getpid() == pids[1]


class _TwoArgumentError(Exception):
    # pickle rebuilds an exception from its args, here one message, so this
    # one would come back from a worker as a TypeError
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("error", [
    ValueError("the cyclotomic order M = 7 is beyond the range of the F_ell images"),
    ExactFloatMismatch("exact zero test disagrees with float shadow"),
    _TwoArgumentError("the exact zero test failed", "q = 8"),
])
def test_a_workers_error_reaches_the_caller_unchanged(monkeypatch, tmp_path, workers, error):
    chunk, attempts = _raising_on_one_task(error, tmp_path / "attempts.bin")
    monkeypatch.setattr(predictors, "_scan_chunk", chunk)
    with pytest.raises(type(error)) as raised:
        conjecture_scan(*TINY_SCAN_GRID, workers=workers)
    assert type(raised.value) is type(error) and str(raised.value) == str(error)
    assert_a_child_met_the_error_first(attempts)
    assert_no_child_is_left()


def _failing_in_the_children(fail, log):
    # a child creates log, then fails; the parent holds its first task until
    # a child has failed
    parent, real_chunk = os.getpid(), predictors._scan_chunk

    def chunk(task):
        if os.getpid() != parent:
            log.touch()
            fail()
        deadline = time.monotonic() + 30
        while not log.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        return real_chunk(task)
    return chunk


def _raise_runtime_error():
    raise RuntimeError("raised in a child only")


def _kill_this_process():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("fail", [_raise_runtime_error, _kill_this_process])
def test_a_task_lost_in_a_child_is_run_by_the_caller(monkeypatch, tmp_path, workers, fail):
    # a child whose task raises there only, or that is killed (as by the OOM
    # killer), sends nothing; the caller runs the tasks no child returned
    serial, log = conjecture_scan(*TINY_SCAN_GRID, workers=1), tmp_path / "failed"
    monkeypatch.setattr(predictors, "_scan_chunk", _failing_in_the_children(fail, log))
    before = open_fds()
    assert conjecture_scan(*TINY_SCAN_GRID, workers=workers) == serial
    assert open_fds() == before and log.exists()
    assert_no_child_is_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_an_error_in_the_parents_share_kills_and_reaps_the_children(monkeypatch, workers):
    parent, real_chunk = os.getpid(), predictors._scan_chunk

    def chunk(task):
        if os.getpid() == parent:
            raise ExactFloatMismatch("raised in the parent")
        return real_chunk(task)

    monkeypatch.setattr(predictors, "_scan_chunk", chunk)
    with pytest.raises(ExactFloatMismatch, match="raised in the parent"):
        conjecture_scan(*BENCH_SCAN_GRID, workers=workers)
    assert_no_child_is_left()


def test_a_workers_value_error_makes_the_cli_exit_2(monkeypatch, tmp_path, capsys):
    message = "the cyclotomic order M = 7 is beyond the range of the F_ell images"
    chunk, attempts = _raising_on_one_task(ValueError(message), tmp_path / "attempts.bin")
    monkeypatch.setattr(predictors, "_scan_chunk", chunk)
    monkeypatch.setattr(cli, "conjecture_scan", partial(conjecture_scan, workers=2))
    grid = ["--lambda-den", "4", "--lambda-max", "3/2", "--qmax", "8", "--nmax", "2"]
    assert main(["scan", *grid, "--out", str(tmp_path / "scan.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "scan.json").exists()
    assert_a_child_met_the_error_first(attempts)
    assert_no_child_is_left()


@pytest.mark.parametrize("workers", [2, 8])
def test_the_latency_hook_sees_every_detector_run_in_every_process(monkeypatch, tmp_path,
                                                                   workers):
    # bench/child.py times the scan by wrapping predictors.detect_plateaux in
    # the parent and appending one 8-byte record per call to an O_APPEND file;
    # a task claimed twice, or never, would change the count
    path = tmp_path / "latency.bin"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def timed_detect(params):
        os.write(fd, struct.pack("d", 0.0))
        return detect_plateaux(params)

    monkeypatch.setattr(predictors, "detect_plateaux", timed_detect)
    try:
        records = conjecture_scan(*TINY_SCAN_GRID, workers=workers)
    finally:
        os.close(fd)
    representatives = sum(galois_links(lam, q, TINY_SCAN_GRID[3]).count(None)
                          for lam, q in dict.fromkeys((r.lam, r.q) for r in records))
    assert path.stat().st_size == 8 * representatives == 8 * 48
    assert_no_child_is_left()


def test_a_scan_detects_each_galois_orbit_once(monkeypatch):
    detected = []

    def detect(params):
        detected.append(params)
        return detect_plateaux(params)

    monkeypatch.setattr(predictors, "detect_plateaux", detect)
    records = conjecture_scan(*TINY_SCAN_GRID, workers=1)
    links = [link for lam, q in dict.fromkeys((r.lam, r.q) for r in records)
             for link in galois_links(lam, q, TINY_SCAN_GRID[3])]
    assert [r.params for r, link in zip(records, links, strict=True) if link is None] == detected


@pytest.mark.parametrize("grid,counts", [
    (TINY_SCAN_GRID, (48, 120)),                   # the benchmark's tiny scan grid
    (BENCH_SCAN_GRID, (528, 1_890)),                # the benchmark's scan grid
    ((8, Fraction(6), 20, 3), (10_110, 39_138)),    # the default grid
])
def test_the_orbit_map_reads_each_configuration_from_an_earlier_representative(grid, counts):
    # the detector runs fell from one per conjugate pair (a, q - a), 60 of 120,
    # 945 of 1,890 and 19,569 of 39,138, to one per Galois orbit
    lambda_dens, lambda_max, q_max, n_max = grid
    representatives = configurations = 0
    tasks = [(lam, q) for lam in predictors._lambda_grid(lambda_dens, lambda_max)
             for q in range(2, q_max + 1) if lam < fragmentation_threshold(q)]
    for lam, q in tasks:
        links = galois_links(lam, q, n_max)
        coprime = [a for a in range(1, q) if math.gcd(a, q) == 1]
        assert len(links) == n_max * len(coprime)
        for target, link in enumerate(links):
            if link is not None:
                source, t, sign = link
                assert source < target and links[source] is None
                (n_source, a_source), (n_target, a_target) = (
                    divmod(i, len(coprime)) for i in (source, target))
                w = lam.denominator * q // math.gcd(lam.numerator, q)
                assert math.gcd(t, math.lcm(q, w)) == 1 and sign in (1, -1)
                assert t * coprime[a_target] % q == coprime[a_source]
                assert (t * (n_source + 1) - sign * (n_target + 1)) % w == 0
                # so both share s = v / gcd(N, v) and the cyclotomic order M
                v = lam.denominator
                assert math.gcd(n_source + 1, v) == math.gcd(n_target + 1, v)
        representatives += links.count(None)
        configurations += len(links)
    assert (representatives, configurations) == counts


@pytest.mark.parametrize("grid", [
    (8, Fraction(6), 20, 3),     # the default grid
    (16, Fraction(4), 24, 4),
])
def test_the_orbit_keys_give_the_links_of_the_unit_group_search(grid):
    lambda_dens, lambda_max, q_max, n_max = grid
    tasks = [(lam, q) for lam in predictors._lambda_grid(lambda_dens, lambda_max)
             for q in range(2, q_max + 1) if lam < fragmentation_threshold(q)]
    for lam, q in tasks:
        assert galois_links(lam, q, n_max) == galois_links_search(lam, q, n_max), (lam, q)


def test_scan_lines_equal_json_dumps(monkeypatch):
    lines = [r.line for r in conjecture_scan(*TINY_SCAN_GRID, workers=1)]

    class Dumps:
        def encode(self, obj):
            return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    monkeypatch.setattr(predictors, "_LINE_ENCODER", Dumps())
    assert [r.line for r in conjecture_scan(*TINY_SCAN_GRID, workers=1)] == lines


@pytest.mark.parametrize("task", [(Fraction(5, 2), 3, 2), (Fraction(7, 4), 8, 3)])
def test_a_scan_chunk_ships_only_builtins(task):
    # a forked scan worker sends its rows with marshal, which carries no
    # Fraction, WellParams, PlateauReport or CycInt
    rows = predictors._scan_chunk(task)
    assert rows and type(rows) is list
    for row in rows:
        assert type(row) is tuple
        assert all(type(value) in (str, int, bool) for value in row)
    shipped = pickle.dumps(rows)
    assert b"qwell" not in shipped and b"fractions" not in shipped
    assert marshal.loads(marshal.dumps(rows)) == rows


def _off_radius(predict):
    # the radius off by 1/(2q) = 2 u v p / den, the interval moved with it
    def mutated(params):
        center, radius, _, _, den = predict(params)
        radius += den // (2 * params.q)
        return center, radius, max(0, center - radius), min(den // 2, center + radius), den
    return mutated


# (predictor patched, its mutation, the notes the mutation must reach); the
# scan reads the integer predictions of _predicted_numerators and
# zero_level_predicted, not the Fractions of nonfrag_prediction
MUTATIONS = {
    "radius": ("_predicted_numerators", _off_radius, ("interval [",)),
    "zero-level": ("zero_level_predicted", lambda zero: lambda p: not zero(p), ("kind ",)),
    "existence": ("doubled_drift_is_odd", lambda odd: lambda p: not odd(p),
                  ("no plateau predicted but ", "a unique plateau was predicted but ")),
}


# the grid of the scans under a mutated prediction, as --lambda-den 2
# --lambda-max 3 --qmax 6 --nmax 2
MUTATION_GRID = dict(lambda_dens=2, lambda_max=Fraction(3), q_max=6, n_max=2)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_a_mutated_prediction_is_recorded_as_data(tmp_path, monkeypatch, capsys, mutation):
    name, mutate, notes = MUTATIONS[mutation]
    monkeypatch.setattr(predictors, name, mutate(getattr(predictors, name)))
    # one CPU in the affinity mask, as under taskset -c 0: the CLI scan below
    # runs serially, in this process, with the mutated predictor
    monkeypatch.setattr(predictors.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    bad = [r for r in conjecture_scan(**MUTATION_GRID, workers=1) if r.note]
    assert bad and not any(r.consistent for r in bad)
    assert all(any(r.note.startswith(note) for r in bad) for note in notes)

    out_file = tmp_path / "scan.json"
    argv = ["scan", "--lambda-den", "2", "--lambda-max", "3", "--qmax", "6", "--nmax", "2",
            "--out", str(out_file)]
    assert main(argv) == 0
    payload = json.loads(out_file.read_text())
    recorded = [r["note"] for r in payload["records"] if not r["consistent"]]
    assert payload["inconsistent"] == len(recorded) == len(bad)
    assert recorded == [r.note for r in bad]
    assert main(argv + ["--strict"]) == 1
    assert f"{len(bad)} inconsistent" in capsys.readouterr().err


def encoded_lines(records):
    """The line of each record as _LINE_ENCODER encodes the dict of
    _report_json of a fresh detector run on its params, with the record's
    predicted existence, verdict and note."""
    lines = []
    for record in records:
        out = predictors._report_json(detect_plateaux(record.params))
        out["predicted_exists"] = predictors.doubled_drift_is_odd(record.params)
        out["consistent"] = record.consistent
        if record.note:
            out["note"] = record.note
        lines.append(predictors._LINE_ENCODER.encode(out))
    return lines


def test_every_line_of_the_bench_scan_is_the_encoded_report():
    # most lines fill a template; every one must be what the encoder writes
    records = conjecture_scan(*BENCH_SCAN_GRID, workers=1)
    assert len(records) == 1_890
    assert [r.line for r in records] == encoded_lines(records)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_every_line_of_a_scan_with_notes_is_the_encoded_report(monkeypatch, mutation):
    name, mutate, _ = MUTATIONS[mutation]
    monkeypatch.setattr(predictors, name, mutate(getattr(predictors, name)))
    records = conjecture_scan(**MUTATION_GRID, workers=1)
    assert any(r.note for r in records)
    assert [r.line for r in records] == encoded_lines(records)


def test_an_interval_off_at_either_end_is_noted():
    # lam = 5/2 at q = 3, N = 1: 2 N lam = 5 is odd, below the threshold 3
    params = WellParams(Fraction(5, 2), 1, Fraction(1, 3))
    report = detect_plateaux(params)
    (found,) = report.intervals
    assert predictors._check_record(params, report, True) == ""
    step = Fraction(1, 100)
    for lo, hi in [(found.lo, found.hi + step), (found.lo + step, found.hi)]:
        moved = report._replace(intervals=(found._replace(lo=lo, hi=hi),))
        assert predictors._check_record(params, moved, True).startswith(
            f"interval [{lo}, {hi}] != predicted [{found.lo}, {found.hi}]")


def test_integer_predictions_equal_the_fraction_formulas():
    # every configuration of the default grid below the threshold with 2 N lam odd
    half, checked = Fraction(1, 2), 0
    for lam in predictors._lambda_grid(8, Fraction(6)):
        for q in range(2, 21):
            if lam >= fragmentation_threshold(q):
                continue
            for n_state, a in predictors._task_configs(q, 3):
                params = WellParams(lam, n_state, Fraction(a, q))
                if not doubled_drift_is_odd(params):
                    continue
                p = params.threshold
                center = dist_nearest_int(Fraction(2 * a, q) * n_state * lam + half)
                radius = dist_nearest_int(p / (2 * lam) + half) / p
                expected = (center, radius, max(Fraction(0), center - radius),
                            min(half, center + radius))
                *numerators, den = predictors._predicted_numerators(params)
                assert tuple(Fraction(x, den) for x in numerators) == expected
                pred = nonfrag_prediction(params)
                assert (pred.center, pred.radius, pred.lo, pred.hi) == expected
                checked += 1
    assert checked == 3_564


@pytest.mark.parametrize("grid", [
    (8, Fraction(6), 1, 3), (8, Fraction(6), 2, 3), (8, Fraction(1), 20, 3),
    (8, Fraction(21, 20), 20, 3), (8, Fraction(-3), 20, 3),
])
def test_scan_refuses_an_empty_grid_before_any_detector_call(monkeypatch, grid):
    def fail(params):
        raise AssertionError("the detector ran")
    monkeypatch.setattr(predictors, "detect_plateaux", fail)
    with pytest.raises(ValueError, match="holds no configuration"):
        conjecture_scan(*grid, workers=1)
