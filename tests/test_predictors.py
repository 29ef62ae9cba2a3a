import math
from fractions import Fraction

import pytest

from qwell import predictors
from qwell.plateau import ZERO_LEVEL, build_cells, detect_plateaux
from qwell.predictors import (
    CASE_MOD4,
    CASE_MOD4_PLUS2,
    CASE_ODD,
    conjecture_scan,
    count_local_maxima,
    doubled_drift_is_odd,
    fragmentation_layout,
    has_fragmentation,
    is_critical,
    nonfrag_prediction,
    peak_count,
    zero_level_predicted,
)
from qwell.wavefield import WellParams


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
    assert [(r.params, r.predicted_exists) for r in records] == [
        (r.params, r.predicted_exists) for r in again
    ]
    by_params = {r.params: r for r in records}
    golden = WellParams(Fraction(5, 2), 1, Fraction(1, 3))
    assert golden in by_params
    rec = by_params[golden]
    assert rec.predicted_exists
    assert [(iv.lo, iv.hi) for iv in rec.detected.intervals] == [
        (Fraction(2, 15), Fraction(1, 5))
    ]


def test_scan_reuses_the_cells_within_each_lambda_q_task():
    # the benchmark's tiny scan grid: 18 (lam, q) tasks, more than the cache
    # keeps, each building its cells once for all of its configurations
    build_cells.cache_clear()
    records = conjecture_scan(lambda_dens=4, lambda_max=Fraction(3, 2), q_max=8, n_max=2, workers=1)
    tasks = {(r.params.lam, r.params.q) for r in records}
    info = build_cells.cache_info()
    assert len(tasks) > 16
    assert (info.hits, info.misses) == (len(records) - len(tasks), len(tasks))
    assert info.currsize <= 16


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
            assert r.detected.intervals == ()
    assert hits > 0


def test_scan_refuses_grid_arguments_below_1():
    for grid in [(0, Fraction(6), 20, 3), (8, Fraction(6), -5, 3), (8, Fraction(6), 20, -1)]:
        with pytest.raises(ValueError, match="at least 1"):
            conjecture_scan(*grid, workers=1)


def test_scan_bound_admits_the_default_and_a_larger_grid(monkeypatch):
    # the default grid, and v <= 16, q <= 60, N <= 5 (2,185,490 configurations);
    # a task is one (lam, q) pair of the grid
    monkeypatch.setattr(predictors, "_scan_chunk", lambda task: [task])
    for grid, tasks in [((8, Fraction(6), 20, 3), 1665), ((16, Fraction(6), 60, 5), 22073)]:
        assert len(conjecture_scan(*grid, workers=1)) == tasks
