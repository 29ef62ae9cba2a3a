import cmath
import dataclasses
import gc
import math
import sys
import tracemalloc
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwell import cyclotomic, plateau, predictors
from qwell.cyclotomic import CycInt
from qwell.gauss import coefficient_c, coefficient_exponent, gauss_abs_sq
from qwell.plateau import (
    POSITIVE_LEVEL,
    ExactFloatMismatch,
    SIDE_BOTH,
    SIDE_MINUS,
    SIDE_PLUS,
    ZERO_LEVEL,
    PlateauInterval,
    PlateauReport,
    build_cells,
    conjugate_report,
    detect_plateaux,
    exponent_rule,
    term_table,
    window_sums,
)
from qwell.predictors import galois_links, has_fragmentation
from qwell.wavefield import PANELS, WellParams, density_p, fragmentation_threshold, interval_I

GOLDEN_PLATEAUX = [
    (Fraction(5, 2), 1, Fraction(1, 3), Fraction(2, 15), Fraction(1, 5), POSITIVE_LEVEL),
    (Fraction(5, 2), 3, Fraction(13, 18), Fraction(3, 10), Fraction(11, 30), POSITIVE_LEVEL),
    (Fraction(5, 4), 2, Fraction(11, 6), Fraction(7, 30), Fraction(13, 30), POSITIVE_LEVEL),
    (Fraction(3, 2), 1, Fraction(5, 3), Fraction(1, 3), Fraction(1, 2), ZERO_LEVEL),
    (Fraction(3, 2), 3, Fraction(1, 6), Fraction(0), Fraction(1, 6), ZERO_LEVEL),
    (Fraction(3, 2), 3, Fraction(7, 18), Fraction(0), Fraction(1, 18), ZERO_LEVEL),
]

# both parities of q, q = 1, fragmentation and q ~ 1000, beyond the golden set
LATTICE_CASES = [
    (Fraction(2), 1, Fraction(0)),
    (Fraction(7, 3), 1, Fraction(3, 10)),
    (Fraction(107, 10), 1, Fraction(2, 7)),
    (Fraction(107, 10), 2, Fraction(1, 12)),
    (Fraction(5, 2), 1, Fraction(1, 997)),
    (Fraction(7, 3), 2, Fraction(1, 1000)),
]


def window_oracle(x, lam, q):
    """Contributing k with |x - k/q| <= 1/(2 lam), in Fraction arithmetic:
    every k for odd q, k + q/2 even for even q."""
    half = Fraction(1, 2) / lam
    ks = range(math.ceil(q * (x - half)), math.floor(q * (x + half)) + 1)
    return tuple(k for k in ks if q % 2 or (k + q // 2) % 2 == 0)


def enumerate_singular_by_brute_force(params, denominator_bound=3000):
    """Independent enumeration: walk candidate edge crossings directly."""
    q, lam = params.q, params.lam
    shift = Fraction(1, 2) / lam
    found = set()
    for m in range(-4 * q, 4 * q + 1):
        if q % 2:
            candidates = [Fraction(m, q) - shift, Fraction(m, q) + shift]
        else:
            candidates = [
                Fraction(2 * m - q // 2, q) - shift,
                Fraction(2 * m - q // 2, q) + shift,
            ]
        for x in candidates:
            if 0 < x < Fraction(1, 2):
                found.add(x)
    return sorted(found)


def cell_bounds(cell, lam, q):
    """The cell's endpoints x0 / (2uq), x1 / (2uq) as Fractions, lam = u/v."""
    den = 2 * lam.numerator * q
    return Fraction(cell.x0, den), Fraction(cell.x1, den)


def interval_cell(params, interval):
    """The cell of build_cells that a reported interval starts on."""
    cells, den = build_cells(params.lam, params.q), 2 * params.lam.numerator * params.q
    return cells[bisect_left(cells, interval.lo * den, key=lambda c: c.x0)]


def survivors(report):
    """The surviving sum of each reported interval, rebuilt with window_sums
    on its cell: the sum of the side that does not vanish, or all-zero for a
    forbidden zone."""
    p, terms = report.params, term_table(report.params)
    out = []
    for iv in report.intervals:
        s_plus, s_minus = window_sums(interval_cell(p, iv), terms)
        out.append({SIDE_PLUS: s_minus, SIDE_MINUS: s_plus}.get(
            iv.vanishing_side, CycInt(terms.order, ())))
    return out


def singular_points(lam, q):
    """The inner cell boundaries of build_cells, as Fractions."""
    return [cell_bounds(cell, lam, q)[1] for cell in build_cells(lam, q)[:-1]]


def test_singular_points_example_lam_5_2():
    p = WellParams(Fraction(5, 2), 1, Fraction(1, 3))
    assert singular_points(p.lam, p.q) == [Fraction(2, 15), Fraction(1, 5), Fraction(7, 15)]


def test_singular_points_q1():
    p = WellParams(Fraction(2), 1, Fraction(0))
    assert singular_points(p.lam, p.q) == [Fraction(1, 4)]


@pytest.mark.parametrize(
    "lam,n_state,tau", [(g[0], g[1], g[2]) for g in GOLDEN_PLATEAUX] + LATTICE_CASES
)
def test_singular_points_match_brute_force(lam, n_state, tau):
    p = WellParams(lam, n_state, tau)
    assert singular_points(p.lam, p.q) == enumerate_singular_by_brute_force(p)


def test_window_membership_jumps_at_singular_points():
    p = WellParams(Fraction(5, 2), 1, Fraction(1, 3))
    eps = Fraction(1, 10**6)
    for x in singular_points(p.lam, p.q):
        assert interval_I(x - eps, p) != interval_I(x + eps, p)


def test_cells_partition_and_membership():
    p = WellParams(Fraction(5, 2), 1, Fraction(1, 3))
    assert [tuple(c.members) for c in build_cells(p.lam, p.q)] == [(0,), (0, 1), (1,), (1, 2)]
    for lam, _, tau in [g[:3] for g in GOLDEN_PLATEAUX] + LATTICE_CASES:
        q = tau.denominator
        cells = build_cells(lam, q)
        assert cells[0].x0 == 0 and cell_bounds(cells[-1], lam, q)[1] == Fraction(1, 2)
        for left, right in zip(cells, cells[1:]):
            assert left.x0 < left.x1 == right.x0
        # build_cells checks only the midpoint; the quarter points are checked here
        for cell in cells:
            lo, hi = cell_bounds(cell, lam, q)
            assert all(isinstance(x, int) for x in (cell.x0, cell.x1))
            for x in ((lo + hi) / 2, (3 * lo + hi) / 4, (lo + 3 * hi) / 4):
                assert tuple(cell.members) == window_oracle(x, lam, q)


def test_build_cells_raises_when_an_edge_is_lost(monkeypatch):
    """At lam = 5/2, q = 3 the contributing k are 0, 1, 2.  Without k = 0 the
    edge at x = 1/5 is lost, the cells left of 7/15 get wrong members, and
    the first, (0, 2/15), fails its midpoint check: k = 0 is in its window."""
    contributing_ks = plateau._contributing_ks
    monkeypatch.setattr(plateau, "_contributing_ks", lambda lam, q: contributing_ks(lam, q)[1:])
    with pytest.raises(ValueError, match="window membership is not constant"):
        build_cells.__wrapped__(Fraction(5, 2), 3)


def cells_by_sorting(lam, q):
    """The set, sort and bisection construction build_cells used to make,
    kept as the reference of its walk: every edge inside (0, uq) sorted once,
    and each cell's members bisected out of the two edge lists."""
    u, v = lam.numerator, lam.denominator
    ks = plateau._contributing_ks(lam, q)
    lower = [2 * u * k - v * q for k in ks]
    upper = [2 * u * k + v * q for k in ks]
    bounds = [0, *sorted({x for x in (*lower, *upper) if 0 < x < u * q}), u * q]
    return tuple(plateau.Cell(x0, x1, ks[bisect_left(upper, x1):bisect_right(lower, x0)])
                 for x0, x1 in zip(bounds, bounds[1:]))


def test_the_edge_walk_gives_the_sorted_edge_cells():
    """lam = u/v <= 6 with v <= 8 and q <= 40, and lam = 5/2 at q = 20001:
    the same cells, the first member of every member range included."""
    pairs = [(lam, q) for lam in predictors._lambda_grid(8, Fraction(6)) for q in range(1, 41)]
    for lam, q in [*pairs, (Fraction(5, 2), 20001)]:
        walked, reference = build_cells.__wrapped__(lam, q), cells_by_sorting(lam, q)
        assert walked == reference
        assert [c.members.start for c in walked] == [c.members.start for c in reference]
    assert len(pairs) == 4400


def test_cells_where_one_k_leaves_as_another_enters():
    """At lam = q/j two window edges meet: for lam = 3/2, q = 6, k = -1 leaves
    and k = 3 enters at X = 6, x = 1/6, so neighbouring member ranges need
    not differ by one k."""
    cells = build_cells(Fraction(3, 2), 6)
    assert [(c.x0, c.x1, tuple(c.members)) for c in cells] == [(0, 6, (-1, 1)), (6, 18, (1, 3))]


def edge_k(x, u, q):
    """The contributing k with 2uk = x, or None."""
    k, r = divmod(x, 2 * u)
    return None if r or (q % 2 == 0 and (k + q // 2) % 2) else k


def test_adjacent_cells_differ_by_one_member_except_at_coincident_edges():
    """The count law of build_cells in every regime, lam = u/v <= 6 with
    v <= 8 and q <= 40: between two adjacent cells exactly one k enters, at
    its lower window edge 2uk - vq, or leaves, at its upper edge 2uk + vq,
    except where the boundary is both, and one k enters as another leaves."""
    pairs = coincident = 0
    for lam in predictors._lambda_grid(8, Fraction(6)):
        u, v = lam.numerator, lam.denominator
        for q in range(1, 41):
            cells = build_cells(lam, q)
            for left, right in zip(cells, cells[1:]):
                entering = edge_k(left.x1 + v * q, u, q)
                leaving = edge_k(left.x1 - v * q, u, q)
                moved = {k for k in (entering, leaving) if k is not None}
                assert moved and set(left.members) ^ set(right.members) == moved
                assert len(right.members) - len(left.members) == (
                    (entering is not None) - (leaving is not None))
                pairs += 1
                coincident += len(moved) == 2
    assert (pairs, coincident) == (64795, 2050)


def test_window_sums_only_sees_the_checked_cells_of_build_cells(monkeypatch):
    # no sum makes a membership check of its own: the detector builds its
    # survivors (_side_sum) on the very members of the cells that build_cells
    # checked against the midpoint window; a forbidden zone builds none
    seen, side_sum = [], plateau._side_sum

    def recording(members, *rest):
        seen.append(members)
        return side_sum(members, *rest)

    monkeypatch.setattr(plateau, "_side_sum", recording)
    for lam, n_state, tau, *_, kind in GOLDEN_PLATEAUX:
        seen.clear()
        p = WellParams(lam, n_state, tau)
        detect_plateaux(p)
        cells = build_cells(p.lam, p.q)  # the cached tuple the detector walked
        assert all(any(members is c.members for c in cells) for members in seen)
        assert bool(seen) == (kind == POSITIVE_LEVEL)


def test_window_sums_check_the_cell_shadow_of_the_term_table():
    p = WellParams(Fraction(5, 2), 1, Fraction(1, 3))
    cell = build_cells(p.lam, p.q)[1]
    terms = term_table(p)
    (i0, i1), (m0, m1) = plateau._side_slices(cell.members, terms.ks)
    assert (i0, i1, m0, m1) == (2, 4, 1, 3)
    # one real prefix gains 2^-20: the cell's mirrored slice moves, its plus slice does not
    re, im = terms.shadows
    moved = [x + (plateau.SHADOW_SCALE >> 20) if i == m1 else x for i, x in enumerate(re)]
    corrupt = dataclasses.replace(terms, shadows=(moved, im))
    window_sums(cell, terms)
    with pytest.raises(ExactFloatMismatch, match="window sum shadow"):
        window_sums(cell, corrupt)


def test_window_sums_empty_cell_is_double_zero():
    p = WellParams(Fraction(107, 10), 1, Fraction(2, 7))
    gap = next(c for c in build_cells(p.lam, p.q) if not c.members)
    s_plus, s_minus = window_sums(gap, term_table(p))
    assert s_plus.is_zero() and s_minus.is_zero()


def test_window_sums_golden_cell_kills_minus_side():
    p = WellParams(Fraction(5, 2), 1, Fraction(1, 3))
    cell = next(
        c for c in build_cells(p.lam, p.q) if c.x0 < 5 < c.x1  # 1/6 = 5/30
    )
    s_plus, s_minus = window_sums(cell, term_table(p))
    assert s_minus.is_zero()
    assert not s_plus.is_zero()


def test_window_sums_generic_cell_both_alive():
    p = WellParams(Fraction(5, 2), 2, Fraction(1, 3))
    cells = [c for c in build_cells(p.lam, p.q) if c.members]
    assert cells
    terms = term_table(p)
    for cell in cells:
        s_plus, s_minus = window_sums(cell, terms)
        assert not s_plus.is_zero()
        assert not s_minus.is_zero()


@pytest.mark.parametrize("lam,n_state,tau,lo,hi,kind", GOLDEN_PLATEAUX)
def test_detect_golden_intervals(lam, n_state, tau, lo, hi, kind):
    report = detect_plateaux(WellParams(lam, n_state, tau))
    assert len(report.intervals) == 1
    interval = report.intervals[0]
    assert (interval.lo, interval.hi) == (lo, hi)
    assert interval.kind == kind
    assert not has_fragmentation(report.params)
    assert report.zero_checks == 2 * len(build_cells(lam, tau.denominator))


def test_detect_fragmentation_gaps_odd_q():
    p = WellParams(Fraction(107, 10), 1, Fraction(2, 7))
    report = detect_plateaux(p)
    assert has_fragmentation(report.params)
    radius = Fraction(1, 14) - Fraction(5, 107)
    expected = [
        (Fraction(1, 14) - radius, Fraction(1, 14) + radius),
        (Fraction(3, 14) - radius, Fraction(3, 14) + radius),
        (Fraction(5, 14) - radius, Fraction(5, 14) + radius),
        (Fraction(1, 2) - radius, Fraction(1, 2)),
    ]
    assert [(iv.lo, iv.hi) for iv in report.intervals] == expected
    assert all(iv.kind == ZERO_LEVEL for iv in report.intervals)


def test_plateau_level_consistency():
    p = WellParams(Fraction(5, 2), 1, Fraction(1, 3))
    report = detect_plateaux(p)
    interval, survivor = report.intervals[0], survivors(report)[0]
    level = interval.level
    assert abs(level - float(p.lam) / p.q * abs(survivor.to_complex()) ** 2) < 1e-12
    assert abs(level - density_p(Fraction(1, 6), p)) < 1e-9
    assert level * float(interval.hi - interval.lo) <= 1.0


def test_zero_level_reports_exact_zero():
    p = WellParams(Fraction(3, 2), 1, Fraction(5, 3))
    interval = detect_plateaux(p).intervals[0]
    assert interval.level == 0.0
    assert all(s.is_zero() for s in window_sums(interval_cell(p, interval), term_table(p)))


@pytest.mark.parametrize("lam,n_state,tau,lo,hi,kind", GOLDEN_PLATEAUX)
def test_detector_vs_density_constancy(lam, n_state, tau, lo, hi, kind):
    params = WellParams(lam, n_state, tau)
    report = detect_plateaux(params)
    interval = report.intervals[0]
    width = interval.hi - interval.lo
    inside = [
        density_p(float(interval.lo) + float(width) * (i + 1) / 51, params)
        for i in range(50)
    ]
    assert max(inside) - min(inside) < 1e-9
    # every cell outside the plateau must witness non-constancy
    for cell in build_cells(params.lam, params.q):
        lo, hi = cell_bounds(cell, params.lam, params.q)
        if interval.lo <= lo and hi <= interval.hi:
            continue
        span = hi - lo
        probes = [
            density_p(float(lo) + float(span) * frac, params)
            for frac in (0.25, 0.5, 0.75)
        ]
        assert max(probes) - min(probes) > 1e-6


def test_vanishing_sums_are_galois_stable():
    for lam, n_state, tau, *_ in GOLDEN_PLATEAUX:
        params = WellParams(lam, n_state, tau)
        terms = term_table(params)
        for cell in build_cells(params.lam, params.q):
            for s in window_sums(cell, terms):
                if s.is_zero():
                    for m in range(2, s.order):
                        if math.gcd(m, s.order) == 1:
                            assert CycInt(s.order, ((m * j, c) for j, c in s.terms)).is_zero()


def test_fragmentation_implies_zero_level_only():
    for n_state, tau in [(1, Fraction(2, 7)), (2, Fraction(1, 12)), (1, Fraction(3, 10))]:
        report = detect_plateaux(WellParams(Fraction(107, 10), n_state, tau))
        assert has_fragmentation(report.params)
        assert report.intervals
        assert all(iv.kind == ZERO_LEVEL for iv in report.intervals)


def test_cyclotomic_order_is_q_s_for_odd_q():
    for lam, n_state, tau in [g[:3] for g in GOLDEN_PLATEAUX] + LATTICE_CASES:
        p = WellParams(lam, n_state, tau)
        s = p.n_lam.denominator
        expected = p.q * s if p.q % 2 else math.lcm(8, 4 * p.q, p.q * s)
        assert exponent_rule(p)[0] == expected


def e(x):
    return cmath.exp(2j * cmath.pi * float(x % 1))


@pytest.mark.parametrize(
    "lam,n_state,tau",
    [g[:3] for g in GOLDEN_PLATEAUX]
    + [(Fraction(5, 2), 1, Fraction(1, 997)), (Fraction(7, 3), 2, Fraction(1, 1000))],
)
def test_window_sums_match_gauss_coefficient_sums(lam, n_state, tau):
    """S_pm, times |c(k)| = sqrt(2) for even q, against
    sum c(k) e(+-N lam k / q) with c(k) from gauss.coefficient_c, cell by
    cell."""
    p = WellParams(lam, n_state, tau)
    cells, table = build_cells(p.lam, p.q), term_table(p)
    weight = 1.0 if p.q % 2 else math.sqrt(2.0)
    terms = {}
    for k in {k for cell in cells for k in cell.members}:
        c, drift = coefficient_c(p.a, p.q, k), p.n_lam * k / p.q
        terms[k] = (c * e(drift), c * e(-drift))
    for cell in cells:
        s_plus, s_minus = window_sums(cell, table)
        assert abs(weight * s_plus.to_complex() - sum(terms[k][0] for k in cell.members)) < 1e-9
        assert abs(weight * s_minus.to_complex() - sum(terms[k][1] for k in cell.members)) < 1e-9


def test_detect_large_q_pinned():
    report = detect_plateaux(WellParams(Fraction(5, 2), 1, Fraction(1, 997)))
    assert [(iv.lo, iv.hi, iv.kind, iv.vanishing_side) for iv in report.intervals] == [
        (Fraction(2467, 4985), Fraction(2468, 4985), POSITIVE_LEVEL, SIDE_PLUS)
    ]
    assert report.zero_checks == 1996
    report = detect_plateaux(WellParams(Fraction(7, 3), 2, Fraction(1, 1000)))
    assert report.intervals == ()
    assert report.zero_checks == 1002


def test_detector_decides_on_the_sparse_terms_only(monkeypatch):
    def dense(*args):
        raise AssertionError("dense path reached")

    monkeypatch.setattr(cyclotomic, "cyclotomic_poly", dense)
    monkeypatch.setattr(CycInt, "reduced", dense)
    monkeypatch.setattr(CycInt, "coeffs", property(dense))
    for lam, n_state, tau, lo, hi, _ in GOLDEN_PLATEAUX:
        interval = detect_plateaux(WellParams(lam, n_state, tau)).intervals[0]
        assert (interval.lo, interval.hi) == (lo, hi)


def test_flipped_verdict_or_shadow_drift_raises(monkeypatch):
    """A flipped reflection verdict on a nonzero side with a vanishing image,
    here made by a root of order M/3, is refuted by the table shadow.  A
    flipped reflection verdict on a true zero goes to the exact test, so it
    raises when that test is flipped too.  Drift of the survivor's float
    raises at its shadow check, and so does a level built from the
    vanishing side instead of the surviving one."""
    p = WellParams(Fraction(5, 2), 1, Fraction(1, 3))
    reflection_zero, image_root = plateau._reflection_zero, cyclotomic.image_root
    monkeypatch.setattr(plateau, "_reflection_zero", lambda *side: not reflection_zero(*side))
    assert detect_plateaux(p) == detect_by_cell(p)  # the exact test overrules it
    monkeypatch.setattr(plateau, "image_root", root_of_order_m_over(3))
    with pytest.raises(ExactFloatMismatch, match="reflection law disagrees"):
        detect_plateaux(p)
    monkeypatch.setattr(plateau, "image_root", image_root)
    is_zero, to_complex = CycInt.is_zero, CycInt.to_complex
    monkeypatch.setattr(CycInt, "is_zero", lambda z: not is_zero(z))
    with pytest.raises(ExactFloatMismatch, match="exact zero test disagrees"):
        detect_plateaux(p)
    monkeypatch.setattr(CycInt, "is_zero", is_zero)
    monkeypatch.setattr(plateau, "_reflection_zero", reflection_zero)
    # far below the old fixed 1e-9 tolerance, far above n w eps
    monkeypatch.setattr(CycInt, "to_complex", lambda z: to_complex(z) + 1e-12)
    with pytest.raises(ExactFloatMismatch, match="survivor shadow mismatch"):
        detect_plateaux(p)
    monkeypatch.setattr(CycInt, "to_complex", to_complex)
    side_sum = plateau._side_sum
    monkeypatch.setattr(plateau, "_side_sum", lambda members, order, rule, sign:
                        side_sum(members, order, rule, -sign))
    with pytest.raises(ExactFloatMismatch, match="survivor shadow mismatch"):
        detect_plateaux(p)


def test_build_cells_memory_is_linear_in_q():
    # members are ranges: a tuple per cell would hold about q^2 / lam ints
    tracemalloc.start()
    try:
        cells = build_cells.__wrapped__(Fraction(5, 2), 10001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cells) > 10001
    assert peak < 50 * 2**20


def test_no_term_table_outlives_the_detector():
    # a table holds about 12 MB at q = 50001; the detector builds one per
    # configuration and reads it in its cell loop only, so none is kept afterwards
    for tau in (Fraction(1, 2001), Fraction(2, 2001), Fraction(1, 3)):
        detect_plateaux(WellParams(Fraction(5, 2), 1, tau))
    gc.collect()
    assert not any(isinstance(obj, plateau._TermTable) for obj in gc.get_objects())


def detect_by_cell(params):
    """The all-exact detector loop detect_plateaux used to run, kept as its
    reference: both window sums built in Z[zeta_M] for every cell, each
    decided by the exact zero test and cross-checked against its float
    shadow, adjacent cells merged on the side and on equal survivors, so a
    merge that detect_plateaux no longer makes shows as a mismatch.  A level
    is (lam/q) |G(a, k, q)|^2 / q |survivor|^2 at a member k, the exact
    gauss_abs_sq standing for |c(k)|^2 of the unit-root survivor."""
    def checked_is_zero(z, cell):
        exact = z.is_zero()
        if exact != (abs(z.to_complex()) <= plateau._float_bound(len(cell.members))):
            raise ExactFloatMismatch(f"exact zero test disagrees with float shadow on {cell}")
        return exact

    verdicts, terms = [], term_table(params)
    for cell in build_cells(params.lam, params.q):
        s_plus, s_minus = window_sums(cell, terms)
        zp = checked_is_zero(s_plus, cell)
        zm = checked_is_zero(s_minus, cell)
        if zp and zm:
            verdicts.append((cell, SIDE_BOTH, CycInt(s_plus.order, ())))
        elif zp:
            verdicts.append((cell, SIDE_PLUS, s_minus))
        elif zm:
            verdicts.append((cell, SIDE_MINUS, s_plus))
        else:
            verdicts.append((cell, None, None))
    intervals = []
    i = 0
    while i < len(verdicts):
        cell, side, survivor = verdicts[i]
        if side is None:
            i += 1
            continue
        j = i
        while (
            j + 1 < len(verdicts)
            and verdicts[j + 1][1] == side
            and (verdicts[j + 1][2] - survivor).is_zero()
        ):
            j += 1
        if side == SIDE_BOTH:
            level = 0.0
        else:
            weight = gauss_abs_sq(params.a, cell.members[0], params.q) // params.q
            level = float(params.lam) / params.q * weight * abs(survivor.to_complex()) ** 2
        lo = cell_bounds(cell, params.lam, params.q)[0]
        hi = cell_bounds(verdicts[j][0], params.lam, params.q)[1]
        intervals.append(PlateauInterval(lo, hi, level, side))
        i = j + 1
    return PlateauReport(params, tuple(intervals), 2 * len(verdicts))


ORACLE_CASES = [g[:3] for g in GOLDEN_PLATEAUX] + [
    (Fraction(107, 10), 1, Fraction(2, 7)),
    (Fraction(107, 10), 2, Fraction(1, 12)),
    (Fraction(9, 4), 3, Fraction(1, 20)),
    (Fraction(7, 2), 1, Fraction(5, 8)),
    (Fraction(3, 2), 1, Fraction(1, 160)),
    (Fraction(5, 2), 1, Fraction(1, 997)),
    (Fraction(7, 3), 2, Fraction(1, 1000)),
]


# The 40 configurations of the benchmark's large-q workload at seed 0 (q 150
# to 960, order M 263 to 3840), written out so that these tests do not
# depend on the benchmark's code.
LARGE_Q_CASES = [
    (Fraction(lam), n_state, Fraction(tau))
    for lam, n_state, tau in [
        ("3/2", 1, "29/152"), ("5/2", 2, "89/164"), ("5/2", 1, "37/150"),
        ("5/2", 1, "127/151"), ("3/2", 3, "55/184"), ("7/6", 3, "15/158"),
        ("7/2", 1, "55/156"), ("3/2", 1, "137/180"), ("5/2", 2, "239/248"),
        ("4/3", 3, "79/162"), ("4/3", 3, "191/296"), ("3/2", 3, "103/224"),
        ("4/3", 3, "27/196"), ("5/2", 1, "199/216"), ("9/4", 1, "89/200"),
        ("3/2", 3, "25/154"), ("9/4", 1, "109/252"), ("7/6", 3, "51/232"),
        ("7/2", 1, "109/288"), ("11/4", 1, "95/168"), ("5/2", 2, "283/304"),
        ("9/4", 1, "162/211"), ("5/2", 2, "160/263"), ("5/4", 2, "87/155"),
        ("3/2", 1, "109/220"), ("9/4", 1, "233/257"), ("5/4", 2, "134/225"),
        ("7/2", 1, "181/230"), ("9/8", 1, "19/208"), ("5/2", 1, "127/270"),
        ("5/4", 2, "36/185"), ("5/2", 1, "307/336"), ("7/6", 3, "337/368"),
        ("11/4", 1, "176/331"), ("7/3", 1, "73/175"), ("5/2", 2, "113/198"),
        ("11/4", 1, "115/204"), ("3/2", 1, "39/272"), ("5/2", 2, "313/960"),
        ("7/2", 1, "179/190"),
    ]
]


@pytest.mark.parametrize("lam,n_state,tau", ORACLE_CASES + LARGE_Q_CASES)
def test_detector_matches_the_all_exact_cell_loop(lam, n_state, tau):
    p = WellParams(lam, n_state, tau)
    assert detect_plateaux(p) == detect_by_cell(p)


# plateaux --lambda 5/2 --N 1 at even q, with survivors of 284 and 1,388
# unit roots
EVEN_Q_LEVEL_CASES = [
    (Fraction(5, 2), 1, Fraction(1, 2000)),
    (Fraction(5, 2), 1, Fraction(1, 10000)),
]


@pytest.mark.parametrize("lam,n_state,tau", ORACLE_CASES + LARGE_Q_CASES + EVEN_Q_LEVEL_CASES)
def test_printed_levels_match_a_40_digit_evaluation(lam, n_state, tau):
    """Each printed level against (lam/q) |G(a, k, q)|^2 / q |S|^2, with S the
    exact survivor (survivors) summed by mpmath at 40 digits: within the
    relative 2 C (sum of |coefficients|) eps / |S| that the float bound
    allows |S|^2, plus the 12-digit rounding of the print.  Over the 30
    positive levels here, the unrounded level's error is at most 4.1e-3 of
    the float part, and the printed level's at most 0.63 of the whole, most
    of it rounding."""
    p = WellParams(lam, n_state, tau)
    weight = gauss_abs_sq(p.a, p.q // 2, p.q) // p.q  # k = q // 2 contributes for either parity
    report = detect_plateaux(p)
    with mpmath.workdps(40):
        for iv, z in zip(report.intervals, survivors(report)):
            printed = predictors._interval_json(iv)["level"]
            s = abs(mpmath.fsum(c * mpmath.expjpi(mpmath.mpf(2 * j) / z.order) for j, c in z.terms))
            if not s:
                assert printed == 0.0
                continue
            true = mpmath.mpf(lam.numerator) / (lam.denominator * p.q) * weight * s**2
            coefficients = sum(abs(c) for _, c in z.terms)
            rel = 2 * plateau.FLOAT_ERROR_C * coefficients * sys.float_info.epsilon / s + 5e-12
            assert abs(printed - true) <= rel * true


def test_every_zero_level_is_plus_zero():
    # the level of a forbidden zone is the literal 0.0, built from no sum; a
    # negative zero would print as -0.0, so its sign is checked as well
    cases = ORACLE_CASES + [PANELS[name] for name in ("frag-a", "frag-b", "frag-c")]
    levels = [iv.level for case in cases for iv in detect_plateaux(WellParams(*case)).intervals
              if iv.kind == ZERO_LEVEL]
    assert len(levels) > len(cases)
    assert all(level == 0.0 and math.copysign(1.0, level) == 1.0 for level in levels)


def report_facts(report):
    """Everything a report says, with each level as its bits, and the
    survivor each interval's side names."""
    return report.zero_checks, [
        (iv.lo, iv.hi, iv.vanishing_side, iv.level.hex(), z.order, z.terms)
        for iv, z in zip(report.intervals, survivors(report))
    ]


def test_the_galois_image_of_the_partner_is_the_detector_report():
    # every configuration the scan's orbit map derives, on a grid with q = 0,
    # 1, 2 and 3 (mod 4), 2 N lam odd and not, both regimes: the sigma_t image
    # of its source's report is its own detector report, bit for bit
    seen = set()
    for lam in [Fraction(3, 2), Fraction(5, 2), Fraction(7, 4), Fraction(9, 4),
                Fraction(4, 3), Fraction(5, 3), Fraction(11, 6), Fraction(107, 10)]:
        for q in range(2, 17):
            coprime = [a for a in range(1, q) if math.gcd(a, q) == 1]
            grid = [WellParams(lam, n_state, Fraction(a, q))
                    for n_state in range(1, 4) for a in coprime]
            reports = [detect_plateaux(params) for params in grid]
            w = lam.denominator * q // math.gcd(lam.numerator, q)
            for target, link in enumerate(galois_links(lam, q, 3)):
                if link is None:
                    continue
                source, t, sign = link
                derived = conjugate_report(reports[source], grid[target], t, sign)
                assert report_facts(derived) == report_facts(reports[target])
                sides = {iv.vanishing_side for iv in reports[target].intervals}
                seen |= {(q % 4, sign, side) for side in sides}
                if sides - {SIDE_BOTH}:
                    if grid[source].n_state != grid[target].n_state:
                        seen.add("across N")
                    elif t % math.lcm(q, w) not in (1, math.lcm(q, w) - 1):
                        seen.add("inside one N, t != +-1")
                    # sigma_t(sqrt(2)) = -sqrt(2) here, and the survivors,
                    # sums of unit roots, are matched with no sign of their own
                    if q % 2 == 0 and t % 8 in (3, 5):
                        seen.add("sqrt(2) flips sign")
    assert {(r, sign, side) for r in range(4) for sign in (1, -1)
            for side in (SIDE_PLUS, SIDE_MINUS, SIDE_BOTH)} <= seen
    assert {"across N", "inside one N, t != +-1", "sqrt(2) flips sign"} <= seen


def test_a_conjugate_report_needs_a_galois_partner():
    params = WellParams(Fraction(5, 2), 1, Fraction(2, 3))
    partner = detect_plateaux(WellParams(Fraction(5, 2), 1, Fraction(1, 3)))
    assert conjugate_report(partner, params, -1, -1).params == params
    for other in [Fraction(2, 3), Fraction(1, 6)]:
        with pytest.raises(ValueError, match="is not the image of"):
            conjugate_report(detect_plateaux(WellParams(Fraction(5, 2), 1, other)), params, -1, -1)
    for mate, t, sign in [
        (WellParams(Fraction(5, 2), 2, Fraction(1, 3)), -1, -1),  # t N != sign N' (mod W)
        (WellParams(Fraction(7, 2), 1, Fraction(1, 3)), -1, -1),  # another lam
        (partner.params, -1, 1),   # the wrong sign
        (partner.params, 7, 1),    # 7 a' != a (mod q)
        (partner.params, 3, -1),   # not a unit
        (partner.params, -1, 0),   # not a sign
    ]:
        with pytest.raises(ValueError, match="is not the image of"):
            conjugate_report(detect_plateaux(mate), params, t, sign)
    with pytest.raises(ValueError, match="is not the image of"):  # a cell left undecided
        conjugate_report(dataclasses.replace(partner, zero_checks=partner.zero_checks - 2),
                         params, -1, -1)


def test_a_partner_survivor_that_is_not_conjugate_raises(monkeypatch):
    """The partner's rule B moved by one, for the partner only, moves its
    exponent at k by k, so j'(k) - t j(k) differs between the members of the
    interval's first cell: a check at its first member alone would pass."""
    for lam, partner_tau, tau, t, sign in [
        (Fraction(5, 2), Fraction(1, 3), Fraction(2, 3), -1, -1),  # complex conjugation
        (Fraction(3, 2), Fraction(1, 9), Fraction(4, 9), 7, 1),    # W = 6, 7 = 1 (mod 6)
    ]:
        mate, params = WellParams(lam, 1, partner_tau), WellParams(lam, 1, tau)
        partner = detect_plateaux(mate)
        assert conjugate_report(partner, params, t, sign) == detect_plateaux(params)

        def bent(p, rule=exponent_rule, mate=mate):
            order, a, b = rule(p)
            return (order, a, (b + 1) % order) if p == mate else (order, a, b)

        monkeypatch.setattr(plateau, "exponent_rule", bent)
        with pytest.raises(ArithmeticError, match=f"sigma_{t} image"):
            conjugate_report(partner, params, t, sign)
        monkeypatch.setattr(plateau, "exponent_rule", exponent_rule)


@st.composite
def default_grid_params(draw):
    """A configuration of the default scan grid: lam = u/v with v <= 8 and
    1 < lam <= 6, a reduced a/q with q <= 20, N <= 3."""
    v = draw(st.integers(1, 8))
    lam = Fraction(draw(st.integers(v + 1, 6 * v)), v)
    q = draw(st.integers(1, 20))
    a = draw(st.sampled_from([a for a in range(q) if math.gcd(a, q) == 1]))
    return WellParams(lam, draw(st.integers(1, 3)), Fraction(a, q))


@settings(max_examples=150, deadline=None)
@given(default_grid_params())
def test_detector_matches_the_cell_loop_on_the_default_grid(p):
    assert detect_plateaux(p) == detect_by_cell(p)


def root_of_order_m_over(prime):
    """An image_root whose root has order M / prime, for an order M that prime
    divides: the image map is no longer a ring map.  The term table holds the
    images, so a detector run patched with it builds its table with this
    root."""
    image_root = cyclotomic.image_root

    def bad_root(m):
        ell, r = image_root(m)
        return ell, pow(r, prime, ell)

    return bad_root


def test_image_root_of_wrong_order_raises_never_flips(monkeypatch):
    """With a root of order M/p a vanishing sum may get a nonzero image,
    which its float shadow refutes, and a nonzero sum may get a zero image,
    which the exact test overrules.  Either way no verdict changes."""
    image_root = cyclotomic.image_root
    raised = set()
    for case in ORACLE_CASES:
        p = WellParams(*case)
        expected = detect_plateaux(p)
        for prime in cyclotomic._prime_factors(exponent_rule(p)[0]):
            monkeypatch.setattr(plateau, "image_root", root_of_order_m_over(prime))
            try:
                assert detect_plateaux(p) == expected
            except ExactFloatMismatch as err:
                assert "image" in str(err)
                raised.add((*case, prime))
            finally:
                monkeypatch.setattr(plateau, "image_root", image_root)
    # order M/2 sends the odd-q zeros zeta^j + zeta^(j + M/2) to 2 r^j
    assert {
        (Fraction(5, 2), 1, Fraction(1, 3), 2),
        (Fraction(3, 2), 1, Fraction(5, 3), 2),
        (Fraction(5, 2), 1, Fraction(1, 997), 2),
    } <= raised


# lam = 2.00000000000001 at q = 1001: the order is M = 1001 * 10^14
LARGE_ORDER_CASE = (Fraction("2.00000000000001"), 1, Fraction(1, 1001))


@pytest.fixture
def off_by_one_rule(monkeypatch):
    """Patch the exponent rule (A, B) of every term table built from here on
    to (A + da, B + db) modulo its order M."""

    def patch(da, db):
        def rule(params):
            order, a, b = exponent_rule(params)
            return order, (a + da) % order, (b + db) % order

        monkeypatch.setattr(plateau, "exponent_rule", rule)

    return patch


def test_member_terms_exponent_off_by_one_raises(off_by_one_rule):
    """A rule off by one in A or in B fails the exact exponent check for any
    M, up to M = 1001 * 10^14, where it moves a root by as little as
    2 pi / M."""
    assert exponent_rule(WellParams(*LARGE_ORDER_CASE))[0] == 1001 * 10**14
    for da, db in [(1, 0), (0, 1), (0, -1)]:
        off_by_one_rule(da, db)
        for case in ORACLE_CASES + [LARGE_ORDER_CASE]:
            with pytest.raises(ExactFloatMismatch, match="exponent rule"):
                detect_plateaux(WellParams(*case))


def test_member_terms_exponent_outside_every_cell_raises(off_by_one_rule):
    """k = -3 at lam = 5/2, tau = 1/5 lies outside every window over
    [0, 1/2], so no cell holds it; the table holds it as the mirror of k = 3
    and checks it first."""
    p = WellParams(Fraction(5, 2), 1, Fraction(1, 5))
    assert term_table(p).ks[0] == -3
    assert all(-3 not in cell.members for cell in build_cells(p.lam, p.q))
    off_by_one_rule(0, 1)
    with pytest.raises(ExactFloatMismatch, match="off at k = -3$"):
        detect_plateaux(p)


def test_member_terms_float_check_is_per_term(monkeypatch):
    """With no float slack at all, the per-term check fails: the roots
    rect(1, 2 pi e / M) from the rule differ from the direct floats in their
    last bits."""
    monkeypatch.setattr(plateau, "FLOAT_ERROR_C", 0)
    with pytest.raises(ExactFloatMismatch, match="term shadow"):
        term_table(WellParams(Fraction(5, 2), 1, Fraction(1, 997)))


def reference_exponents(params, ks):
    """Per side, the exponents x in [0, 1) of the unit roots
    c(k) e(+-N lam k / q) / |c(k)| = e(x) for k in ks, as Fractions, from the
    closed forms of c(k): inv(4a) k^2 / q for odd q, inv(a) k^2 / (4q) for
    even q, with the inverses mod q."""
    a, q = params.a, params.q
    if q % 2:
        coeff = [Fraction(pow(4 * a, -1, q) * k * k, q) for k in ks]
    else:
        coeff = [Fraction(pow(a, -1, q) * k * k, 4 * q) for k in ks]
    return [[(c + sign * params.n_lam * k / q) % 1 for c, k in zip(coeff, ks)]
            for sign in (1, -1)]


@pytest.mark.parametrize("lam,n_state,tau", ORACLE_CASES + LARGE_Q_CASES)
def test_integer_shadows_match_the_float_slice_sums(lam, n_state, tau):
    # worst seen over these 53 configurations: 3.4 n eps between a cell's
    # shadow of n terms, plus or mirrored slice, and the float sum of its
    # reference terms (13.2 n eps over the default grid, 1 < lam <= 6 with
    # v <= 8, q <= 20, N <= 3),
    # against the detector's bound of 128 n eps; and 4.3 eps between a
    # term's float from the rule exponent and its reference term (the same
    # over the default grid), against the per-term bound of 128 eps
    p = WellParams(lam, n_state, tau)
    terms = term_table(p)
    order, (a, b), scale = terms.order, terms.rule, plateau.SHADOW_SCALE
    s_re, s_im = terms.shadows
    references = []
    for sign, side in zip((1, -1), reference_exponents(p, terms.ks)):
        rule = [(a * k * k + sign * b * k) % order for k in terms.ks]
        assert [Fraction(j, order) for j in rule] == side
        reference = [cmath.exp(2j * math.pi * float(x)) for x in side]
        from_rule = [cmath.rect(1.0, 2 * math.pi * j / order) for j in rule]
        worst = np.abs(np.subtract(from_rule, reference)).max(initial=0.0)
        assert worst <= 16 * sys.float_info.epsilon
        references.append(reference)
    # the plus slice and its mirror against the plus and minus terms of the members
    for cell in build_cells(p.lam, p.q):
        slices = plateau._side_slices(cell.members, terms.ks)
        i0, i1 = slices[0]
        for (j0, j1), reference in zip(slices, references):
            shadow = complex((s_re[j1] - s_re[j0]) / scale, (s_im[j1] - s_im[j0]) / scale)
            tol = 8 * (j1 - j0) * sys.float_info.epsilon
            assert abs(shadow - sum(reference[i0:i1], 0j)) <= tol


# q = 1 (one term, k = 0), q = 2 (two terms, k = -1, 1), q = 4 and the order
# M = 1001 * 10^8
SMALL_TABLE_CASES = [
    (Fraction(2), 1, Fraction(0)),
    (Fraction(3, 2), 1, Fraction(1, 2)),
    (Fraction(5, 2), 1, Fraction(1, 4)),
    (Fraction("2.00000001"), 1, Fraction(1, 1001)),
]


def test_image_prefixes_match_pow():
    # both parities of q, tables of 1 and 2 terms, and the order M = 1001 * 10^8
    parities, lengths = set(), set()
    for case in ORACLE_CASES + LARGE_Q_CASES + SMALL_TABLE_CASES:
        p = WellParams(*case)
        terms = term_table(p)
        parities.add(p.q % 2)
        lengths.add(len(terms.ks))
        ell, root = cyclotomic.image_root(terms.order)
        assert ell == terms.ell
        plus, minus = reference_exponents(p, terms.ks)
        assert minus == plus[::-1]  # the minus term at k is the plus term at -k
        exponents = [x * terms.order for x in plus]
        assert all(j.denominator == 1 for j in exponents)
        powers = (pow(root, j.numerator, ell) for j in exponents)
        assert terms.images == list(accumulate(powers, initial=0))
    assert parities == {0, 1} and {1, 2} <= lengths


def test_term_table_ks_are_symmetric():
    """ks = -R..R holds every k of the cells and, with each k, -k: the
    mirror of any cell's members lies in the table.  R is the last member of
    the cells, which drops a contributing k whose window meets [0, 1/2] only
    at x = 1/2 (lam = 3, q = 3: k = 2), as no open cell holds it."""
    parities, dropped = set(), 0
    edge_case = (Fraction(3), 1, Fraction(1, 3))
    for case in ORACLE_CASES + LARGE_Q_CASES + SMALL_TABLE_CASES + [edge_case]:
        p = WellParams(*case)
        ks = term_table(p).ks
        parities.add(p.q % 2)
        assert list(ks) == [-k for k in reversed(ks)]
        members = {k for cell in build_cells(p.lam, p.q) for k in cell.members}
        assert members <= set(ks) and ks[-1] == max(members)
        contributing = plateau._contributing_ks(p.lam, p.q)
        assert set(contributing) - set(ks) <= {contributing[-1]}
        dropped += contributing[-1] not in ks
    assert parities == {0, 1} and dropped


def test_image_primes_fit_one_cpython_digit():
    """ell < 2^30, one 30-bit CPython digit, for every order of the default
    scan grid (lambda = u/v with v <= 8 up to 6, q <= 20, N <= 3; the order
    does not depend on a) and of plateaux --lambda 5/2 --N 1 --tau 1/q at
    large q, so the image arithmetic mod ell stays on one-digit ints."""
    orders = {
        exponent_rule(WellParams(lam, n_state, Fraction(1, q)))[0]
        for lam in predictors._lambda_grid(8, Fraction(6))
        for q in range(2, 21) if lam < fragmentation_threshold(q)
        for n_state in (1, 2, 3)
    }
    orders |= {exponent_rule(WellParams(Fraction(5, 2), 1, Fraction(1, q)))[0]
               for q in (10001, 20001, 199999)}
    assert len(orders) > 80
    assert all(cyclotomic.image_root(order)[0] < 2**30 for order in orders)


def test_every_vanishing_image_is_a_reflection_zero(monkeypatch):
    """On the oracle cases, the golden plateaux among them, every side whose
    image in F_ell vanishes is a reflection zero, so the exact test, the
    fallback, never runs."""
    reflection_zero, verdicts, fallbacks = plateau._reflection_zero, [], []

    def recording(*side):
        verdicts.append(reflection_zero(*side))
        return verdicts[-1]

    monkeypatch.setattr(plateau, "_reflection_zero", recording)
    monkeypatch.setattr(CycInt, "is_zero", lambda z: fallbacks.append(z))
    for case in ORACLE_CASES:
        detect_plateaux(WellParams(*case))
    assert verdicts and all(verdicts) and fallbacks == []


def test_false_zero_images_fall_back_to_the_exact_test(monkeypatch):
    """With a root of order M/p, p an odd prime of M, every reflection zero
    still has a zero image (r^(M/2) = -1), and some nonzero sides get one
    too.  The reflection congruences fail on those, the exact test answers
    False, and each report is still the all-exact cell loop's."""
    is_zero, fallbacks = CycInt.is_zero, []

    def recording(z):
        fallbacks.append(is_zero(z))
        return fallbacks[-1]

    for case in ORACLE_CASES:
        p = WellParams(*case)
        expected = detect_by_cell(p)
        for prime in [f for f in cyclotomic._prime_factors(exponent_rule(p)[0]) if f > 2]:
            monkeypatch.setattr(plateau, "image_root", root_of_order_m_over(prime))
            monkeypatch.setattr(CycInt, "is_zero", recording)
            assert detect_plateaux(p) == expected
            monkeypatch.setattr(CycInt, "is_zero", is_zero)
    assert (len(fallbacks), any(fallbacks)) == (1022, False)


def reflection_verdicts(params):
    """(exact, law) for both sides of every cell.  exact: the side's sum
    vanishes, certified nonzero by a nonzero F_ell image and otherwise decided
    by the exact zero test.  law: the detector's reflection verdict
    (plateau._reflection_zero), the window empty or the reflection
    congruences holding."""
    terms = term_table(params)
    m, images = terms.order, terms.images
    verdicts = []
    for cell in build_cells(params.lam, params.q):
        members = cell.members
        for sign, (j0, j1) in zip((1, -1), plateau._side_slices(members, terms.ks)):
            exact = (not (images[j1] - images[j0]) % terms.ell
                     and plateau._side_sum(members, m, terms.rule, sign).is_zero())
            verdicts.append((exact, plateau._reflection_zero(members, m, terms.rule, sign)))
    return verdicts


def reflection_grid(q_max=12):
    """Every configuration with lam = u/v, v <= 8, 1 < lam <= 6, q <= q_max
    and N <= 3, fragmentation included: 15,180 of them for q_max = 12."""
    lams = sorted({Fraction(u, v) for v in range(1, 9) for u in range(v + 1, 6 * v + 1)})
    return [WellParams(lam, n_state, Fraction(a, q)) for lam in lams for q in range(1, q_max + 1)
            for a in range(q) if math.gcd(a, q) == 1 for n_state in (1, 2, 3)]


@pytest.mark.parametrize("cases,zeros,sides", [
    ([WellParams(*case) for case in ORACLE_CASES + LARGE_Q_CASES], 48, 12_996),
    (reflection_grid(), 12_084, 225_240),
], ids=["oracle-cases", "small-grid"])
def test_a_side_vanishes_exactly_when_it_is_a_reflection(cases, zeros, sides):
    """The reflection law of every zero the detector has met, as an exact
    oracle: a side's sum is zero iff the reflection congruences hold."""
    verdicts = [v for params in cases for v in reflection_verdicts(params)]
    assert [v for v in verdicts if v[0] != v[1]] == []
    assert (sum(exact for exact, _ in verdicts), len(verdicts)) == (zeros, sides)


def closed_form_zero(params, members, sign):
    """Whether S_plus (sign 1) or S_minus (sign -1) vanishes on a window by
    the closed forms for an odd m = 2 N lam: always on an empty window; else,
    with n members, the first k0, the last k1 and c = k0 + k1, iff n is even
    and, for odd q, c = -+2 a m (mod q), or, for even q, x = A c +- 2 m, with
    A the lifted inverse of coefficient_exponent, has x = 0 (mod q) and x / q
    odd."""
    if not members:
        return True
    if len(members) % 2:
        return False
    c, m, q = members[0] + members[-1], (2 * params.n_lam).numerator, params.q
    if q % 2:
        return (c + sign * 2 * params.a * m) % q == 0
    x = coefficient_exponent(params.a, q)[0] * c + sign * 2 * m
    return x % q == 0 and x // q % 2 == 1


def test_closed_forms_are_the_reflection_law_and_select_the_predicted_interval():
    """Over reflection_grid(16) with 2 N lam odd, fragmentation included, each
    side vanishes by closed_form_zero iff the reflection congruences hold.
    Below the threshold the cells where a side vanishes are consecutive, and
    their closure is exactly nonfrag_prediction's [lo, hi]."""
    configs = predicted = sides = zeros = 0
    for params in reflection_grid(16):
        if not predictors.doubled_drift_is_odd(params):
            continue
        order, *rule = exponent_rule(params)
        cells = build_cells(params.lam, params.q)
        selected = []
        for cell in cells:
            closed = [closed_form_zero(params, cell.members, sign) for sign in (1, -1)]
            assert closed == [plateau._reflection_zero(cell.members, order, rule, sign)
                              for sign in (1, -1)]
            zeros += sum(closed)
            if any(closed):
                selected.append(cell)
        configs, sides = configs + 1, sides + 2 * len(cells)
        if params.lam < params.threshold:
            prediction = predictors.nonfrag_prediction(params)
            den = 2 * params.lam.numerator * params.q
            assert all(left.x1 == right.x0 for left, right in zip(selected, selected[1:]))
            assert ((Fraction(selected[0].x0, den), Fraction(selected[-1].x1, den))
                    == (prediction.lo, prediction.hi))
            predicted += 1
    assert (configs, predicted, sides, zeros) == (2400, 2124, 43_452, 3340)


def test_image_tables_stay_linear_in_the_terms_for_a_large_denominator():
    """lam = 2.00000001 at q = 1001 has the order M = 1001 * 10^8: a table
    of the powers of the root would be huge next to the 2,002 exponents, and
    the detector's peak stays small.  The report is the cell loop's."""
    p = WellParams(Fraction("2.00000001"), 1, Fraction(1, 1001))
    assert exponent_rule(p)[0] == 1001 * 10**8
    tracemalloc.start()
    try:
        report = detect_plateaux(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert report == detect_by_cell(p)
