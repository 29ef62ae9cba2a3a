"""Exact plateau detection.

The density at a fractional time is piecewise analytic on the open cells cut
out of (0, 1/2) by the singular points where the window I(x) gains or loses
a contributing integer.  For lam = u/v these points are k/q +- 1/(2 lam),
which all lie on the lattice 1/(2uq) with numerators 2uk +- vq; the cells are
built from those integers, and each cell's members come from its two integer
endpoints.  On each cell the two windowed sums

    S_pm = sum_{k in I} c(k) e(+-N lam k / q)

are constants, and the density is constant on the cell iff one of them
vanishes, with level (lam/q) |other|^2.  Both sums live in Z[zeta_M] with
M = q s for odd q and M = lcm(8, 4q, q s) for even q, s the reduced
denominator of N lam, so the criterion is decided by the exact cyclotomic
zero test; every exact verdict is cross-checked against the float shadow and
a disagreement raises.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import CycInt
from .gauss import coefficient_exponent, contributing
from .wavefield import WellParams, window

ZERO_LEVEL = "zero"
POSITIVE_LEVEL = "positive"

SIDE_PLUS = "plus"
SIDE_MINUS = "minus"
SIDE_BOTH = "both"

# A window sum of n terms of modulus w (sqrt(2) for even q, else 1) may be off
# by C n w eps in floats: the worst seen on the default scan is 9.5 n w eps, and
# its smallest nonzero |S| (9.2e-3) is far above the bound.
FLOAT_ERROR_C = 128


class ExactFloatMismatch(RuntimeError):
    """The exact zero test and the float shadow disagreed; this would mean a
    corrupted coefficient path and must never be silently ignored."""


@dataclass(frozen=True)
class Cell:
    """Open interval between consecutive singular points, with the integers
    of the window (zero-coefficient k already dropped for even q)."""

    lo: Fraction
    hi: Fraction
    members: tuple[int, ...]


@dataclass(frozen=True)
class PlateauInterval:
    lo: Fraction
    hi: Fraction
    level: float
    level_exact: CycInt  # the surviving windowed sum; all-zero for forbidden zones
    kind: str            # ZERO_LEVEL or POSITIVE_LEVEL
    vanishing_side: str  # SIDE_PLUS, SIDE_MINUS or SIDE_BOTH


@dataclass(frozen=True)
class PlateauReport:
    params: WellParams
    intervals: tuple[PlateauInterval, ...]
    fragmentation: bool
    zero_checks: int = 0  # exact-vs-float agreements verified while detecting


def _window_at(num: int, den: int, lam: Fraction, q: int) -> range:
    """Contributing integers of the window at x = num/den, exactly."""
    return contributing(window(num, den, lam, q), q)


def _contributing_ks(lam: Fraction, q: int) -> range:
    """The contributing k whose window meets [0, 1/2]."""
    return contributing(range(window(0, 1, lam, q).start, window(1, 2, lam, q).stop), q)


@lru_cache(maxsize=4096)
def build_cells(lam: Fraction, q: int) -> tuple[Cell, ...]:
    """Partition (0, 1/2) into cells of constant window membership.

    Works on the lattice x = X / (2uq), lam = u/v: the contributing k (every
    k for odd q, k = q/2 (mod 2) for even q) put window edges at
    X = 2uk +- vq, and the open cell (X0, X1) holds exactly the k with
    2uk - vq <= X0 and X1 <= 2uk + vq.  Each cell is validated at its
    midpoint and both quarter points; only the reported endpoints are
    Fractions.
    """
    u, v = lam.numerator, lam.denominator
    den, half = 2 * u * q, u * q
    edges = {2 * u * k + sign * v * q for k in _contributing_ks(lam, q) for sign in (1, -1)}
    bounds = [0, *sorted(x for x in edges if 0 < x < half), half]
    cells = []
    for x0, x1 in zip(bounds, bounds[1:]):
        members = contributing(
            range(window(x1, den, lam, q).start, window(x0, den, lam, q).stop), q
        )
        if (
            _window_at(x0 + x1, 2 * den, lam, q) != members
            or _window_at(3 * x0 + x1, 4 * den, lam, q) != members
            or _window_at(x0 + 3 * x1, 4 * den, lam, q) != members
        ):
            raise ValueError(
                f"corrupt cell ({Fraction(x0, den)}, {Fraction(x1, den)}):"
                " window membership is not constant"
            )
        cells.append(Cell(Fraction(x0, den), Fraction(x1, den), tuple(members)))
    return tuple(cells)


def singular_points(lam: Fraction, q: int) -> list[Fraction]:
    """The x in (0, 1/2) where a window edge crosses a contributing integer,
    exactly: the inner cell boundaries of build_cells, x = (2uk +- vq)/(2uq)."""
    return [cell.hi for cell in build_cells(lam, q)[:-1]]


def cyclotomic_order(params: WellParams) -> int:
    """Common order housing every term of both windowed sums: q s for odd q;
    even q also needs the modulus 4q and zeta_8 for sqrt(2) = zeta_8 + zeta_8^7."""
    if params.q % 2:
        return params.q * params.s
    return math.lcm(8, 4 * params.q, params.q * params.s)


def _float_bound(cell: Cell, params: WellParams) -> float:
    weight = 1.0 if params.q % 2 else math.sqrt(2.0)
    return FLOAT_ERROR_C * len(cell.members) * weight * sys.float_info.epsilon


@lru_cache(maxsize=16)
def _member_terms(params: WellParams) -> tuple[int, dict[int, tuple]]:
    """(M, table): table maps every k of build_cells to the exponents in
    Z[zeta_M] of c(k) e(+N lam k / q) and of c(k) e(-N lam k / q), and to
    both as floats.

    Exponent bookkeeping is pure integer arithmetic: the coefficient
    contributes (inv k^2 mod modulus) / modulus from gauss.coefficient_exponent,
    times sqrt(2) = zeta_8 + zeta_8^7 for even q, and the drift factor
    contributes (+- n k mod s q) / (s q) with N lam = n / s reduced.  The
    floats come from the unscaled fractional exponents, so comparing them
    with the exact sums exercises the order-M index arithmetic as well.
    """
    q = params.q
    order = cyclotomic_order(params)
    drift_num, sq = params.n_lam.numerator, params.s * q
    inv, modulus = coefficient_exponent(params.a, q)
    shifts = (0,) if q % 2 else (order // 8, -order // 8)
    weight = 1.0 if q % 2 else math.sqrt(2.0)
    table = {}
    for k in _contributing_ks(params.lam, q):
        coeff_num = (inv * k * k) % modulus
        drift_mod = (drift_num * k) % sq
        j_coeff, j_drift = coeff_num * (order // modulus), drift_mod * (order // sq)
        coeff_frac, drift_frac = coeff_num / modulus, drift_mod / sq
        table[k] = (
            [(j_coeff + j_drift + t) % order for t in shifts],
            [(j_coeff - j_drift + t) % order for t in shifts],
            weight * cmath.exp(2j * math.pi * (coeff_frac + drift_frac)),
            weight * cmath.exp(2j * math.pi * (coeff_frac - drift_frac)),
        )
    return order, table


def window_sums(cell: Cell, params: WellParams) -> tuple[CycInt, CycInt]:
    """Assemble (S_plus, S_minus) for the cell exactly in Z[zeta_M] from the
    terms of its members (see _member_terms).  The float shadow of each
    assembled sum is compared against a direct complex summation.
    """
    mid = cell.lo + cell.hi
    num, den = mid.numerator, mid.denominator
    members = tuple(_window_at(num, 2 * den, params.lam, params.q))
    if not 0 <= num <= den or members != cell.members:
        raise ValueError(
            f"corrupt cell {cell}: outside [0, 1/2] or members do not match its midpoint window"
        )
    order, table = _member_terms(params)
    plus: dict[int, int] = {}
    minus: dict[int, int] = {}
    shadow_plus = shadow_minus = 0j
    for k in cell.members:
        terms_plus, terms_minus, direct_plus, direct_minus = table[k]
        for j in terms_plus:
            plus[j] = plus.get(j, 0) + 1
        for j in terms_minus:
            minus[j] = minus.get(j, 0) + 1
        shadow_plus += direct_plus
        shadow_minus += direct_minus

    s_plus = CycInt(order, sorted(plus.items()))
    s_minus = CycInt(order, sorted(minus.items()))
    bound = _float_bound(cell, params)
    if (
        abs(s_plus.to_complex() - shadow_plus) > bound
        or abs(s_minus.to_complex() - shadow_minus) > bound
    ):
        raise ExactFloatMismatch(f"window sum shadow mismatch for {params} on {cell}")
    return s_plus, s_minus


def _checked_is_zero(z: CycInt, params: WellParams, cell: Cell) -> bool:
    exact = z.is_zero()
    if exact != (abs(z.to_complex()) <= _float_bound(cell, params)):
        raise ExactFloatMismatch(
            f"exact zero test disagrees with float shadow for {params} on {cell}"
        )
    return exact


@dataclass
class _CellVerdict:
    cell: Cell
    qualifies: bool
    side: str = SIDE_BOTH
    survivor: CycInt | None = None


def detect_plateaux(params: WellParams) -> PlateauReport:
    """Classify every cell by the exact criterion and assemble the maximal
    constant-density intervals.

    Adjacent qualifying cells merge only when the vanishing side matches and
    the surviving sums are exactly equal as cyclotomic integers; reported
    intervals are closures, clipped to [0, 1/2].
    """
    lam, q = params.lam, params.q
    threshold = params.threshold
    fragmentation = lam > threshold

    verdicts: list[_CellVerdict] = []
    checks = 0
    for cell in build_cells(lam, q):
        s_plus, s_minus = window_sums(cell, params)
        zp = _checked_is_zero(s_plus, params, cell)
        zm = _checked_is_zero(s_minus, params, cell)
        checks += 2
        if zp and zm:
            verdicts.append(_CellVerdict(cell, True, SIDE_BOTH, CycInt.zero(s_plus.order)))
        elif zp:
            verdicts.append(_CellVerdict(cell, True, SIDE_PLUS, s_minus))
        elif zm:
            verdicts.append(_CellVerdict(cell, True, SIDE_MINUS, s_plus))
        else:
            verdicts.append(_CellVerdict(cell, False))

    intervals: list[PlateauInterval] = []
    i = 0
    while i < len(verdicts):
        v = verdicts[i]
        if not v.qualifies:
            i += 1
            continue
        j = i
        while (
            j + 1 < len(verdicts)
            and verdicts[j + 1].qualifies
            and verdicts[j + 1].side == v.side
            and verdicts[j + 1].survivor.equals(v.survivor)
        ):
            j += 1
        lo = verdicts[i].cell.lo
        hi = verdicts[j].cell.hi
        kind = ZERO_LEVEL if v.side == SIDE_BOTH else POSITIVE_LEVEL
        level = _level(kind, v.survivor, params)
        intervals.append(PlateauInterval(lo, hi, level, v.survivor, kind, v.side))
        i = j + 1

    return PlateauReport(params, tuple(intervals), fragmentation, checks)


def _level(kind: str, survivor: CycInt, params: WellParams) -> float:
    if kind == ZERO_LEVEL:
        return 0.0
    return float(params.lam) / params.q * abs(survivor.to_complex()) ** 2


def plateau_level(interval: PlateauInterval, params: WellParams) -> float:
    """(lam/q) |surviving sum|^2; exactly 0.0 for forbidden zones."""
    return _level(interval.kind, interval.level_exact, params)
