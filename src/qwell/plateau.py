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
M = lcm(8, 4q, q s), s the reduced denominator of N lam, so the criterion is
decided by the exact cyclotomic zero test; every exact verdict is
cross-checked against the float shadow and a disagreement raises.
"""
from __future__ import annotations

import cmath
import math
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

FLOAT_ZERO_TOL = 1e-9


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
    ks = contributing(range(window(0, 1, lam, q).start, window(1, 2, lam, q).stop), q)
    edges = {2 * u * k + sign * v * q for k in ks for sign in (1, -1)}
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
    """Common order housing every term of both windowed sums."""
    return math.lcm(8, 4 * params.q, params.q * params.s)


def window_sums(cell: Cell, params: WellParams) -> tuple[CycInt, CycInt]:
    """Assemble (S_plus, S_minus) for the cell exactly in Z[zeta_M].

    Exponent bookkeeping is pure integer arithmetic: the coefficient
    contributes (inv k^2 mod modulus) / modulus from gauss.coefficient_exponent,
    times sqrt(2) for even q, and the drift factor contributes
    (+- n k mod s q) / (s q) with N lam = n / s reduced.  The float shadow of
    each assembled sum is compared against a direct complex summation.
    """
    a, q = params.a, params.q
    mid = cell.lo + cell.hi
    if tuple(_window_at(mid.numerator, 2 * mid.denominator, params.lam, q)) != cell.members:
        raise ValueError(f"corrupt cell {cell}: members do not match its midpoint window")
    order = cyclotomic_order(params)
    n_lam = params.n_lam
    s = n_lam.denominator
    drift_scale = order // (s * q)
    drift_num = n_lam.numerator
    odd = q % 2 == 1
    inv, modulus = coefficient_exponent(a, q)
    coeff_scale = order // modulus
    weight = 1.0 if odd else math.sqrt(2.0)
    eighth = order // 8

    plus = [0] * order
    minus = [0] * order
    shadow_plus = 0j
    shadow_minus = 0j
    for k in cell.members:
        coeff_num = (inv * k * k) % modulus
        j_coeff = coeff_num * coeff_scale
        coeff_frac = coeff_num / modulus
        drift_mod = (drift_num * k) % (s * q)
        j_drift = drift_mod * drift_scale
        drift_frac = drift_mod / (s * q)
        jp = (j_coeff + j_drift) % order
        jm = (j_coeff - j_drift) % order
        if odd:
            plus[jp] += 1
            minus[jm] += 1
        else:
            plus[(jp + eighth) % order] += 1
            plus[(jp + 7 * eighth) % order] += 1
            minus[(jm + eighth) % order] += 1
            minus[(jm + 7 * eighth) % order] += 1
        # shadow from the unscaled fractional exponents, so the comparison
        # exercises the order-M index arithmetic as well
        shadow_plus += weight * cmath.exp(2j * math.pi * (coeff_frac + drift_frac))
        shadow_minus += weight * cmath.exp(2j * math.pi * (coeff_frac - drift_frac))

    s_plus = CycInt(order, tuple(plus))
    s_minus = CycInt(order, tuple(minus))
    if (
        abs(s_plus.to_complex() - shadow_plus) > FLOAT_ZERO_TOL
        or abs(s_minus.to_complex() - shadow_minus) > FLOAT_ZERO_TOL
    ):
        raise ExactFloatMismatch(f"window sum shadow mismatch for {params} on {cell}")
    return s_plus, s_minus


def _checked_is_zero(z: CycInt, params: WellParams, cell: Cell) -> bool:
    exact = z.is_zero()
    if exact != (abs(z.to_complex()) < FLOAT_ZERO_TOL):
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
    survivor_key: tuple[int, ...] = ()


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
            zero = CycInt.zero(s_plus.order)
            verdicts.append(_CellVerdict(cell, True, SIDE_BOTH, zero, zero.reduced()))
        elif zp:
            verdicts.append(_CellVerdict(cell, True, SIDE_PLUS, s_minus, s_minus.reduced()))
        elif zm:
            verdicts.append(_CellVerdict(cell, True, SIDE_MINUS, s_plus, s_plus.reduced()))
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
            and verdicts[j + 1].survivor_key == v.survivor_key
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
