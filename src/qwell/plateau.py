"""Exact plateau detection.

The density at a fractional time is piecewise analytic on the open cells cut
out of (0, 1/2) by the singular points where the window I(x) gains or loses
a contributing integer.  For lam = u/v these points are k/q +- 1/(2 lam),
which all lie on the lattice 1/(2uq) with numerators 2uk +- vq; the cells are
built from those integers, and each cell's members, a range of k, come from
its two integer endpoints.  On each cell the two windowed sums

    S_pm = sum_{k in I} c(k) e(+-N lam k / q)

are constants, and the density is constant on the cell iff one of them
vanishes, with level (lam/q) |other|^2.  Both sums live in Z[zeta_M] with
M = q s for odd q and M = lcm(8, 4q, q s) for even q, s the reduced
denominator of N lam, so the criterion is decided exactly.  A nonzero
verdict is certified by the image of the sum under the ring map
Z[zeta_M] -> F_ell, zeta_M -> r (cyclotomic.image_root), read in O(1) per
cell from prefix sums of the term images; only a sum whose image vanishes
is built in Z[zeta_M], and a zero verdict comes only from the exact
cyclotomic zero test.  Every verdict is cross-checked against the float
shadow, read in O(1) per cell as well from exact prefix sums of the float
terms rounded to multiples of 2^-60, and a disagreement raises, so the
detector is linear in the number of cells and terms.
"""
from __future__ import annotations

import cmath
import math
import sys
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .cyclotomic import CycInt, image_root
from .gauss import coefficient_exponent, contributing
from .wavefield import WellParams, window

ZERO_LEVEL = "zero"
POSITIVE_LEVEL = "positive"

SIDE_PLUS = "plus"
SIDE_MINUS = "minus"
SIDE_BOTH = "both"

# A window sum of n terms of modulus w may be off by C n w eps in floats: the
# worst seen on the default scan is 9.5 n w eps, and its smallest nonzero |S|
# (9.2e-3) is far above the bound.  The detector's shadows sum the unit-modulus
# terms of _member_terms (w = 1); the CycInts of window_sums carry the sqrt(2)
# of even q (w = sqrt(2)).
#
# C eps also bounds each single term of _member_terms (_shadow_prefixes): its
# direct float exp(2 pi i x), |x| < 2, and its float from the exponent,
# rect(1, 2 pi j / M), each lie within about |arg| eps of the true root; the
# worst gap seen over the default grid and the large-q cases is 13.2 eps
# (lam = 8/7, tau = 8/19).
#
# The detector reads its shadows from exact prefix sums of the direct terms
# rounded to integers at scale SHADOW_SCALE = 2^60 (see _shadow_prefixes).
# Rounding moves each component of a term by at most 2^-61, so a shadow of n
# terms moves by at most n 2^-61 per component.  With eps = 2^-52 the bound
# is C n eps = 128 n 2^-52 = n 2^-45: rounding adds 2^-16 of it, so the bound
# stays as it is.  The prefix differences are exact integers, compared with
# the bound times SHADOW_SCALE; turning one into a float rounds correctly,
# adding at most |S| eps / 2 <= n eps / 2 per component, less than a float
# summation of the same terms may.
FLOAT_ERROR_C = 128
SHADOW_SCALE = 1 << 60


class ExactFloatMismatch(RuntimeError):
    """The exact zero test and the float shadow disagreed; this would mean a
    corrupted coefficient path and must never be silently ignored."""


@dataclass(frozen=True)
class Cell:
    """Open interval between consecutive singular points, with the integers
    of the window (zero-coefficient k already dropped for even q)."""

    lo: Fraction
    hi: Fraction
    members: range


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
        cells.append(Cell(Fraction(x0, den), Fraction(x1, den), members))
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
def _member_terms(params: WellParams) -> tuple[int, range, tuple[list, list], tuple[list, list]]:
    """(M, ks, exponents, direct): ks are the contributing k of build_cells in
    order; exponents[0][i] and exponents[1][i] are the exponents j in
    Z[zeta_M] of the unit roots c(k) e(+N lam k / q) / w and
    c(k) e(-N lam k / q) / w for k = ks[i], w = |c(k)| (sqrt(2) for even q,
    else 1), and direct[0][i], direct[1][i] are both as floats.

    Exponent bookkeeping is pure integer arithmetic: the coefficient
    contributes (inv k^2 mod modulus) / modulus from gauss.coefficient_exponent
    and the drift factor (+- n k mod s q) / (s q) with N lam = n / s reduced.
    The floats come from the unscaled fractional exponents, so comparing them
    with the exact sums exercises the order-M index arithmetic as well.
    """
    q = params.q
    order = cyclotomic_order(params)
    drift_num, sq = params.n_lam.numerator, params.s * q
    inv, modulus = coefficient_exponent(params.a, q)
    ks = _contributing_ks(params.lam, q)
    plus, minus, direct_plus, direct_minus = [], [], [], []
    for k in ks:
        coeff_num = (inv * k * k) % modulus
        drift_mod = (drift_num * k) % sq
        j_coeff, j_drift = coeff_num * (order // modulus), drift_mod * (order // sq)
        coeff_frac, drift_frac = coeff_num / modulus, drift_mod / sq
        plus.append((j_coeff + j_drift) % order)
        minus.append((j_coeff - j_drift) % order)
        direct_plus.append(cmath.exp(2j * math.pi * (coeff_frac + drift_frac)))
        direct_minus.append(cmath.exp(2j * math.pi * (coeff_frac - drift_frac)))
    return order, ks, (plus, minus), (direct_plus, direct_minus)


def _image_prefixes(order: int, ell: int, root: int, exponents) -> list[list[int]]:
    """Per side of _member_terms, the prefix sums mod ell of its term images
    root^j.  The exponents are A k^2 +- B k (mod M) with k running over ks,
    an arithmetic progression, so their second difference is a constant:
    pow gives the first image, the first ratio and the constant step, and
    each further image costs two multiplications mod ell, for any M.  Only
    the first three exponents are read; _shadow_prefixes checks every one.

    For even q the terms leave out the factor sqrt(2) = zeta_8 + zeta_8^-1 of
    c(k), whose image t = r^(M/8) + r^(-M/8) has t^2 = 2 + r^(-M/4) (r^(M/2) + 1)
    = 2 != 0 in F_ell, so a sum's image vanishes exactly when t times it does."""
    prefixes = []
    for side in exponents:
        images = []
        if side:
            j0 = side[0]
            j1 = side[1] if len(side) > 1 else j0
            j2 = side[2] if len(side) > 2 else 2 * j1 - j0
            image, ratio, step = (
                pow(root, j % order, ell) for j in (j0, j1 - j0, j2 - 2 * j1 + j0)
            )
            for _ in side:
                images.append(image)
                image = image * ratio % ell
                ratio = ratio * step % ell
        prefixes.append(list(accumulate(images, initial=0)))
    return prefixes


def _shadow_prefixes(order: int, exponents, direct) -> list[tuple[list[int], list[int]]]:
    """Per side of _member_terms, the shadows: exact prefix sums, as Python
    ints, of the real and of the imaginary parts of its direct float terms,
    each rounded to an integer at SHADOW_SCALE (half to even, as round does);
    |part| <= 1, so each integer and the difference of two fit in int64.

    First every float term from an order-M exponent must lie within
    FLOAT_ERROR_C eps of its direct term, else the exponent bookkeeping is
    off and this raises: the images and the CycInts of window_sums are built
    from the exponents, the shadows from the direct terms."""
    turn = 2 * math.pi
    terms = np.array(direct, dtype=complex)
    from_exponents = np.array(
        [[cmath.rect(1.0, turn * j / order) for j in side] for side in exponents], dtype=complex
    )
    if np.any(np.abs(from_exponents - terms) > FLOAT_ERROR_C * sys.float_info.epsilon):
        raise ExactFloatMismatch(f"term shadow mismatch: an exponent of order {order} is off")
    fixed = np.rint(terms.view(np.float64) * SHADOW_SCALE).astype(np.int64).tolist()
    return [
        (list(accumulate(parts[0::2], initial=0)), list(accumulate(parts[1::2], initial=0)))
        for parts in fixed
    ]


def _member_slice(members: range, ks: range) -> tuple[int, int]:
    """[i0, i1): members, a run of ks, as a slice of ks."""
    i0 = ks.index(members[0]) if members else 0
    return i0, i0 + len(members)


def window_sums(cell: Cell, params: WellParams) -> tuple[CycInt, CycInt]:
    """Assemble (S_plus, S_minus) for the cell exactly in Z[zeta_M] from the
    terms of its members (see _member_terms), with c(k)'s factor
    sqrt(2) = zeta_8 + zeta_8^-1 for even q.  The members are first checked
    against the window at the cell's midpoint, and the float shadow of each
    assembled sum is compared against a direct complex summation.
    """
    mid = (cell.lo + cell.hi) / 2
    if not 0 <= mid <= Fraction(1, 2) or (
        _window_at(mid.numerator, mid.denominator, params.lam, params.q) != cell.members
    ):
        raise ValueError(
            f"corrupt cell {cell}: outside [0, 1/2] or members do not match its midpoint window"
        )
    order, ks, exponents, direct = _member_terms(params)
    i0, i1 = _member_slice(cell.members, ks)
    weight, shifts = (1.0, (0,)) if params.q % 2 else (math.sqrt(2.0), (order // 8, -order // 8))
    bound = _float_bound(cell, params)
    sums = []
    for side_exponents, side_direct in zip(exponents, direct):
        counts = Counter((j + t) % order for j in side_exponents[i0:i1] for t in shifts)
        s = CycInt(order, sorted(counts.items()))
        if abs(s.to_complex() - weight * sum(side_direct[i0:i1], 0j)) > bound:
            raise ExactFloatMismatch(f"window sum shadow mismatch for {params} on {cell}")
        sums.append(s)
    return sums[0], sums[1]


def _checked_is_zero(z: CycInt, params: WellParams, cell: Cell) -> bool:
    exact = z.is_zero()
    if exact != (abs(z.to_complex()) <= _float_bound(cell, params)):
        raise ExactFloatMismatch(
            f"exact zero test disagrees with float shadow for {params} on {cell}"
        )
    return exact


def detect_plateaux(params: WellParams) -> PlateauReport:
    """Classify every cell by the exact criterion and assemble the maximal
    constant-density intervals in one pass over the cells.

    Per configuration and side, two tables are prefix-summed over ks: the
    term images under zeta_M -> r in F_ell (_image_prefixes) and the direct
    float terms (_shadow_prefixes, which first checks every term's exponent
    against its direct float).  Each cell reads its two images and its two
    shadows in O(1).  A nonzero image proves its sum nonzero, and its shadow
    must then exceed the float bound, else this raises.  Only a side whose
    image vanishes is built in Z[zeta_M] and decided by the exact zero test,
    cross-checked against that sum's own float shadow, so a wrong image can
    only raise or be overruled, never change a verdict.  A qualifying cell
    extends the interval of the cell before it when that one qualified too,
    the vanishing side matches and the surviving sums are exactly equal as
    cyclotomic integers; reported intervals are closures, clipped to [0, 1/2].
    """
    lam, q = params.lam, params.q
    order, ks, exponents, direct = _member_terms(params)
    ell, root = image_root(order)
    # per side: prefix sums of the term images, then the shadow prefixes
    sides = list(zip(_image_prefixes(order, ell, root, exponents),
                     _shadow_prefixes(order, exponents, direct)))
    # the float bound of n unit-modulus terms is n unit_bound at SHADOW_SCALE
    unit_bound = FLOAT_ERROR_C * sys.float_info.epsilon * SHADOW_SCALE

    cells = build_cells(lam, q)
    intervals: list[PlateauInterval] = []
    extends = False  # did the cell before this one qualify?
    for cell in cells:
        i0, i1 = _member_slice(cell.members, ks)
        scaled_bound = (i1 - i0) * unit_bound
        vanishing = []
        for side_images, (s_re, s_im) in sides:
            image = (side_images[i1] - side_images[i0]) % ell
            if image and abs(complex(s_re[i1] - s_re[i0], s_im[i1] - s_im[i0])) <= scaled_bound:
                raise ExactFloatMismatch(
                    f"nonzero image in F_{ell} disagrees with float shadow for {params} on {cell}"
                )
            vanishing.append(not image)
        zp = zm = False
        if any(vanishing):
            s_plus, s_minus = window_sums(cell, params)
            zp = vanishing[0] and _checked_is_zero(s_plus, params, cell)
            zm = vanishing[1] and _checked_is_zero(s_minus, params, cell)
        if zp and zm:
            side, survivor = SIDE_BOTH, CycInt.zero(order)
        elif zp:
            side, survivor = SIDE_PLUS, s_minus
        elif zm:
            side, survivor = SIDE_MINUS, s_plus
        else:
            extends = False
            continue
        if (
            extends
            and intervals[-1].vanishing_side == side
            and survivor.equals(intervals[-1].level_exact)
        ):
            intervals[-1] = replace(intervals[-1], hi=cell.hi)
        else:
            kind = ZERO_LEVEL if side == SIDE_BOTH else POSITIVE_LEVEL
            level = _level(kind, survivor, params)
            intervals.append(PlateauInterval(cell.lo, cell.hi, level, survivor, kind, side))
        extends = True

    return PlateauReport(params, tuple(intervals), lam > params.threshold, 2 * len(cells))


def _level(kind: str, survivor: CycInt, params: WellParams) -> float:
    if kind == ZERO_LEVEL:
        return 0.0
    return float(params.lam) / params.q * abs(survivor.to_complex()) ** 2


def plateau_level(interval: PlateauInterval, params: WellParams) -> float:
    """(lam/q) |surviving sum|^2; exactly 0.0 for forbidden zones."""
    return _level(interval.kind, interval.level_exact, params)
