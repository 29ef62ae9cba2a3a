"""Exact plateau detection.

The density at a fractional time is piecewise analytic on the open cells cut
out of (0, 1/2) by the singular points where the window I(x) gains or loses
a contributing integer.  For lam = u/v these points are k/q +- 1/(2 lam),
which all lie on the lattice 1/(2uq) with numerators 2uk +- vq.  A cell is
a pair of consecutive such integers with its members, the run of k whose
window edges enclose it, checked once, exactly, against the window at its
midpoint; Fractions are made only for reported intervals and errors.  On
each cell the two windowed sums

    S_pm = sum_{k in I} c(k) e(+-N lam k / q)

are constants, and the density is constant on the cell iff one of them
vanishes, with level (lam/q) |other|^2.  Each term is |c(k)| times the
unit root zeta_M^(A k^2 +- B k) of one order M and exponent rule (A, B) per
configuration (exponent_rule).  |c(k)| is constant, so both sums are decided
exactly as sums of unit roots in Z[zeta_M], and _level carries |c(k)|^2.
c(k) is even in k, so the minus term at k is the plus term at -k.  One term
table per configuration (term_table), built by the detector, holds one
sequence over k = -R..R: the prefix sums of its term images under the ring
map Z[zeta_M] -> F_ell, zeta_M -> r (cyclotomic.image_root), and of its
float terms rounded to multiples of 2^-60.  S_plus reads a cell's members
as a slice of it and S_minus reads the mirrored slice.  A nonzero verdict is
certified by a cell's image, read in O(1) from the table.  A side with a
vanishing image is zero if its window is empty or its terms cancel in
reflected pairs, decided by two integer congruences (_reflection_zero);
only if they fail is its sum built in Z[zeta_M] for the exact cyclotomic
zero test.  So a zero verdict comes only from these congruences or from
that test.  Every verdict, from any path, is cross-checked at one site
against the side's table shadow, read in O(1) as well, and a disagreement
raises, so the detector is linear in the number of cells and terms.  Of a
qualifying cell only the surviving sum is built, for its level.

conjugate_report reads a report off its Galois partner's through
sigma_t: zeta -> zeta^t, and checks the orbit identity term by term.
"""
from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from .cyclotomic import CycInt, image_root
from .gauss import coefficient_exponent, contributing
from .wavefield import WellParams, window

ZERO_LEVEL = "zero"
POSITIVE_LEVEL = "positive"

SIDE_PLUS = "plus"
SIDE_MINUS = "minus"
SIDE_BOTH = "both"

# A window sum of n unit-modulus terms may be off by C n eps in floats: over
# the 978,804 cell sides of the default scan the worst float sum is off by
# 5.6 n eps from long-double roots, and the smallest nonzero |S| (9.2e-3) is
# far above the bound.
#
# C eps also bounds each single term of the table (term_table): its direct
# float exp(2 pi i x), |x| < 2, and its float from the rule exponent,
# rect(1, 2 pi e / M), each lie within about |arg| eps of the true root; the
# worst gap seen over the default grid and the large-q cases is 13.2 eps
# (lam = 8/7, tau = 8/19).  An exponent off by one moves its root by 2 pi / M,
# inside this bound once M is above about 2e14, so every rule exponent is also
# checked exactly against the per-k reductions.
#
# The shadows are exact prefix sums of the direct terms rounded to integers at
# scale SHADOW_SCALE = 2^60 (the product is exact, and round takes the
# nearest integer, ties to even).  Rounding moves each component of a term by at
# most 2^-61, so a shadow of n terms moves by at most n 2^-61 per component.
# With eps = 2^-52 the bound is C n eps = 128 n 2^-52 = n 2^-45: rounding adds
# 2^-16 of it, so the bound stays as it is.  The prefix differences are exact
# integers, compared with the bound times SHADOW_SCALE; turning one into a
# float rounds correctly, adding at most |S| eps / 2 <= n eps / 2 per
# component, less than a float summation of the same terms may.
FLOAT_ERROR_C = 128
SHADOW_SCALE = 1 << 60


class ExactFloatMismatch(RuntimeError):
    """An exact verdict and its float shadow disagreed; this would mean a
    corrupted coefficient path and must never be silently ignored."""


class Cell(NamedTuple):
    """Open interval (x0, x1) / (2uq), lam = u/v, between consecutive singular
    points, with the integers of its window (zero-coefficient k already
    dropped for even q)."""

    x0: int
    x1: int
    members: range


@dataclass(frozen=True)
class PlateauInterval:
    lo: Fraction
    hi: Fraction
    level: float         # (lam/q) |c(k)|^2 |surviving sum|^2, +0.0 for forbidden zones
    vanishing_side: str  # SIDE_PLUS, SIDE_MINUS or SIDE_BOTH

    @property
    def kind(self) -> str:
        """ZERO_LEVEL, a forbidden zone, iff both sums vanish, else POSITIVE_LEVEL."""
        return ZERO_LEVEL if self.vanishing_side == SIDE_BOTH else POSITIVE_LEVEL


@dataclass(frozen=True)
class PlateauReport:
    params: WellParams
    intervals: tuple[PlateauInterval, ...]
    # the cell sides decided, 2 len(build_cells(lam, q)), most by an F_ell image
    # and its shadow check; a report from conjugate_report copies its partner's
    zero_checks: int


def _contributing_ks(lam: Fraction, q: int) -> range:
    """The contributing k whose window meets [0, 1/2]."""
    return contributing(range(window(0, 1, lam, q).start, window(1, 2, lam, q).stop), q)


@lru_cache(maxsize=1)  # every reuse is within one scan task of a single (lam, q)
def build_cells(lam: Fraction, q: int) -> tuple[Cell, ...]:
    """Partition (0, 1/2) into cells of constant window membership.

    Works on the lattice x = X / (2uq), lam = u/v: the contributing k (every
    k for odd q, k = q/2 (mod 2) for even q) put window edges at
    lower(k) = 2uk - vq and upper(k) = 2uk + vq, both increasing in k, and
    the open cell (X0, X1) between consecutive edges holds exactly the k
    with lower(k) <= X0 and X1 <= upper(k): ks[j:i], with i the lower edges
    and j the upper edges at or below X0.  So one walk with two pointers
    over the two edge progressions gives every cell in order, each ending at
    the next edge of either.  Each cell is checked once against the window
    at its midpoint, computed independently by wavefield.window, and a
    mismatch raises ValueError.

    Each edge family is strictly increasing, so at a boundary one k enters
    (a lower edge), one leaves (an upper edge) or both (where u d | v q,
    d = ks.step), and adjacent member counts differ by one except at such
    coincident edges.  So no interval spans two cells: across a count change
    the sums differ by one unit root, and no side vanishes on both cells;
    across a coincident edge equal entering and leaving terms would make
    both qualify, but no pair does over lam <= 6, v <= 8, q <= 40, N <= 3.
    """
    u, v = lam.numerator, lam.denominator
    den, half = 2 * u * q, u * q
    ks = _contributing_ks(lam, q)
    step = 2 * u * ks.step
    # the edges of the next k to enter, ks[i], and to leave, ks[j]
    lower, upper = 2 * u * ks.start - v * q, 2 * u * ks.start + v * q
    i = j = x1 = 0
    cells = []
    while x1 < half:
        while lower <= x1:
            i, lower = i + 1, lower + step
        while upper <= x1:
            j, upper = j + 1, upper + step
        x0, x1 = x1, min(lower, upper, half)
        cell = Cell(x0, x1, ks[j:i])
        if contributing(window(x0 + x1, 2 * den, lam, q), q) != cell.members:
            raise ValueError(
                f"corrupt cell ({Fraction(x0, den)}, {Fraction(x1, den)}):"
                " window membership is not constant"
            )
        cells.append(cell)
    return tuple(cells)


def _float_bound(n: int) -> float:
    """C n eps, the float bound of a sum of n unit-modulus terms."""
    return n * (FLOAT_ERROR_C * sys.float_info.epsilon)  # C eps = 2^-45 exactly


@dataclass(frozen=True)
class _TermTable:
    """The terms of both windowed sums as one sequence over a symmetric range
    of k, read forwards for S_plus and mirrored for S_minus (term_table)."""

    params: WellParams
    order: int
    ks: range
    rule: tuple[int, int]
    ell: int
    images: list[int]
    shadows: tuple[list[int], list[int]]


def exponent_rule(params: WellParams) -> tuple[int, int, int]:
    """(M, A, B): the order M = lcm(modulus, q s) of every unit root of both sums,
    modulus from coefficient_exponent (q s for odd q, lcm(4q, q s) for even q),
    and (A, B) with c(k) e(+-N lam k / q) / |c(k)| = zeta_M^(A k^2 +- B k)."""
    inv, modulus = coefficient_exponent(params.a, params.q)
    sq = params.s * params.q
    order = math.lcm(modulus, sq)
    return order, inv * (order // modulus) % order, params.n_lam.numerator * (order // sq) % order


def term_table(params: WellParams) -> _TermTable:
    """The term table of a configuration, built once per detector run in one
    pass over ks, the contributing k in -R..R with R the last k of
    build_cells: its params, the order M, ks, the exponent rule (A, B), ell
    of image_root(M), and prefix sums over ks of the images r^e(k) in F_ell
    and of the shadows of the unit roots c(k) e(N lam k / q) / |c(k)| =
    zeta_M^e(k), e(k) = (A k^2 + B k) mod M.  S_minus reads them mirrored
    (_side_slices).  ks steps by d, so the image ratios change by the
    constant r^(2 A d^2) and each image costs two multiplications mod ell.
    The shadows sum the parts of the direct floats
    e(coeff / modulus + drift / (s q)), rounded at SHADOW_SCALE, with
    coeff = inv k^2 mod modulus and drift = n k mod s q for N lam = n / s.
    Before a term is kept, e(k) must equal coeff M / modulus + drift M / (s q)
    (mod M) exactly and rect(1, 2 pi e(k) / M) lie within FLOAT_ERROR_C eps
    of its direct float, else this raises ExactFloatMismatch.
    """
    q, (order, a_rule, b_rule) = params.q, exponent_rule(params)
    try:
        ell, root = image_root(order)
    except ValueError as err:  # no certified prime ell = 1 (mod M), or M not factored
        raise ValueError(f"the cyclotomic order M = {order} is beyond the range of the F_ell"
                         f" images ({err}): the denominator of N lambda is too large") from err
    inv, modulus = coefficient_exponent(params.a, q)
    drift_num, sq = params.n_lam.numerator, params.s * q
    r = _contributing_ks(params.lam, q)[-1]
    ks = contributing(range(-r, r + 1), q)
    d = ks.step
    coeff_step, drift_step = order // modulus, order // sq
    exp, rect, scale = cmath.exp, cmath.rect, float(SHADOW_SCALE)  # no int-to-float per product
    two_pi_i, angle = 2j * math.pi, 2 * math.pi / order
    bound = _float_bound(1)
    image, ratio, step = (pow(root, j % order, ell) for j in (
        a_rule * r * r - b_rule * r, (a_rule * (d - 2 * r) + b_rule) * d, 2 * a_rule * d * d))
    terms, re_parts, im_parts = [], [], []
    for k in ks:
        kk = k * k
        coeff_num, drift_mod = inv * kk % modulus, drift_num * k % sq
        j = (a_rule * kk + b_rule * k) % order
        if j != (coeff_num * coeff_step + drift_mod * drift_step) % order:
            raise ExactFloatMismatch(f"exponent rule of order {order} is off at k = {k}")
        direct = exp(two_pi_i * (coeff_num / modulus + drift_mod / sq))
        if abs(rect(1.0, angle * j) - direct) > bound:
            raise ExactFloatMismatch(f"term shadow mismatch: an exponent of order {order} is off")
        terms.append(image)
        re_parts.append(round(direct.real * scale))
        im_parts.append(round(direct.imag * scale))
        image, ratio = image * ratio % ell, ratio * step % ell
    images, s_re, s_im = (list(accumulate(parts, initial=0))
                          for parts in (terms, re_parts, im_parts))
    return _TermTable(params, order, ks, (a_rule, b_rule), ell, images, (s_re, s_im))


def _side_slices(members: range, ks: range) -> tuple[tuple[int, int], tuple[int, int]]:
    """The slices of the term table holding a cell's S_plus terms, its members
    [i0, i1) of ks, and its S_minus terms, the mirror [n - i1, n - i0): ks is
    symmetric, and the minus term at k is the plus term at -k.  The members
    step by ks.step like ks, so i0 = (k0 - ks.start) / ks.step."""
    i0 = (members.start - ks.start) // ks.step
    i1, n = i0 + len(members), len(ks)
    return (i0, i1), (n - i1, n - i0)


def _side_sum(members: range, order: int, rule: tuple[int, int], sign: int) -> CycInt:
    """S_plus (sign 1) or S_minus (sign -1) over members in Z[zeta_M], M =
    order: the sum of the unit roots zeta_M^(A k^2 +- B k) of the exponent
    rule (A, B)."""
    a, b = rule
    return CycInt(order, (((a * k * k + sign * b * k) % order, 1) for k in members))


def _reflection_zero(members: range, order: int, rule: tuple[int, int], sign: int) -> bool:
    """Whether S_plus (sign 1) or S_minus (sign -1) over members vanishes by
    reflection: the window is empty, or M = order is even and, with the first
    member k0, the last k1, the step d, c = k0 + k1 and x = A c +- B for the
    exponent rule (A, B),

        2 d x = 0  and  (c - 2 k0) x = M/2  (mod M).

    Then the exponents at k and c - k differ by (c - 2 k) x, an odd multiple
    of M/2, so the term at c - k is minus the term at k and the terms cancel
    in pairs.  An odd member count n fails, as (c - 2 k0) x =
    ((n - 1) / 2) 2 d x = 0 (mod M).  False proves nothing."""
    if not members:
        return True
    k0, c = members.start, members.start + members[-1]
    x = rule[0] * c + sign * rule[1]
    return (not order % 2 and not 2 * members.step * x % order
            and (c - 2 * k0) * x % order == order >> 1)


def window_sums(cell: Cell, terms: _TermTable) -> tuple[CycInt, CycInt]:
    """Assemble (S_plus, S_minus) for a cell of build_cells exactly in
    Z[zeta_M]: the sums of the unit roots zeta_M^(A k^2 +- B k) of the term
    table's exponent rule over the cell's members, each checked against its
    table shadow, the plus or mirrored slice, read in O(1).  The detector
    builds survivors only; this is the all-exact reference of both sums,
    which bench/tracer.py patches by name.
    """
    s_re, s_im = terms.shadows
    sums = []
    for sign, (j0, j1) in zip((1, -1), _side_slices(cell.members, terms.ks)):
        s = _side_sum(cell.members, terms.order, terms.rule, sign)
        shadow = complex(s_re[j1] - s_re[j0], s_im[j1] - s_im[j0]) / SHADOW_SCALE
        if abs(s.to_complex() - shadow) > _float_bound(len(cell.members)):
            raise ExactFloatMismatch(f"window sum shadow mismatch for {terms.params} on {cell}")
        sums.append(s)
    return sums[0], sums[1]


def detect_plateaux(params: WellParams) -> PlateauReport:
    """Classify every cell by the exact criterion in one pass over the cells
    and report each qualifying cell as its own constant-density interval.

    The term table (term_table) is built once, and each cell reads its two
    term images and its two shadows from it in O(1), at the slices
    i0 = (k0 - ks.start) / d of its first member k0 (_side_slices).  A
    nonzero image proves its side nonzero.  A vanishing image is a zero
    certified by the reflection congruences (_reflection_zero), which also
    make an empty window zero; only if they fail is the side's sum built in
    Z[zeta_M] and decided by the exact zero test.  Each verdict is compared
    at one site with its side's table shadow, which must lie within the
    float bound iff the side is zero, else this raises ExactFloatMismatch
    naming the deciding path; so a wrong image can only raise or be
    overruled, never change a verdict.  A qualifying cell builds its
    surviving sum only, for the level, and its float must agree with the
    table shadow likewise; a forbidden zone builds none.  No interval spans
    two cells (see build_cells); if two adjacent cells ever qualified, they
    would show as two intervals, and a scan would record the configuration
    as inconsistent.  Reported intervals are closures, clipped to [0, 1/2],
    with Fraction endpoints (x0 / (2uq), x1 / (2uq)) made only for them.
    """
    lam, q = params.lam, params.q
    den = 2 * lam.numerator * q
    terms = term_table(params)
    order, rule, ell, images = terms.order, terms.rule, terms.ell, terms.images
    first, d, n = terms.ks.start, terms.ks.step, len(terms.ks)
    s_re, s_im = terms.shadows
    # the float bound of n unit-modulus terms is n unit_bound at SHADOW_SCALE
    unit_bound = _float_bound(1) * SHADOW_SCALE

    cells = build_cells(lam, q)
    intervals: list[PlateauInterval] = []
    for cell in cells:
        members = cell.members
        count = len(members)
        i0 = (members.start - first) // d
        i1, scaled_bound = i0 + count, count * unit_bound
        zeros = []
        for sign, j0, j1 in ((1, i0, i1), (-1, n - i1, n - i0)):
            image = (images[j1] - images[j0]) % ell
            reflection = not image and _reflection_zero(members, order, rule, sign)
            zero = reflection or (not image and _side_sum(members, order, rule, sign).is_zero())
            if zero != (abs(complex(s_re[j1] - s_re[j0], s_im[j1] - s_im[j0])) <= scaled_bound):
                path = (f"nonzero image in F_{ell}" if image
                        else "reflection law" if reflection else "exact zero test")
                raise ExactFloatMismatch(
                    f"{path} disagrees with the table shadow for {params} on {cell}")
            zeros.append(zero)
        zp, zm = zeros
        if not (zp or zm):
            continue
        if zp and zm:
            side, level = SIDE_BOTH, 0.0
        else:  # the surviving side: minus, at the mirrored slice, or plus
            side, sign, j0, j1 = (SIDE_PLUS, -1, n - i1, n - i0) if zp else (SIDE_MINUS, 1, i0, i1)
            survivor = _side_sum(members, order, rule, sign).to_complex()
            shadow = complex(s_re[j1] - s_re[j0], s_im[j1] - s_im[j0]) / SHADOW_SCALE
            if abs(survivor - shadow) > _float_bound(count):
                raise ExactFloatMismatch(f"survivor shadow mismatch for {params} on {cell}")
            level = _level(survivor, params)
        lo, hi = Fraction(cell.x0, den), Fraction(cell.x1, den)
        intervals.append(PlateauInterval(lo, hi, level, side))

    return PlateauReport(params, tuple(intervals), 2 * len(cells))


def _level(s: complex, params: WellParams) -> float:
    """(lam/q) |c(k)|^2 |S|^2 for the float S of a survivor, |c(k)|^2 = 2 (even q) or 1 (odd q)."""
    return float(params.lam) / params.q * (2 - params.q % 2) * abs(s) ** 2


def conjugate_report(partner: PlateauReport, params: WellParams, t: int,
                     sign: int) -> PlateauReport:
    """The report of params read off the report of its Galois partner through
    sigma_t: zeta -> zeta^t, with no detector run.

    The partner (a, N) and params (a', N') share lam = u/v and q, and must
    satisfy a' t = a (mod q) and t N = sign N' (mod W), W = v q / gcd(u, q),
    with sign +-1 and t coprime to lcm(q, W), so a unit modulo every order
    (their primes divide 2 q v, and 2 divides q or v when it divides one);
    the partner's report must have decided both sides of every cell of
    build_cells(lam, q).  Else this raises ValueError.

    Both share the cyclotomic order M: it reads only q and s = v / gcd(N, v),
    and as v | W and t is a unit mod v, gcd(N', v) = gcd(t N, v) = gcd(N, v).
    sigma_t maps c_a(k) / |c(k)| to a constant unit times c_{a'}(k) / |c(k)|
    (for even q, the lifted inverse of a t^-1 differs from t inv(a) by a
    multiple of q, which moves q k^2 / (4q) by a constant on the contributing
    k) and e(+-N lam k / q) to e(+-sign N' lam k / q).  So on every cell, as
    sums of unit roots, sigma_t(S_pm(a, N)) is a unit times S_pm(a', N') for
    sign 1 and S_mp(a', N') for sign -1: the same cells qualify, and the
    intervals and zero_checks (the cell sides decided, here through the
    partner) are the partner's, with plus and minus swapped for sign -1.  A
    zero-level interval is copied as it is.  Complex conjugation, t = -1
    with sign -1, pairs a with q - a.

    On the interval's first cell, with j and j' the partner's and this
    configuration's rule exponents of the surviving sides, each from its own
    exponent_rule, every member k must satisfy

        j'(k) = t j(k) + e  (mod M),  e = j'(k0) - t j(k0),

    k0 the first member, and the two orders M must be equal, else this
    raises ArithmeticError.  Term by term, the survivor is then zeta_M^e
    times the sigma_t image of the partner's.  Its level comes from its own
    sum, built as detect_plateaux(params) builds it.
    """
    mate = partner.params
    lam, q = params.lam, params.q
    w = lam.denominator * q // math.gcd(lam.numerator, q)
    cells = build_cells(lam, q)
    if (sign not in (1, -1) or (mate.lam, mate.q) != (lam, q) or math.gcd(t, math.lcm(q, w)) != 1
            or (t * params.a - mate.a) % q or (t * mate.n_state - sign * params.n_state) % w
            or partner.zero_checks != 2 * len(cells)):
        raise ValueError(f"{mate} is not the image of {params} under sigma_{t}, sign {sign}")
    den = 2 * lam.numerator * q
    intervals = []
    for iv in partner.intervals:
        if iv.vanishing_side != SIDE_BOTH:
            x0 = iv.lo.numerator * den // iv.lo.denominator
            cell = cells[bisect_left(cells, x0, key=lambda c: c.x0)]
            mate_sign = -1 if iv.vanishing_side == SIDE_PLUS else 1  # the surviving side
            own_sign, members = sign * mate_sign, cell.members
            (order, a_own, b_own), (m_mate, a_mate, b_mate) = map(exponent_rule, (params, mate))
            twists = {((a_own * k + own_sign * b_own) - t * (a_mate * k + mate_sign * b_mate))
                      * k % order for k in members}
            if m_mate != order or len(twists) != 1:
                raise ArithmeticError(f"the survivor of {params} on {cell} is not a unit times"
                                      f" the sigma_{t} image of its partner's")
            survivor = _side_sum(members, order, (a_own, b_own), own_sign).to_complex()
            side = SIDE_PLUS if own_sign == -1 else SIDE_MINUS
            iv = replace(iv, level=_level(survivor, params), vanishing_side=side)
        intervals.append(iv)
    return PlateauReport(params, tuple(intervals), partner.zero_checks)
