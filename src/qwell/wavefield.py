"""Physical layer for the suddenly expanded infinite well.

Everything is expressed in the rescaled coordinate x in [0, 1/2] (the well
[0, L] maps to x = x_phys / (2L)) and the dimensionless time t/T, where T is
the revival period.  At a fractional time a/q the wave function collapses to
a q-term combination of translates of the initial profile weighted by
conjugated Gauss sums; an independent truncated eigenseries on the expanded
well serves as the cross-validation oracle.  numpy is imported only inside
the two functions that sample arrays, so the exact layers start without it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .gauss import coefficient_c, contributing, gauss_sum_direct

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi

# extra eigenmodes beyond the L2-tail requirement, for pointwise accuracy
_POINTWISE_TERMS = 1 << 17


@dataclass(frozen=True)
class WellParams:
    """One experiment: expansion factor lam > 1, initial eigenstate index
    n_state >= 1, and the fractional time tau = a/q in lowest terms."""

    lam: Fraction
    n_state: int
    tau: Fraction

    def __post_init__(self):
        lam, tau = self.lam, self.tau  # a Fraction is kept, not rebuilt
        object.__setattr__(self, "lam", lam if type(lam) is Fraction else Fraction(lam))
        object.__setattr__(self, "tau", tau if type(tau) is Fraction else Fraction(tau))
        if self.lam.numerator <= self.lam.denominator:
            raise ValueError("expansion factor must exceed 1")
        if self.n_state < 1:
            raise ValueError("initial eigenstate index must be >= 1")
        if self.tau.numerator < 0:
            raise ValueError("fractional time must be nonnegative")

    @property
    def a(self) -> int:
        return self.tau.numerator

    @property
    def q(self) -> int:
        return self.tau.denominator

    @property
    def n_lam(self) -> Fraction:
        """N * lam, the frequency of the initial profile sin(2 pi N lam (x - xc));
        density_p reads it once per call."""
        return self.n_state * self.lam

    @property
    def threshold(self) -> int:
        return fragmentation_threshold(self.q)


# the reference figure panels: panel -> (lam, n_state, tau)
PANELS: dict[str, tuple[Fraction, int, Fraction]] = {
    "frag-a": (Fraction(107, 10), 1, Fraction(2, 7)),
    "frag-b": (Fraction(107, 10), 2, Fraction(1, 12)),
    "frag-c": (Fraction(107, 10), 1, Fraction(3, 10)),
    "plat-a": (Fraction(5, 2), 1, Fraction(1, 3)),
    "plat-b": (Fraction(5, 2), 3, Fraction(13, 18)),
    "plat-c": (Fraction(5, 4), 2, Fraction(11, 6)),
    "zero-a": (Fraction(3, 2), 1, Fraction(5, 3)),
    "zero-b": (Fraction(3, 2), 3, Fraction(1, 6)),
    "zero-c": (Fraction(3, 2), 3, Fraction(7, 18)),
}


def fragmentation_threshold(q: int) -> int:
    """Fragmentation threshold for lam: q for odd q, q/2 for even q."""
    return q if q % 2 else q // 2


def initial_g(x, lam, n_state: int) -> float:
    """Periodized initial profile: sin(2 pi N lam (x - xc)) inside the window
    |x - xc| <= 1/(2 lam) around the nearest integer xc, zero outside.

    Odd and 1-periodic; continuous because the sine vanishes at the window
    edge.
    """
    xf = float(x)
    xc = math.floor(xf + 0.5)
    dx = xf - xc
    if abs(dx) <= 1.0 / (2.0 * float(lam)):
        return math.sin(TWO_PI * n_state * float(lam) * dx)
    return 0.0


def psi_fractional(x, params: WellParams) -> complex:
    """Wave value at the fractional time a/q via the q-translate formula,

        (sqrt(2)/q) * sum_k conj(G(a, k, q)) g(x + k/q).
    """
    a, q = params.a, params.q
    xf = float(x)
    total = 0j
    for k in range(q):
        g = initial_g(xf + k / q, params.lam, params.n_state)
        if g:
            total += gauss_sum_direct(a, k, q).conjugate() * g
    return total * math.sqrt(2.0) / q


def window(num: int, den: int, lam: Fraction, q: int) -> range:
    """All integers k with |num/den - k/q| <= 1/(2 lam), by exact integer
    floor division: with lam = u/v, k runs over
    [(2uq num - vq den) / (2u den), (2uq num + vq den) / (2u den)]."""
    u, v = lam.numerator, lam.denominator
    centre, reach, scale = 2 * u * q * num, v * q * den, 2 * u * den
    return range(-((reach - centre) // scale), (centre + reach) // scale + 1)


def interval_I(x, params: WellParams) -> list[int]:
    """All integers k with |x - k/q| <= 1/(2 lam), exactly; a float x is the
    Fraction it equals."""
    x = Fraction(x)
    return list(window(x.numerator, x.denominator, params.lam, params.q))


def density_p(x, params: WellParams) -> float | np.ndarray:
    """Normalized probability density at x in [0, 1/2]:

        p(x) = (4 lam / q) |sum_{k in I(x)} c(k) sin(2 pi N lam (x - k/q))|^2

    which equals 2 lam |Psi(2 lam x, (a/q) T)|^2.  Terms whose window edge is
    grazed contribute a vanishing sine, so the value is continuous across
    cell boundaries.

    A number x (a Fraction as float(x)) gives a float, a 1-D float array an
    array; bit for bit the per-point loop (hypot, and libm pow via np.float_power).
    """
    import numpy as np

    a, q = params.a, params.q
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    n_lam_f, half = float(params.n_lam), 1.0 / (2.0 * float(params.lam))
    k_lo, k_hi = np.ceil(q * (xs - half)), np.floor(q * (xs + half))
    re, im = np.zeros_like(xs), np.zeros_like(xs)
    for k in contributing(range(int(k_lo.min()), int(k_hi.max()) + 1), q) if xs.size else ():
        c, mask = coefficient_c(a, q, k), (k_lo <= k) & (k <= k_hi)
        sine = np.sin(TWO_PI * n_lam_f * (xs[mask] - k / q))
        re[mask] += c.real * sine
        im[mask] += c.imag * sine
    ps = np.float_power(np.hypot(re, im), 2.0)
    ps *= 4.0 * float(params.lam) / q
    return float(ps[0]) if np.ndim(x) == 0 else ps


def _series_cutoff(lam_f: float, n_state: int, tol: float) -> int:
    # L2 tail: sum_{n>M} c_n^2 <= 16 C^2 / (27 M^3) for M >= 2 N lam,
    # kept below tol/2 for headroom.
    big_c = 2.0 * n_state * lam_f ** 1.5 / math.pi
    m_tail = (32.0 * big_c * big_c / (27.0 * 0.5 * tol)) ** (1.0 / 3.0)
    return max(2 * math.ceil(n_state * lam_f) + 2, math.ceil(m_tail))


def series_oracle(x, t_over_T, params: WellParams, tol: float = 1e-10) -> complex:
    """Independent eigenseries evaluation of Psi(x, t) on the physical
    interval [0, lam].

    The cutoff guarantees an L2 tail below tol; on top of that a fixed
    oversampling floor keeps the pointwise truncation error far below the
    cross-validation tolerances.  Rational t/T gets exact integer phase
    reduction mod 1.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    import numpy as np

    lam_f = float(params.lam)
    n_state = params.n_state
    n_terms = max(_series_cutoff(lam_f, n_state, tol), _POINTWISE_TERMS)

    n = np.arange(1, n_terms + 1, dtype=np.int64)
    nf = n.astype(np.float64)
    sin_over = np.sin(nf * (math.pi / lam_f))
    denom = (n_state * lam_f) ** 2 - nf * nf
    sign = -1.0 if n_state % 2 == 0 else 1.0
    scale = 2.0 * n_state * lam_f ** 1.5 / math.pi * sign
    limit_mask = denom == 0.0
    denom[limit_mask] = 1.0
    coeff = scale * sin_over / denom
    coeff[limit_mask] = 1.0 / math.sqrt(lam_f)

    if isinstance(t_over_T, Fraction):
        num = t_over_T.numerator % t_over_T.denominator
        den = t_over_T.denominator
        phase_frac = ((n * n % den) * num % den).astype(np.float64) / den
    else:
        phase_frac = np.mod(nf * nf * float(t_over_T), 1.0)

    modes = np.sin(nf * (math.pi * float(x) / lam_f))
    terms = coeff * modes * np.exp(-2j * np.pi * phase_frac)
    return complex(math.sqrt(2.0 / lam_f) * terms.sum())


def _free_field(coefficients: dict[int, complex], x: float, tau: float, lam: float) -> complex:
    total = 0j
    for n, a_n in coefficients.items():
        phase = n * x / (2.0 * lam) - (n * n * tau) % 1.0
        total += a_n * cmath.exp(2j * math.pi * phase)
    return total


def special_time_identity_residual(
    which: str,
    coefficients: dict[int, complex],
    x: float,
    lam: float = 1.0,
) -> float:
    """Residual of the closed-form identity at t = T/2, T/4 or T/8 for a free
    field built from finitely many antisymmetric coefficients (a_{-n} = -a_n).

    which: "half", "quarter" or "eighth".  Returns |LHS - RHS| with both
    sides evaluated directly.
    """
    for n, a_n in coefficients.items():
        if -n not in coefficients or coefficients[-n] != -a_n:
            raise ValueError("coefficients must satisfy a(-n) = -a(n)")

    def F(xx: float, tau: float) -> complex:
        return _free_field(coefficients, xx, tau, lam)

    if which == "half":
        lhs = F(x, 0.5)
        rhs = -F(lam - x, 0.0)
    elif which == "quarter":
        lhs = F(x, 0.25)
        rhs = (1 - 1j) / 2 * F(x, 0.0) - (1 + 1j) / 2 * F(lam - x, 0.0)
    elif which == "eighth":
        lhs = F(x, 0.125)
        w = (1 - 1j) / (2 * math.sqrt(2.0))
        rhs = (
            w * F(x, 0.0)
            + 0.5 * F(x + lam / 2.0, 0.0)
            + w * F(lam - x, 0.0)
            - 0.5 * F(lam / 2.0 - x, 0.0)
        )
    else:
        raise ValueError(f"unknown identity {which!r}")
    return abs(lhs - rhs)
