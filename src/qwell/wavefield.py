"""Physical layer for the suddenly expanded infinite well.

Everything is expressed in the rescaled coordinate x in [0, 1/2] (the well
[0, L] maps to x = x_phys / (2L)) and the dimensionless time t/T, where T is
the revival period.  At a fractional time a/q the wave function collapses to
a q-term combination of translates of the initial profile weighted by
conjugated Gauss sums.  numpy is imported only inside density_p, the one
function that samples arrays, so the exact layers start without it.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .gauss import coefficient_c, contributing, gauss_sum_direct

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi


class _WellFields(NamedTuple):
    lam: Fraction
    n_state: int
    tau: Fraction


class WellParams(_WellFields):
    """One experiment: expansion factor lam > 1, initial eigenstate index
    n_state >= 1, and the fractional time tau = a/q in lowest terms.  The
    constructor checks and coerces; _replace and _make skip it, so change a
    field by building a new WellParams."""

    __slots__ = ()

    def __new__(cls, lam, n_state: int, tau):
        lam = lam if type(lam) is Fraction else Fraction(lam)  # a Fraction is kept, not rebuilt
        tau = tau if type(tau) is Fraction else Fraction(tau)
        if lam.numerator <= lam.denominator:
            raise ValueError("expansion factor must exceed 1")
        if n_state < 1:
            raise ValueError("initial eigenstate index must be >= 1")
        if tau.numerator < 0:
            raise ValueError("fractional time must be nonnegative")
        return tuple.__new__(cls, (lam, n_state, tau))

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
