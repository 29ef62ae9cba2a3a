"""Independent oracles that only the tests call: the eigenseries of the
expanded well, the closed-form identities at t = T/2, T/4 and T/8, the
sampled peak count, the distance to the nearest integer and the unit-group
search for the scan's Galois orbit map.

pytest does not collect this module (its name is not test_*.py); the tests
import it as `from oracles import ...`, since tests/ is on sys.path.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

from qwell.predictors import _task_configs
from qwell.wavefield import WellParams

# extra eigenmodes beyond the L2-tail requirement, for pointwise accuracy
_POINTWISE_TERMS = 1 << 17


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


def count_local_maxima(params: WellParams, samples: int = 10_000) -> int:
    """Local maxima of the density on the grid of figures.density_samples,
    the numeric cross-check for peak_count.  Each run of equal samples counts
    as one sample, so a peak whose two nearest samples tie is counted once."""
    import numpy as np

    from qwell.figures import density_samples

    ps = density_samples(params, samples)[:, 1]
    ps = ps[np.r_[True, ps[1:] != ps[:-1]]]
    return int(np.count_nonzero((ps[:-2] < ps[1:-1]) & (ps[1:-1] > ps[2:])))


def dist_nearest_int(x: Fraction) -> Fraction:
    """Distance from x to the nearest integer, always in [0, 1/2]."""
    frac = x - math.floor(x)
    return min(frac, 1 - frac)


def galois_links_search(lam: Fraction, q: int, n_max: int) -> list[tuple[int, int, int] | None]:
    """predictors.galois_links found by searching the unit group: every unit
    t of lcm(q, W), W = v q / gcd(u, q) for lam = u/v, is bucketed per N by
    t N mod W; the first configuration in grid order not yet reached is a
    representative, and every configuration its buckets send it to with
    N' >= N is read from it, unless an earlier representative claimed it
    already."""
    w = lam.denominator * q // math.gcd(lam.numerator, q)
    modulus = math.lcm(q, w)
    units = [t for t in range(1, modulus) if math.gcd(t, modulus) == 1]
    inverse = {t: pow(t, -1, q) for t in units}
    buckets = {n_state: {} for n_state in range(1, n_max + 1)}
    for n_state, bucket in buckets.items():
        for t in units:
            bucket.setdefault(t * n_state % w, []).append(t)
    configs = _task_configs(q, n_max)
    position = {config: i for i, config in enumerate(configs)}
    links: list[tuple[int, int, int] | None] = [None] * len(configs)
    reached = [False] * len(configs)
    for source, (n_state, a) in enumerate(configs):
        if reached[source]:
            continue
        reached[source] = True
        for target_n in range(n_state, n_max + 1):
            for sign in (1, -1):
                for t in buckets[n_state].get(sign * target_n % w, ()):
                    target = position[target_n, a * inverse[t] % q]
                    if not reached[target]:
                        reached[target] = True
                        links[target] = (source, t, sign)
    return links
