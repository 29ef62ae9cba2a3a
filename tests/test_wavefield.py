import cmath
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _series_cutoff, series_oracle, special_time_identity_residual
from qwell.figures import density_samples
from qwell.gauss import coefficient_c
from qwell.wavefield import (
    PANELS,
    WellParams,
    density_p,
    initial_g,
    interval_I,
    psi_fractional,
)


def well_overlap_coefficient(lam, n_state: int, n: int) -> float:
    """Overlap of the initial state with the n-th eigenmode of the expanded
    well, from the closed-form product-to-sum antiderivative:

        c_n = (2 N lam^{3/2} / pi) (-1)^{N+1} sin(n pi / lam) / (N^2 lam^2 - n^2)

    with the limit value 1/sqrt(lam) when n = N lam exactly.
    """
    lam = Fraction(lam)
    if n < 1:
        raise ValueError("mode index must be >= 1")
    if Fraction(n) == n_state * lam:
        return 1.0 / math.sqrt(float(lam))
    lam_f = float(lam)
    sign = -1.0 if n_state % 2 == 0 else 1.0
    num = math.sin(n * math.pi / lam_f)
    den = (n_state * lam_f) ** 2 - n * n
    return 2.0 * n_state * lam_f ** 1.5 / math.pi * sign * num / den


def overlap_by_quadrature(lam, n_state, n, samples=200_001):
    """Simpson quadrature of (2/sqrt(lam)) integral_0^1 sin(N pi x) sin(n pi x / lam)."""
    lam = float(lam)
    xs = np.linspace(0.0, 1.0, samples)
    ys = np.sin(n_state * np.pi * xs) * np.sin(n * np.pi * xs / lam)
    h = 1.0 / (samples - 1)
    integral = h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())
    return 2.0 / math.sqrt(lam) * integral


def test_well_params_validation():
    with pytest.raises(ValueError):
        WellParams(Fraction(1), 1, Fraction(1, 3))
    with pytest.raises(ValueError):
        WellParams(Fraction(5, 2), 0, Fraction(1, 3))
    with pytest.raises(ValueError):
        WellParams(Fraction(5, 2), 1, Fraction(-1, 3))
    p = WellParams(Fraction(5, 2), 3, Fraction(13, 18))
    assert (p.a, p.q, p.n_lam.denominator) == (13, 18, 2)
    assert p.threshold == 9 and type(p.threshold) is int
    odd = WellParams(Fraction(5, 2), 1, Fraction(1, 3))
    assert odd.threshold == 3 and type(odd.threshold) is int


def test_well_params_keep_a_fraction_and_convert_other_inputs():
    lam, tau = Fraction(5, 2), Fraction(1, 3)
    kept = WellParams(lam, 1, tau)
    assert kept.lam is lam and kept.tau is tau
    for raw_lam, raw_tau, exact in [(3, 0, (Fraction(3), Fraction(0))),
                                    ("5/2", "1/3", (lam, tau)),
                                    (2.5, Fraction(1, 3), (lam, tau))]:
        p = WellParams(raw_lam, 2, raw_tau)
        assert type(p.lam) is Fraction and type(p.tau) is Fraction
        assert (p.lam, p.tau) == exact
        twin = WellParams(exact[0], 2, exact[1])
        assert p == twin and hash(p) == hash(twin)
    for bad_lam in (1, "1", Fraction(1), Fraction(1, 2), 0, -3):
        with pytest.raises(ValueError, match="expansion factor"):
            WellParams(bad_lam, 1, tau)
    for bad_n in (0, -1):
        with pytest.raises(ValueError, match="eigenstate"):
            WellParams(lam, bad_n, tau)
    for bad_tau in (-1, "-1/3", Fraction(-1, 3)):
        with pytest.raises(ValueError, match="fractional time"):
            WellParams(lam, 1, bad_tau)


def test_n_lam_is_computed_once_and_params_compare_as_before():
    p = WellParams(Fraction(5, 2), 3, Fraction(13, 18))
    fresh = pickle.dumps(p)
    assert p.n_lam == Fraction(15, 2)
    twin = WellParams(Fraction(5, 2), 3, Fraction(13, 18))
    assert p == twin and hash(p) == hash(twin)
    back = pickle.loads(fresh)
    assert back == p and hash(back) == hash(p) and (back.n_lam, back.n_lam.denominator) == (p.n_lam, 2)


def test_initial_g_examples():
    assert initial_g(0.0, Fraction(5, 2), 1) == 0.0
    lam, n = Fraction(5, 2), 2
    x = 1.0 / (4 * n * float(lam))
    assert abs(initial_g(x, lam, n) - 1.0) < 1e-12
    assert initial_g(0.5, Fraction(3, 2), 1) == 0.0


@settings(max_examples=1000)
@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_initial_g_is_odd_and_periodic(x):
    lam, n = Fraction(7, 2), 2
    assert initial_g(-x, lam, n) == -initial_g(x, lam, n)
    assert abs(initial_g(x + 1.0, lam, n) - initial_g(x, lam, n)) < 1e-9


def test_psi_at_time_zero_is_scaled_profile():
    p = WellParams(Fraction(5, 2), 1, Fraction(0))
    for x in (0.05, 0.13, 0.31, 0.49):
        assert abs(psi_fractional(x, p) - math.sqrt(2.0) * initial_g(x, p.lam, 1)) < 1e-12


def test_psi_half_period_reflection():
    p = WellParams(Fraction(5, 2), 2, Fraction(1, 2))
    p0 = WellParams(Fraction(5, 2), 2, Fraction(0))
    for x in (0.07, 0.21, 0.33, 0.44):
        assert abs(abs(psi_fractional(x, p)) - abs(psi_fractional(0.5 - x, p0))) < 1e-10


def test_interval_window_examples():
    p = WellParams(Fraction(5, 2), 1, Fraction(1, 3))
    assert interval_I(Fraction(1, 6), p) == [0, 1]
    frag = WellParams(Fraction(107, 10), 1, Fraction(2, 7))
    assert interval_I(Fraction(1, 14), frag) == []
    assert 0 in interval_I(Fraction(0), p)


def test_interval_of_a_float_is_that_of_its_exact_fraction():
    # float(1/5) lies just above the window edge 1/(2 lam) = 1/5 of k = 0
    p = WellParams(Fraction(5, 2), 1, Fraction(1, 3))
    assert interval_I(0.2, p) == interval_I(Fraction(0.2), p) == [1]
    for x in (0.0, 2 / 15, 1 / 6, 0.25, 7 / 15, 0.5):
        assert interval_I(x, p) == interval_I(Fraction(x), p)


def test_density_boundary_and_plateau():
    p = WellParams(Fraction(5, 2), 1, Fraction(1, 3))
    assert density_p(Fraction(0), p) == 0.0
    # constant on [2/15, 1/5]
    values = [density_p(x, p) for x in np.linspace(2 / 15 + 1e-6, 1 / 5 - 1e-6, 25)]
    assert max(values) - min(values) < 1e-9


# fragmentation at q = 7 and 12, even q, and q up to 40
ARRAY_CASES = [
    WellParams(Fraction(107, 10), 1, Fraction(2, 7)),
    WellParams(Fraction(107, 10), 2, Fraction(5, 12)),
    WellParams(Fraction(5, 2), 3, Fraction(13, 18)),
    WellParams(Fraction(3, 2), 2, Fraction(1, 4)),
    WellParams(Fraction(7, 3), 2, Fraction(3, 40)),
    WellParams(Fraction(11, 4), 1, Fraction(39, 40)),
]


def test_density_matches_wave_square():
    rng = random.Random(5)
    for _ in range(40):
        lam = rng.choice([Fraction(5, 2), Fraction(3, 2), Fraction(11, 4)])
        q = rng.randint(1, 9)
        residues = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        p = WellParams(lam, rng.randint(1, 3), Fraction(rng.choice(residues), q))
        x = rng.uniform(1e-3, 0.5 - 1e-3)
        direct = 2.0 * float(lam) * abs(psi_fractional(x, p)) ** 2
        assert abs(density_p(x, p) - direct) < 1e-9
    for p in ARRAY_CASES:
        xs = np.array([rng.uniform(1e-3, 0.5 - 1e-3) for _ in range(60)])
        values = density_p(xs, p)
        assert isinstance(values, np.ndarray) and values.shape == xs.shape
        for x, value in zip(xs, values):
            direct = 2.0 * float(p.lam) * abs(psi_fractional(x, p)) ** 2
            assert abs(value - direct) <= 1e-10 * max(1.0, direct)


def density_by_point(x: float, params: WellParams) -> float:
    """The per-point loop density_p used to run, kept as its reference: the
    float window, c(k) sin(2 pi N lam (x - k/q)) summed as complex numbers in
    ascending k, then abs() ** 2."""
    a, q = params.a, params.q
    half = 1.0 / (2.0 * float(params.lam))
    n_lam_f = float(params.n_lam)
    total = 0j
    for k in range(math.ceil(q * (x - half)), math.floor(q * (x + half)) + 1):
        c = coefficient_c(a, q, k)
        if c:
            total += c * math.sin(2.0 * math.pi * n_lam_f * (x - k / q))
    return 4.0 * float(params.lam) / q * abs(total) ** 2


def test_density_array_is_bit_identical_to_the_point_loop():
    # no tolerance: the figure bytes depend on every last bit, zero-level
    # samples included (they are pure rounding noise)
    for panel in PANELS:
        p = WellParams(*PANELS[panel])
        for samples in (2, 37, 2000):
            rows = density_samples(p, samples).tolist()
            assert rows == [[x, density_by_point(x, p)] for x, _ in rows]
    rng = random.Random(11)
    for p in ARRAY_CASES:
        rows = density_samples(p, 2000).tolist()
        assert rows == [[x, density_by_point(x, p)] for x, _ in rows]
        # unsorted points, including cell edges, one call or one point per call
        edges = [float(Fraction(m, p.q) + s / (2 * p.lam)) for m in range(p.q) for s in (-1, 1)]
        xs = np.array([rng.uniform(0.0, 0.5) for _ in range(200)] + edges)
        expected = [density_by_point(x, p) for x in xs.tolist()]
        assert density_p(xs, p).tolist() == expected
        assert [density_p(x, p) for x in xs.tolist()] == expected
        assert type(density_p(xs[0], p)) is float


def test_overlap_single_mode_at_unit_expansion():
    # with no expansion the initial state is exactly the N-th eigenmode
    for n_state in (1, 2, 3):
        for n in range(1, 12):
            c = well_overlap_coefficient(Fraction(1), n_state, n)
            assert abs(c - (1.0 if n == n_state else 0.0)) < 1e-12


def test_overlap_profile_for_ground_initial_state():
    # coefficients proportional to sin(pi n / lam) / (n^2 - lam^2)
    lam = Fraction(5, 2)
    lam_f = float(lam)
    ratios = []
    for n in (2, 3, 4, 7):
        profile = math.sin(math.pi * n / lam_f) / (n * n - lam_f * lam_f)
        ratios.append(well_overlap_coefficient(lam, 1, n) / profile)
    for r in ratios[1:]:
        assert abs(r - ratios[0]) < 1e-10


def test_overlap_integer_expansion_limit():
    # lam = |n| / N forces the 0/0 coefficient to its limit value
    assert abs(well_overlap_coefficient(Fraction(2), 1, 2) - 1 / math.sqrt(2.0)) < 1e-12
    assert abs(
        well_overlap_coefficient(Fraction(2), 1, 2) - overlap_by_quadrature(2.0, 1, 2)
    ) < 1e-10


@pytest.mark.parametrize(
    "lam,n_state,n",
    [(Fraction(5, 2), 1, 2), (Fraction(5, 2), 3, 5), (Fraction(13, 6), 2, 1), (Fraction(3, 2), 3, 9)],
)
def test_overlap_closed_form_matches_quadrature(lam, n_state, n):
    closed = well_overlap_coefficient(lam, n_state, n)
    assert abs(closed - overlap_by_quadrature(lam, n_state, n)) < 1e-9


def oracle_coefficient_norm(params: WellParams, tol: float = 1e-10) -> float:
    """sum of c_n^2 up to the oracle cutoff; equals the unit initial norm up
    to the guaranteed tail."""
    n_terms = _series_cutoff(float(params.lam), params.n_state, tol)
    return sum(
        well_overlap_coefficient(params.lam, params.n_state, n) ** 2
        for n in range(1, n_terms + 1)
    )


def test_oracle_norm_is_conserved():
    for lam, n_state in [(Fraction(5, 2), 1), (Fraction(7, 2), 3)]:
        p = WellParams(lam, n_state, Fraction(1, 3))
        assert abs(oracle_coefficient_norm(p) - 1.0) < 1e-10


def test_oracle_matches_fractional_formula_spot():
    p = WellParams(Fraction(5, 2), 1, Fraction(1, 3))
    for x in (0.11, 0.26, 0.43):
        via_sums = psi_fractional(x, p)
        via_series = series_oracle(2 * float(p.lam) * x, Fraction(1, 3), p)
        assert abs(via_sums - via_series) < 1e-7


def test_oracle_rejects_bad_tolerance():
    p = WellParams(Fraction(5, 2), 1, Fraction(1, 3))
    with pytest.raises(ValueError):
        series_oracle(0.3, Fraction(1, 3), p, tol=0.0)


def test_stationary_single_mode_is_time_independent():
    # contrived single-mode initial data: amplitude must not depend on t
    coeffs = {3: 0.7 + 0.1j, -3: -(0.7 + 0.1j)}
    values = []
    for tau in (0.0, 0.125, 0.25, 0.37):
        total = sum(
            a * cmath.exp(2j * math.pi * (n * 0.29 - n * n * tau)) for n, a in coeffs.items()
        )
        values.append(abs(total))
    assert max(values) - min(values) < 1e-12


def test_identity_half_single_pair():
    coeffs = {1: 1.0 + 0j, -1: -1.0 + 0j}
    assert special_time_identity_residual("half", coeffs, 0.37, lam=1.7) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_identities_random_antisymmetric(seed):
    rng = random.Random(seed)
    coeffs = {}
    for _ in range(rng.randint(1, 20)):
        n = rng.randint(1, 30)
        a_n = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        coeffs[n] = a_n
        coeffs[-n] = -a_n
    x = rng.uniform(-2.0, 2.0)
    lam = rng.uniform(1.1, 4.0)
    for which in ("half", "quarter", "eighth"):
        assert special_time_identity_residual(which, coeffs, x, lam) < 1e-10


def test_identity_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        special_time_identity_residual("half", {1: 1.0, -1: 1.0}, 0.2)
    with pytest.raises(ValueError):
        special_time_identity_residual("half", {2: 1.0}, 0.2)
    with pytest.raises(ValueError):
        special_time_identity_residual("third", {1: 1.0, -1: -1.0}, 0.2)
