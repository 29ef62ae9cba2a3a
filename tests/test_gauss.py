import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qwell.gauss import (
    coefficient_c,
    coefficient_exponent,
    factorization_residual,
    gauss_abs_sq,
    gauss_sum_direct,
    phase_alpha,
)


def brute_sum(a, k, q):
    return sum(cmath.exp(2j * cmath.pi * ((a * l * l + k * l) / q)) for l in range(q))


def coprime_residues(q):
    return [a for a in range(1, q + 1) if math.gcd(a, q) == 1]


def test_direct_examples():
    # 1 + 2 e(1/3) = i sqrt(3)
    assert abs(gauss_sum_direct(1, 0, 3) - 1j * math.sqrt(3.0)) < 1e-12
    assert abs(gauss_sum_direct(1, 0, 2)) < 1e-12
    assert abs(gauss_sum_direct(1, 1, 2) - 2.0) < 1e-12


def test_direct_rejects_reducible():
    with pytest.raises(ValueError):
        gauss_sum_direct(2, 0, 4)


@given(st.integers(-50, 50), st.integers(-20, 20), st.integers(1, 40))
def test_direct_matches_brute_force(a, k, q):
    if math.gcd(a, q) != 1:
        return
    assert abs(gauss_sum_direct(a, k, q) - brute_sum(a, k, q)) < 1e-9


def test_abs_law_examples():
    for k in range(7):
        assert gauss_abs_sq(3, k, 7) == 7
    assert gauss_abs_sq(1, 0, 4) == 8
    assert gauss_abs_sq(1, 1, 4) == 0
    assert math.sqrt(gauss_abs_sq(1, 0, 4)) == math.sqrt(8.0)


def test_abs_law_against_direct_sweep():
    for q in range(1, 21):
        for a in coprime_residues(q):
            for k in range(q):
                expected = math.sqrt(gauss_abs_sq(a, k, q))
                assert abs(abs(gauss_sum_direct(a, k, q)) - expected) < 1e-9


def test_coefficient_examples():
    assert coefficient_c(1, 3, 1) == cmath.exp(2j * cmath.pi * (1 / 3))
    assert coefficient_c(1, 2, 0) == 0j
    c = coefficient_c(1, 2, 1)
    assert c == cmath.exp(2j * cmath.pi * (1 / 8)) * math.sqrt(2.0)
    # cross-check against the direct sum: G(1,1,2) = 2 = sqrt(2) * sqrt(2)
    model = math.sqrt(2) * cmath.exp(1j * phase_alpha(1, 2)) * c
    assert abs(gauss_sum_direct(1, 1, 2).conjugate() - model) < 1e-12


def test_coefficient_matches_the_closed_form():
    """c(k) equals, bit for bit, e(x) from the Fraction exponent
    x = inv(4a) k^2 / q (odd q) or inv(a) k^2 / (4q) (even q), times sqrt(2)
    for even q and 0 when k + q/2 is odd, with the inverses mod q."""
    for q in range(1, 41):
        for a in coprime_residues(q):
            inv, modulus = (pow(4 * a, -1, q), q) if q % 2 else (pow(a, -1, q), 4 * q)
            for k in range(-2 * q, 2 * q + 1):
                if q % 2 == 0 and (k + q // 2) % 2:
                    expected = 0j
                else:
                    x = Fraction(inv * k * k % modulus, modulus)
                    expected = cmath.exp(2j * cmath.pi * float(x))
                    expected = expected if q % 2 else expected * math.sqrt(2.0)
                assert coefficient_c(a, q, k) == expected, (a, q, k)


@given(st.integers(-10**6, 10**6), st.integers(1, 500))
def test_coefficient_exponent_inverts_4a_mod_odd_q_and_a_mod_even_q(a, q):
    assume(math.gcd(a, q) == 1)
    inv, modulus = coefficient_exponent(a, q)
    assert 0 <= inv < q
    if q % 2:
        assert modulus == q and (inv * 4 * a - 1) % q == 0
    else:
        assert modulus == 4 * q and (inv * a - 1) % q == 0


@given(st.integers(-30, 30), st.integers(1, 30), st.integers(-100, 100))
def test_coefficient_invariant_under_k_negation(a, q, k):
    if math.gcd(a, q) != 1:
        return
    assert coefficient_c(a, q, k) == coefficient_c(a, q, -k)


def test_phase_examples():
    assert abs(cmath.exp(1j * phase_alpha(1, 1)) - 1.0) < 1e-12
    # G(1,0,3) = i sqrt(3), so conj(G) = sqrt(3) e^{i alpha} gives e^{i alpha} = -i
    assert abs(cmath.exp(1j * phase_alpha(1, 3)) + 1j) < 1e-12


def test_factorization_residual_random_sweep():
    rng = random.Random(11)
    for _ in range(60):
        q = rng.randint(1, 36)
        a = rng.choice(coprime_residues(q))
        assert factorization_residual(a, q) < 1e-9


def test_unitarity_sum_of_squares():
    for q in range(1, 31):
        for a in coprime_residues(q)[:4]:
            total = sum(abs(gauss_sum_direct(a, k, q)) ** 2 for k in range(q))
            assert abs(total - q * q) < 1e-6
