"""Exact ring arithmetic tests, cross-checked against complex floats."""

import cmath
import math
import random

import pytest

from npseq.cyclotomic import PRIME_TEST_LIMIT, CyclotomicInt, is_prime

PRIMES = [2, 3, 5, 7, 11]


def random_element(rng, p, span=20):
    return CyclotomicInt.from_coeffs(
        p, [rng.randint(-span, span) for _ in range(p)]
    )


def test_root_powers_canonical():
    assert CyclotomicInt.from_root_power(3, 0).coeffs == (1, 0, 0)
    # zeta_3^2 = -1 - zeta_3 once the vanishing-sum relation is applied
    assert CyclotomicInt.from_root_power(3, 2).coeffs == (-1, -1, 0)
    assert CyclotomicInt.from_root_power(5, 4).coeffs == (-1, -1, -1, -1, 0)


def test_root_power_validation():
    with pytest.raises(ValueError):
        CyclotomicInt.from_root_power(4, 1)
    with pytest.raises(ValueError):
        CyclotomicInt.from_root_power(3, 3)
    with pytest.raises(ValueError):
        CyclotomicInt.from_root_power(3, -1)


def test_add_mul_conj_examples():
    z = lambda p, b: CyclotomicInt.from_root_power(p, b)
    assert (z(3, 1) + z(3, 2) + z(3, 0)).is_zero
    assert z(5, 2) * z(5, 4) == z(5, 1)
    assert z(7, 3).conjugate() == z(7, 4)


def test_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        CyclotomicInt.from_root_power(3, 1) + CyclotomicInt.from_root_power(5, 1)
    with pytest.raises(ValueError):
        CyclotomicInt.from_root_power(3, 1) * CyclotomicInt.from_root_power(5, 1)


def test_as_int():
    two_zetas = CyclotomicInt.from_coeffs(3, [0, 2, 2])
    assert two_zetas.as_int() == -2
    mixed = CyclotomicInt.from_coeffs(5, [0, 1, 1, 0, 0])
    assert mixed.as_int() is None
    assert CyclotomicInt.zero(3).as_int() == 0
    assert CyclotomicInt.from_int(7, -9).as_int() == -9


def test_vanishing_sum_of_all_roots():
    for p in PRIMES:
        total = CyclotomicInt.zero(p)
        for b in range(p):
            total = total + CyclotomicInt.from_root_power(p, b)
        assert total.is_zero


def test_canonicalization_idempotent_and_unique():
    rng = random.Random(7)
    for p in PRIMES:
        for _ in range(50):
            raw = [rng.randint(-30, 30) for _ in range(p)]
            x = CyclotomicInt.from_coeffs(p, raw)
            again = CyclotomicInt.from_coeffs(p, x.coeffs)
            assert x == again
            # adding a multiple of the all-ones vector changes nothing
            shifted = CyclotomicInt.from_coeffs(p, [c + 4 for c in raw])
            assert shifted == x


def test_conj_is_multiplicative_and_norm_nonnegative():
    rng = random.Random(11)
    for p in PRIMES:
        for _ in range(30):
            x = random_element(rng, p)
            y = random_element(rng, p)
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()
            norm = (x * x.conjugate()).to_complex()
            assert norm.real >= -1e-9
            assert abs(norm.imag) <= 1e-9


def test_float_homomorphism_fuzz():
    rng = random.Random(13)
    for p in PRIMES:
        for _ in range(200):
            x = random_element(rng, p)
            y = random_element(rng, p)
            assert cmath.isclose(
                (x + y).to_complex(), x.to_complex() + y.to_complex(), abs_tol=1e-9
            )
            assert cmath.isclose(
                (x * y).to_complex(), x.to_complex() * y.to_complex(), abs_tol=1e-8
            )
            assert cmath.isclose(
                x.conjugate().to_complex(),
                x.to_complex().conjugate(),
                abs_tol=1e-9,
            )


def test_unique_canonical_form_matches_floats():
    # distinct canonical vectors evaluate to distinct complex numbers
    rng = random.Random(17)
    for p in [3, 5, 7]:
        seen = {}
        for _ in range(300):
            x = random_element(rng, p, span=5)
            key = (round(x.to_complex().real, 6), round(x.to_complex().imag, 6))
            if key in seen:
                assert seen[key] == x.coeffs
            else:
                seen[key] = x.coeffs


def test_is_prime():
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    sieve = [trial_division(n) for n in range(2 * 10**5)]
    assert [is_prime(n) for n in range(2 * 10**5)] == sieve


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to every prime base up to 23
        318665857834031151167461,  # strong pseudoprime to every prime base up to 37
        (10**9 + 7) * (10**9 + 9),
    ],
)
def test_strong_pseudoprimes_rejected(n):
    assert not is_prime(n)


def test_large_primes_and_limit():
    assert is_prime(2**61 - 1) and is_prime(10**18 + 3)
    assert not is_prime(PRIME_TEST_LIMIT - 1)  # even
    with pytest.raises(ValueError, match="limit of the exact primality test"):
        is_prime(PRIME_TEST_LIMIT)


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError):
        CyclotomicInt.from_coeffs(6, [0] * 6)
    with pytest.raises(ValueError):
        CyclotomicInt.zero(1)


def test_p2_is_signed_integers():
    minus_one = CyclotomicInt.from_root_power(2, 1)
    assert minus_one.as_int() == -1
    assert (minus_one * minus_one).as_int() == 1
    assert math.isclose(minus_one.to_complex().real, -1.0)
