"""distinct_prime_factors against independent oracles: the sieve and trial division."""

import random
from math import isqrt

import numpy as np
import pytest

from aptuple._primes import PSI_12, _is_prime, _rho, distinct_prime_factors, primes_up_to

# The smallest strong pseudoprimes to the first 1, ..., 11 prime bases (OEIS A014233);
# psi_9 = psi_10 = psi_11.
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051,
)
SEMIPRIME_63_BIT = 2 * (2**31 - 1) * 2147483629
PRIMES_TO_1E6 = np.asarray(primes_up_to(10**6))


def _no_factor_up_to_1e6(n: int) -> bool:
    """n < 2^63 has no prime factor p <= 1e6 with p^2 <= n, by trial division.

    Below 1e12 that makes n prime.
    """
    primes = PRIMES_TO_1E6[PRIMES_TO_1E6 <= isqrt(n)]
    return not np.any(n % primes == 0)


def _check_factorization(n: int, factors: tuple[int, ...]) -> None:
    """The factors are sorted and distinct, divide n down to 1, and pass trial division."""
    assert list(factors) == sorted(set(factors)), factors
    rest = n
    for p in factors:
        assert p > 1 and rest % p == 0, (n, p)
        while rest % p == 0:
            rest //= p
        assert _no_factor_up_to_1e6(p), (n, p)
    assert rest == 1, (n, factors)


def test_primality_agrees_with_the_sieve():
    limit = 10**6
    flags = np.zeros(limit, dtype=bool)
    flags[np.asarray(primes_up_to(limit - 1))] = True
    got = np.array([_is_prime(n) for n in range(limit)])
    assert np.array_equal(got, flags), np.flatnonzero(got != flags)[:10]


def test_factors_agree_with_the_sieve_below_1e6():
    primes = set(primes_up_to(10**6))
    rng = random.Random(6)
    for n in rng.sample(range(1, 10**6), 2000):
        factors = distinct_prime_factors(n)
        assert (factors == (n,)) == (n in primes), n
        _check_factorization(n, factors)


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_strong_pseudoprimes_factor(n):
    factors = distinct_prime_factors(n)
    assert len(factors) > 1, factors
    _check_factorization(n, factors)


def test_psi_12_is_refused():
    with pytest.raises(ValueError, match=str(PSI_12)):
        distinct_prime_factors(PSI_12)
    # its cofactor stays at psi_12 after the small primes are divided out
    with pytest.raises(ValueError, match=str(2 * PSI_12)):
        distinct_prime_factors(2 * PSI_12)


def test_random_63_bit_numbers():
    rng = random.Random(2**63)
    for _ in range(1000):
        n = rng.randrange(1, 2**63)
        _check_factorization(n, distinct_prime_factors(n))


@pytest.mark.parametrize("n, want", [
    (SEMIPRIME_63_BIT, (2, 2147483629, 2147483647)),
    (1009 * 1013 * 1019 * 1021, (1009, 1013, 1019, 1021)),
    ((2**31 - 1) * 1009**2 * 1013, (1009, 1013, 2**31 - 1)),
    (1000003**2, (1000003,)),
    (2**61 - 1, (2**61 - 1,)),
    (2**100 * 3**5, (2, 3)),
])
def test_known_factorizations(n, want):
    assert distinct_prime_factors(n) == want


@pytest.mark.parametrize("p, q", [
    (1048583, 1572869),  # the next primes past 2^20 and 3 * 2^19
    (16777259, 25165843),
    (268435459, 402653189),
    (4294967311, 6442450967),
    (68719476767, 103079215111),
    (137438953481, 1099511627791),  # past 2^37 and 2^40
    (564499998971, 564499999997),  # 79 bits, just below psi_12
])
def test_semiprimes_split_into_their_two_primes(p, q):
    assert distinct_prime_factors(p * q) == (p, q)


@pytest.mark.parametrize("p, q", [(1009, 1709), (1013, 1109), (1021, 1039)])
def test_rho_retries_a_walk_that_closes_on_n(p, q):
    # with c = 1 the walk meets both factors in the same step, even replayed
    assert _rho(p * q) in (p, q)


def test_rejects_nonpositive():
    for n in (0, -6):
        with pytest.raises(ValueError):
            distinct_prime_factors(n)
