"""Small shared prime utilities used across the package.

Everything here is deliberately boring: a cached boolean sieve for bulk
prime generation, trial-division primality for tiny arguments, and
trial-division factorization for the small integers that appear in
pattern offsets and scale factors.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

_prime_cache: dict[int, np.ndarray] = {}


def primes_up_to(n: int) -> np.ndarray:
    """Return all primes <= n as an int64 array (cached per bound)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    cached = _prime_cache.get(n)
    if cached is not None:
        return cached
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.nonzero(sieve)[0].astype(np.int64)
    primes.flags.writeable = False
    if len(_prime_cache) > 16:
        _prime_cache.clear()
    _prime_cache[n] = primes
    return primes


def is_prime(n: int) -> bool:
    """Trial-division primality, adequate for the small moduli used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def distinct_prime_factors(n: int) -> tuple[int, ...]:
    """Sorted distinct prime factors of n >= 1 by trial division."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d = 3 if d == 2 else d + 2
    if n > 1:
        out.append(n)
    return tuple(out)


def trial_division_omega(n: int) -> int:
    """Prime factors of n counted with multiplicity by naive trial division.

    The oracle the sieve tables are tested against; 0 and 1 map to 0.
    """
    if n < 2:
        return 0
    count = 0
    d = 2
    while d * d <= n:
        while n % d == 0:
            count += 1
            n //= d
        d = 3 if d == 2 else d + 2
    if n > 1:
        count += 1
    return count
