"""Small shared prime utilities used across the package.

Everything here is deliberately boring: a cached odd-only sieve for bulk
prime generation, and trial-division factorization for the small integers
that appear in pattern offsets and scale factors.
"""

from __future__ import annotations

import functools
from math import isqrt

import numpy as np


@functools.lru_cache(maxsize=16)
def primes_up_to(n: int) -> np.ndarray:
    """Return all primes <= n as a read-only int64 array (cached per bound)."""
    primes = _sieve_odd(n)
    primes.flags.writeable = False
    return primes


def _sieve_odd(n: int) -> np.ndarray:
    """Primes <= n, sieving odd numbers only and crossing off base primes only."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)  # odd[i] stands for 2i + 1
    for p in _sieve_odd(isqrt(n))[1:].tolist():
        odd[p * p // 2 :: p] = False
    # in place, so at 1e9 only the 500 MB of flags and the 407 MB of primes are live
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2  # odd[0] stands for 1, which is never crossed off
    return primes


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
