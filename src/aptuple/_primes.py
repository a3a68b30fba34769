"""Small shared prime utilities used across the package.

A cached odd-only sieve for bulk prime generation, and the one factoring
routine, distinct_prime_factors, for pattern distances, offsets and scale
factors. It trial-divides by the primes up to TRIAL_LIMIT, then certifies
each cofactor with Miller-Rabin at the twelve prime bases up to 37, which
is deterministic below PSI_12 (J. Sorenson and J. Webster, Math. Comp. 86,
2017), and splits composites with Brent's form of Pollard's rho (R. P.
Brent, BIT 20, 1980). trial_division_omega stays plain trial division: it
is the oracle the sieve tables are tested against.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd, isqrt

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


TRIAL_LIMIT = 1000
_TRIAL_PRIMES = tuple(_sieve_odd(TRIAL_LIMIT).tolist())
# The smallest composite that passes Miller-Rabin at every prime base up to 37 (OEIS A014233).
PSI_12 = 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def distinct_prime_factors(n: int) -> tuple[int, ...]:
    """Sorted distinct prime factors of n >= 1.

    Trial division by the primes up to TRIAL_LIMIT leaves a cofactor with
    no prime factor below it, so a cofactor below TRIAL_LIMIT^2 is prime.
    Larger ones are certified by _is_prime and split by _rho; a cofactor
    of PSI_12 or more cannot be certified and raises ValueError.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out, rest = [], n
    for p in _TRIAL_PRIMES:
        if p * p > rest:
            break
        if rest % p == 0:
            out.append(p)
            while rest % p == 0:
                rest //= p
    pending = [rest] if rest > 1 else []
    while pending:
        r = pending.pop()
        if r >= PSI_12:
            raise ValueError(f"cannot factor {n}: its cofactor {r} is >= psi_12 = {PSI_12}")
        if r < TRIAL_LIMIT**2 or _is_prime(r):
            out.append(r)
        else:
            d = _rho(r)
            pending += [d, r // d]
    return tuple(sorted(set(out)))


def _is_prime(n: int) -> bool:
    """Miller-Rabin at the prime bases up to 37, deterministic for 0 <= n < PSI_12."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of a composite n with no prime factor up to TRIAL_LIMIT.

    Pollard's rho walk y -> y^2 + c mod n with Brent's cycle finding: x
    stays put while y takes r steps, then jumps to y and r doubles. A walk
    whose gcd reaches n itself is retried with the next c.
    """
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(abs(x - y), n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


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
