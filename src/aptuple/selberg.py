"""Singular-series evaluation for tuple patterns.

The constant attached to a pattern H of length m is the Euler product

    S(H) = prod_p (1 - nu_p / p) * (1 - 1/p)^(-m),

where nu_p counts the distinct residues of the offsets mod p, read from
patterns._residue_counts, the routine admissibility reads too. For primes
beyond the largest offset every factor has nu_p = m and deviates from 1 by
O(m^2 / p^2), so the product is truncated at a prime bound with an explicit
tail estimate. For pairs {0, N} with N even the product collapses to the
closed form 2 * C2 * prod_{p | N, p odd} (p - 1)/(p - 2) around the
twin-prime constant C2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._primes import primes_up_to, distinct_prime_factors
from .patterns import Pattern, _int_array, _residue_counts

# Twin-prime constant prod_{p>2} (1 - 1/(p-1)^2), 17 digits.
TWIN_PRIME_C2 = 0.66016181584686957

# Largest prime_limit accepted: a series at 1e9 already peaks near 0.9 GB of RSS.
PRIME_LIMIT_BOUND = 10**9
GENERIC_CHUNK = 1 << 16  # primes per generic-product step; bounds its float temporaries


@dataclass(frozen=True)
class SelbergResult:
    """Truncated singular-series value with tail accounting.

    value is exactly 0 when some factor vanishes (inadmissible pattern);
    prime_limit is the largest prime actually included; tail_bound is a
    conservative absolute bound on the truncation error.
    """

    value: float
    prime_limit: int
    tail_bound: float
    admissible: bool


def _omitted_divisor_excess(pattern: Pattern, primes: np.ndarray, prime_bound: int) -> float:
    """Bound on sum_{p > P} (m - nu_p) / (p - m) over primes dividing a distance.

    An omitted prime p that divides some distance h_j - h_i has nu_p < m,
    so its factor exceeds the generic one by (1 - nu_p/p) / (1 - m/p) =
    1 + (m - nu_p)/(p - m): first order, not second. Since m - nu_p is at
    most the number of distances p divides, summing 1/(p - m) over the
    prime factors p > P of every distance bounds the log of the excess.
    Each distance is stripped of its primes <= P; a cofactor r below
    (P + 1)^2 is itself the one prime left, a larger one has at most
    log(r) / log(P + 1) prime factors, each at least P + 1.
    """
    m = len(pattern)
    if pattern.max_offset <= prime_bound:
        return 0.0  # no distance has a prime factor above P
    total = 0.0
    for i, hi in enumerate(pattern.offsets):
        for hj in pattern.offsets[i + 1 :]:
            r = hj - hi
            for p in primes[_int_array((r,)) % primes == 0].tolist():
                while r % p == 0:
                    r //= p
            if r == 1:
                continue
            if r < (prime_bound + 1) ** 2:
                total += 1.0 / (r - m)
            else:
                count = 0
                power = prime_bound + 1
                while power <= r:
                    count += 1
                    power *= prime_bound + 1
                total += count / (prime_bound + 1 - m)
    return total


def _tail_bound(value: float, pattern: Pattern, primes: np.ndarray, prime_bound: int) -> float:
    # generic omitted factors are 1 + O(m^2/p^2), sum_{p>P} 1/p^2 < 1/(P log P);
    # omitted primes dividing a distance add a first-order excess on top.
    # selberg_constant calls it only for admissible patterns with m >= 2, so
    # value > 0 and prime_bound >= m >= 2 (checked by _check_prime_limit).
    m = len(pattern)
    log_rel = m * m / (prime_bound * math.log(prime_bound))
    log_rel += _omitted_divisor_excess(pattern, primes, prime_bound)
    return abs(value) * math.expm1(log_rel)


def _check_prime_limit(prime_limit: int, m: int = 0) -> None:
    """Reject a prime bound below the pattern length m, or whose primes would not fit in memory."""
    if prime_limit < m:
        raise ValueError(f"prime_limit {prime_limit} must be >= pattern length {m}")
    if prime_limit > PRIME_LIMIT_BOUND:
        raise ValueError(
            f"prime_limit {prime_limit} exceeds the bound {PRIME_LIMIT_BOUND}"
        )


def _factors(nu, p: np.ndarray, m: int) -> np.ndarray:
    """log of (1 - nu_p/p)(1 - 1/p)^(-m) per prime p."""
    return np.log1p(-nu / p) - m * np.log1p(-1.0 / p)


@functools.lru_cache(maxsize=64)
def _generic_product(m: int, prime_limit: int) -> float:
    """Sum of the generic log factors (nu_p = m) over primes m < p <= prime_limit.

    Every pattern of length m shares these factors beyond its largest
    offset, so a process works them out once per (m, prime_limit), in
    chunks that keep the float temporaries small at any limit.
    """
    primes = primes_up_to(prime_limit)
    first = int(np.searchsorted(primes, m, side="right"))
    return math.fsum(
        float(np.sum(_factors(m, primes[lo : lo + GENERIC_CHUNK].astype(np.float64), m)))
        for lo in range(first, len(primes), GENERIC_CHUNK)
    )


def selberg_constant(pattern: Pattern, prime_limit: int = 10**6) -> SelbergResult:
    """Evaluate S(H) over all primes p <= prime_limit.

    Primes up to max(m, h_max) get their residue count computed directly,
    all in one vectorized pass; beyond that all offsets are distinct mod p
    and nu_p = m, so those factors come from the per-process generic sum
    over m < p <= prime_limit, less the ones already counted directly.
    Every factor is summed as a log and exponentiated once.
    """
    m = len(pattern)
    _check_prime_limit(prime_limit, m)

    primes = primes_up_to(prime_limit)
    included = int(primes[-1]) if len(primes) else 0
    if m == 1:
        # every factor is (1 - 1/p)(1 - 1/p)^(-1) = 1, no truncation error
        return SelbergResult(1.0, included, 0.0, admissible=True)

    direct = primes[: int(np.searchsorted(primes, max(m, pattern.max_offset), side="right"))]
    nu = _residue_counts(pattern, direct)
    if np.any(nu == direct):
        return SelbergResult(0.0, included, 0.0, admissible=False)

    p = direct.astype(np.float64)
    total = float(np.sum(_factors(nu, p, m)))
    if len(direct) < len(primes):
        generic = _generic_product(m, prime_limit)
        counted = float(np.sum(_factors(m, p[p > m], m)))
        total += generic - counted
    value = math.exp(total)

    return SelbergResult(
        value=value,
        prime_limit=included,
        tail_bound=_tail_bound(value, pattern, primes, prime_limit),
        admissible=True,
    )


def pair_constant_closed_form(n: int) -> float:
    """Closed-form S({0, N}) = 2 * C2 * prod_{p | N, p > 2} (p-1)/(p-2) for even N."""
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"need a positive even separation, got {n}")
    value = 2.0 * TWIN_PRIME_C2
    for p in distinct_prime_factors(n):
        if p > 2:
            value *= (p - 1) / (p - 2)
    return value


def triple_constant_closed_form(prime_limit: int = 10**6) -> float:
    """S({0,2,6}) = 9/2 * prod_{p >= 5} (1 - (3p-1)/(p-1)^3), truncated."""
    _check_prime_limit(prime_limit)
    primes = primes_up_to(prime_limit).astype(np.float64)
    primes = primes[primes >= 5]
    log_total = float(np.sum(np.log1p(-(3.0 * primes - 1.0) / (primes - 1.0) ** 3)))
    return 4.5 * math.exp(log_total)

