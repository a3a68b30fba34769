"""Singular-series evaluation for tuple patterns.

The constant attached to a pattern H of length m is the Euler product

    S(H) = prod_p (1 - nu_p / p) * (1 - 1/p)^(-m),

where nu_p counts the distinct residues of the offsets mod p, read from
patterns._residue_counts, the routine admissibility reads too. A prime
p > m that divides no distance h_j - h_i has nu_p = m, the generic value,
so S(H) is the generic product G(m) = prod_{p > m} (1 - m/p)(1 - 1/p)^(-m)
times the factors that differ from it: every prime p <= m, and each prime
p > m dividing a distance, whose factor exceeds the generic one by
(p - nu_p)/(p - m). Only primes up to the largest offset can divide a
distance, and only those up to prime_limit are examined, so for patterns
with h_max <= prime_limit the value is exact to rounding and does not
depend on prime_limit. A wider pattern reads its primes above the limit
as generic, and tail_bound covers those that divide a distance.

G(m) is exact too. Past TAIL_START every generic log factor is the power
series log((1 - m/p)(1 - 1/p)^(-m)) = sum_{j >= 2} (m - m^j)/j * p^(-j),
so the primes above it add sum_j (m - m^j)/j * P(j), where
P(j) = sum_{p > TAIL_START} p^(-j) is tabulated in PRIME_ZETA_TAIL
(H. Cohen, "High precision computation of Hardy-Littlewood constants",
1998; P. Moree, Manuscripta Math. 101, 2000). With m <= MAX_PATTERN_LENGTH
the ratio m/p stays below 1/2, and the terms past j = 64 sum to below
1e-20, far under rounding.

For pairs {0, N} with N even the product collapses to the closed form
2 * C2 * prod_{p | N, p odd} (p - 1)/(p - 2) around the twin-prime
constant C2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._primes import primes_up_to, distinct_prime_factors
from .patterns import Pattern, _int_array, _residue_counts

# Twin-prime constant prod_{p>2} (1 - 1/(p-1)^2), 17 digits.
TWIN_PRIME_C2 = 0.66016181584686957

# Largest prime_limit accepted: a pattern wider than 1e9 sieves to it, near 0.9 GB of RSS.
PRIME_LIMIT_BOUND = 10**9
# Longest pattern accepted: m/p < 1/2 past TAIL_START keeps the 64-term series complete.
MAX_PATTERN_LENGTH = 500
TAIL_START = 1000

# P(j) = sum_{p > 1000} p^(-j) for j = 2, ..., 64: mpmath.primezeta(j) less the
# primes up to 1000, at 260 digits, rounded to double.
PRIME_ZETA_TAIL = np.array([
    0.0001269897917609165, 6.731035853584031e-08, 4.5989513361621654e-11, 3.502178948875813e-14,
    2.833469569598374e-17, 2.3828278392800027e-20, 2.0582708842361325e-23, 1.8131349764718284e-26,
    1.6212315568187997e-29, 1.466734639367853e-32, 1.339522996432001e-35, 1.232826602987239e-38,
    1.1419484411175392e-41, 1.0635290243024605e-44, 9.951026950222047e-48, 9.348191666046257e-51,
    8.812628198101403e-54, 8.333320093985673e-57, 7.901564014943757e-60, 7.51039090044641e-63,
    7.154152570985873e-66, 6.828221211003198e-69, 6.528767387355914e-72, 6.25259368055618e-75,
    5.997008333971572e-78, 5.7597281252302125e-81, 5.538802866148937e-84, 5.332556110818556e-87,
    5.139538149924382e-90, 4.958488417661442e-93, 4.788305180947256e-96, 4.628020914435309e-99,
    4.476782152703241e-102, 4.3338328959508475e-105, 4.198500857072523e-108, 4.070185996516788e-111,
    3.94835091126587e-114, 3.8325127357472705e-117, 3.7222362828320046e-120, 3.6171282075715116e-123,
    3.5168320188453084e-126, 3.4210237974876096e-129, 3.3294085058559416e-132, 3.241716794789809e-135,
    3.1577022306852784e-138, 3.077138878896911e-141, 2.99981919057287e-144, 2.925552148872682e-147,
    2.854161637729372e-150, 2.785485002225473e-153, 2.7193717745123926e-156, 2.6556825432169716e-159,
    2.5942879476081076e-162, 2.535067780567568e-165, 2.4779101867245786e-168, 2.422710944055366e-171,
    2.369372818882542e-174, 2.3178049855885453e-177, 2.26792250352569e-180, 2.2196458445981395e-183,
    2.172900465837334e-186, 2.127616422015805e-189, 2.083728013964588e-192,
])


@dataclass(frozen=True)
class SelbergResult:
    """Singular-series value with error accounting.

    value is exactly 0 when some factor vanishes (inadmissible pattern);
    prime_limit is the bound up to which residue counts were read;
    tail_bound is a conservative absolute bound on the error, from rounding
    and, for offsets past prime_limit, from the primes above it that divide
    a distance.
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


def _check_prime_limit(prime_limit: int, m: int = 0) -> None:
    """Reject a pattern too long for the generic series, or a prime bound below
    its length m or whose primes would not fit in memory."""
    if m > MAX_PATTERN_LENGTH:
        raise ValueError(f"pattern length {m} exceeds the bound {MAX_PATTERN_LENGTH}")
    if prime_limit < m:
        raise ValueError(f"prime_limit {prime_limit} must be >= pattern length {m}")
    if prime_limit > PRIME_LIMIT_BOUND:
        raise ValueError(f"prime_limit {prime_limit} exceeds the bound {PRIME_LIMIT_BOUND}")


def _factors(nu, p: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """log of (1 - nu_p/p)(1 - 1/p)^(-m) per prime p, and its rounding weight.

    The weight nu_p/(p - nu_p) + m/(p - 1) is |x|/(1 + x) for the two log1p
    arguments x = -nu_p/p and -1/p, the second times m; selberg_constant
    bounds the rounding with it.
    """
    return np.log1p(-nu / p) - m * np.log1p(-1.0 / p), nu / (p - nu) + m / (p - 1.0)


def _generic_tail(m: int) -> tuple[np.ndarray, np.ndarray]:
    """log terms of G(m) = prod_{p > m} (1 - m/p)(1 - 1/p)^(-m), and their rounding weights.

    One term per prime m < p <= TAIL_START, then one per j of the series
    sum_{j=2}^{64} (m - m^j)/j * P(j) over the primes above it.
    """
    primes = primes_up_to(TAIL_START)
    logs, weights = _factors(m, primes[primes > m].astype(np.float64), m)
    j = np.arange(2, 2 + len(PRIME_ZETA_TAIL), dtype=np.float64)
    series = (m - float(m) ** j) / j * PRIME_ZETA_TAIL
    return np.concatenate([logs, series]), np.concatenate([weights, np.abs(series)])


def selberg_constant(pattern: Pattern, prime_limit: int = 10**6) -> SelbergResult:
    """Evaluate S(H), reading residue counts directly for primes p <= prime_limit.

    Primes up to min(max(m, h_max), prime_limit) get their residue count
    computed directly, all in one vectorized pass. Those up to m enter
    with their full factor, those above m only where they divide a
    distance, as log1p((m - nu_p)/(p - m)); the generic product G(m)
    supplies the rest. The log terms are summed with math.fsum and
    exponentiated once.

    tail_bound = value * expm1(E + R). E is _omitted_divisor_excess, the
    bound on the log of the factors that primes above prime_limit dividing
    a distance would add (0 when h_max <= prime_limit). R bounds the
    rounding error of log(value). With u = 2^-53, a log1p argument x is
    rounded by u|x|, which log1p turns into at most u|x|/(1 + x). Since
    |log1p(x)| <= |x|/(1 + x), log1p's own ulp adds at most twice that,
    and the product by m and the difference once. So each factor errs by at
    most 5u times its weight from _factors, each excess term log1p(y) by
    3u y, and each series term, five roundings of its own size, by 5u times
    its size: 5u W in all, with W the sum of these weights. fsum rounds the
    sum T once, within u|T|, and exp adds at most 2u relative. So
    R = 8u (W + |T| + 1) covers them all with room for second-order
    terms. The exact S lies within a factor e^(E + R) of value on either
    side, so |S - value| <= value * expm1(E + R).
    """
    m = len(pattern)
    _check_prime_limit(prime_limit, m)
    if m == 1:
        # every factor is (1 - 1/p)(1 - 1/p)^(-1) = 1
        return SelbergResult(1.0, prime_limit, 0.0, admissible=True)

    direct = primes_up_to(min(max(m, pattern.max_offset), prime_limit))
    nu = _residue_counts(pattern, direct)
    if np.any(nu == direct):
        return SelbergResult(0.0, prime_limit, 0.0, admissible=False)

    p = direct.astype(np.float64)
    small = direct <= m
    dividing = ~small & (nu < m)
    excess = (m - nu[dividing]) / (p[dividing] - m)
    terms = [_factors(nu[small], p[small], m), (np.log1p(excess), excess), _generic_tail(m)]
    total = math.fsum(np.concatenate([logs for logs, _ in terms]))
    value = math.exp(total)
    rounding = math.ldexp(sum(float(np.sum(w)) for _, w in terms) + abs(total) + 1.0, -50)
    omitted = _omitted_divisor_excess(pattern, direct, prime_limit)
    return SelbergResult(value, prime_limit, value * math.expm1(omitted + rounding), admissible=True)


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

