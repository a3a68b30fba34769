"""Singular-series evaluation for tuple patterns.

The constant attached to a pattern H of length m is the Euler product

    S(H) = prod_p (1 - nu_p / p) * (1 - 1/p)^(-m),

where nu_p counts the distinct residues of the offsets mod p, read from
patterns._residue_counts, the routine admissibility reads too. A prime
p > m that divides no distance h_j - h_i has nu_p = m, the generic value,
so S(H) is the generic product G(m) = prod_{p > m} (1 - m/p)(1 - 1/p)^(-m)
times the factors that differ from it: every prime p <= m, and each prime
p > m dividing a distance, whose factor exceeds the generic one by
(p - nu_p)/(p - m). Those primes are found by factoring the distinct
distances with _primes.distinct_prime_factors, so no prime bound enters:
the value is exact to rounding, and tail_bound bounds the rounding alone,
for every pattern whose distances, stripped of their primes up to 1000,
stay below PSI_12 (about 3.2e23): every pattern of offsets below 2^63.

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
import sys
from dataclasses import dataclass

import numpy as np

from ._primes import distinct_prime_factors, primes_up_to
from .patterns import Pattern, _int_array, _residue_counts

# Twin-prime constant prod_{p>2} (1 - 1/(p-1)^2), 17 digits.
TWIN_PRIME_C2 = 0.66016181584686957

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
    tail_bound is a conservative absolute bound on its rounding error.
    """

    value: float
    tail_bound: float
    admissible: bool


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


def selberg_constant(pattern: Pattern, _unused=None) -> SelbergResult:
    """Evaluate S(H) exactly, to rounding.

    Residue counts are read in one vectorized pass at the primes up to m
    and at the primes above m that divide a distance, found by factoring
    the distinct distances with distinct_prime_factors; a distance it
    cannot factor raises ValueError. Primes up to m enter with their full
    factor, those above m as log1p((m - nu_p)/(p - m)); the generic
    product G(m) supplies the rest. The log terms are summed with
    math.fsum and exponentiated once; a sum past the double range raises
    ValueError. The second parameter is accepted and ignored, for callers
    that still pass the prime limit of earlier versions.

    tail_bound = value * expm1(R), where R bounds the rounding error of
    log(value). With u = 2^-53, a log1p argument x is rounded by u|x|,
    which log1p turns into at most u|x|/(1 + x). Since
    |log1p(x)| <= |x|/(1 + x), log1p's own ulp adds at most twice that,
    and the product by m and the difference once. So each factor errs by at
    most 5u times its weight from _factors, each excess term log1p(y) by
    3u y, and each series term, five roundings of its own size, by 5u times
    its size: 5u W in all, with W the sum of these weights. fsum rounds the
    sum T once, within u|T|, and exp adds at most 2u relative. So
    R = 8u (W + |T| + 1) covers them all with room for second-order
    terms. The exact S lies within a factor e^R of value on either side,
    so |S - value| <= value * expm1(R).
    """
    m = len(pattern)
    if m > MAX_PATTERN_LENGTH:
        raise ValueError(f"pattern length {m} exceeds the bound {MAX_PATTERN_LENGTH}")
    if m == 1:
        # every factor is (1 - 1/p)(1 - 1/p)^(-1) = 1
        return SelbergResult(1.0, 0.0, admissible=True)

    offsets = pattern.offsets
    distances = {b - a for i, a in enumerate(offsets) for b in offsets[i + 1 :]}
    dividing = {p for d in distances for p in distinct_prime_factors(d) if p > m}
    direct = _int_array((*primes_up_to(m).tolist(), *sorted(dividing)))
    nu = _residue_counts(pattern, direct)
    if np.any(nu == direct):
        return SelbergResult(0.0, 0.0, admissible=False)

    p = direct.astype(np.float64)
    small = direct <= m
    excess = (m - nu[~small]) / (p[~small] - m)
    terms = [_factors(nu[small], p[small], m), (np.log1p(excess), excess), _generic_tail(m)]
    total = math.fsum(np.concatenate([logs for logs, _ in terms]))
    if total > math.log(sys.float_info.max):
        raise ValueError(f"S(H) overflows a double for a pattern of length {m}: log S = {total:.2f}")
    value = math.exp(total)
    rounding = math.ldexp(sum(float(np.sum(w)) for _, w in terms) + abs(total) + 1.0, -50)
    return SelbergResult(value, value * math.expm1(rounding), admissible=True)


def pair_constant_closed_form(n: int) -> float:
    """Closed-form S({0, N}) = 2 * C2 * prod_{p | N, p > 2} (p-1)/(p-2) for even N."""
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"need a positive even separation, got {n}")
    value = 2.0 * TWIN_PRIME_C2
    for p in distinct_prime_factors(n):
        if p > 2:
            value *= (p - 1) / (p - 2)
    return value
