"""Theoretical count formulas for almost primes and tuple predictions.

Single-number counts follow

    x / log x * (log log x)^(k-1) / (k-1)!

optionally multiplied by the second-order bracket

    1 + ((k-1)*gamma - k(k-1)/2 + C) / log log x,

where C depends on whether factors are counted distinct or with
multiplicity. The tuple prediction multiplies a singular-series value by
x / (log x)^m and one factorial-normalized loglog power per position.
"""

from __future__ import annotations

import math

import numpy as np

from ._primes import primes_up_to
from .patterns import Requirements

EULER_GAMMA = float(np.euler_gamma)

# Second-order bracket constants, 6 digits, for the distinct-factor and
# multiplicity-counting variants. LANDAU_C2 is unrelated to the twin-prime
# constant despite the shared symbol in the literature, and its reference
# value does not equal the prime sum sum_p (log(1-1/p) + 1/(p-1)) = 0.45744
# that nominally defines it; it is kept as the published 6-digit figure and
# landau_constant_prime_sum exposes the sums themselves.
LANDAU_C1 = -0.315718
LANDAU_C2 = 0.754916

MAX_DEMAND = 20  # factorials kept exact; no realistic requirement exceeds this
MIN_X = 100.0  # below this log log x dips toward 0 and the powers misbehave


def landau_constant_prime_sum(variant: str, prime_limit: int = 10**7) -> float:
    """Truncated defining sum for the second-order constants.

    'distinct' sums log(1-1/p) + 1/p; 'multiplicity' sums
    log(1-1/p) + 1/(p-1). Tail beyond P is O(1/(P log P)).
    """
    ps = primes_up_to(prime_limit).astype(np.float64)
    if variant == "distinct":
        return float(np.sum(np.log1p(-1.0 / ps) + 1.0 / ps))
    if variant == "multiplicity":
        return float(np.sum(np.log1p(-1.0 / ps) + 1.0 / (ps - 1.0)))
    raise ValueError(f"variant must be 'distinct' or 'multiplicity', got {variant!r}")


def _check_x(x: float) -> None:
    if x < MIN_X:
        raise ValueError(f"need x >= {MIN_X:.0f} for the asymptotic regime, got {x}")


def second_order_bracket(x: float, k: int, variant: str = "multiplicity") -> float:
    """The correction factor 1 + ((k-1)*gamma - k(k-1)/2 + C) / log log x."""
    _check_x(x)
    if variant == "distinct":
        c = LANDAU_C1
    elif variant == "multiplicity":
        c = LANDAU_C2
    else:
        raise ValueError(f"variant must be 'distinct' or 'multiplicity', got {variant!r}")
    loglog = math.log(math.log(x))
    return 1.0 + ((k - 1) * EULER_GAMMA - k * (k - 1) / 2.0 + c) / loglog


def almost_prime_count_asymptotic(
    x: float, k: int, order: str = "leading", variant: str = "multiplicity"
) -> float:
    """Predicted count of k-almost primes up to x.

    The leading term is identical for both variants; only the
    second-order bracket distinguishes distinct from multiplicity
    counting.
    """
    _check_x(x)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if k > MAX_DEMAND:
        raise ValueError(f"factor-count demand {k} beyond supported range {MAX_DEMAND}")
    if variant not in ("distinct", "multiplicity"):
        raise ValueError(f"variant must be 'distinct' or 'multiplicity', got {variant!r}")
    logx = math.log(x)
    loglog = math.log(logx)
    leading = x / logx * loglog ** (k - 1) / math.factorial(k - 1)
    if order == "leading":
        return leading
    if order == "second-order":
        return leading * second_order_bracket(x, k, variant)
    raise ValueError(f"order must be 'leading' or 'second-order', got {order!r}")


def successor_ratio(x: float, k: int) -> float:
    """log log x / k, the k -> k+1 count ratio; > 1 exactly while k < log log x."""
    _check_x(x)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return math.log(math.log(x)) / k


def loglog_power_product(requirements: Requirements, x: float) -> float:
    """prod_i (log log x)^(k_i - 1) / (k_i - 1)!.

    Factors multiply in sorted demand order so any permutation of the
    requirements produces the bit-identical value.
    """
    _check_x(x)
    loglog = math.log(math.log(x))
    value = 1.0
    for k in sorted(requirements.demands):
        if k > MAX_DEMAND:
            raise ValueError(f"factor-count demand {k} beyond supported range {MAX_DEMAND}")
        value *= loglog ** (k - 1) / math.factorial(k - 1)
    return value


def predicted_tuple_count(
    series: float,
    requirements: Requirements,
    x: float,
    correction: float = 1.0,
) -> float:
    """correction * S * x/(log x)^m * prod_i (log log x)^(k_i-1)/(k_i-1)!.

    series is the singular-series value S of the pattern, m its length.
    """
    _check_x(x)
    if correction <= 0:
        raise ValueError(f"need correction > 0, got {correction}")
    if series < 0:
        raise ValueError(f"need series >= 0, got {series}")
    m = len(requirements)
    base = x / math.log(x) ** m
    return correction * series * base * loglog_power_product(requirements, x)
