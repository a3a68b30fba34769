"""Theoretical count formula for almost-prime tuples.

The tuple prediction multiplies a singular-series value by x / (log x)^m and
one factorial-normalized loglog power per position. One position with S = 1
gives the leading count of k-almost primes up to x,

    x / log x * (log log x)^(k-1) / (k-1)!,

the same whether factors are counted distinct or with multiplicity.
"""

from __future__ import annotations

import math

from .patterns import Requirements

MAX_DEMAND = 20  # factorials kept exact; no realistic requirement exceeds this
MIN_X = 100.0  # below this log log x dips toward 0 and the powers misbehave


def _check_x(x: float) -> None:
    if x < MIN_X:
        raise ValueError(f"need x >= {MIN_X:.0f} for the asymptotic regime, got {x}")


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
    if not (math.isfinite(correction) and correction > 0):
        raise ValueError(f"need a finite correction > 0, got {correction}")
    if series < 0:
        raise ValueError(f"need series >= 0, got {series}")
    m = len(requirements)
    base = x / math.log(x) ** m
    return correction * series * base * loglog_power_product(requirements, x)

