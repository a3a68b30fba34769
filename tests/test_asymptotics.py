import math
from itertools import permutations

import pytest

from aptuple.asymptotics import loglog_power_product, predicted_tuple_count
from aptuple.patterns import Requirements

X7 = 1e7
LOGLOG_X7 = math.log(math.log(X7))


def almost_primes(x, k):
    """Leading count of k-almost primes up to x: one position, so S = 1."""
    return predicted_tuple_count(1.0, Requirements((k,)), x)


def test_leading_order_examples():
    k1 = almost_primes(X7, 1)
    assert abs(k1 - X7 / math.log(X7)) < 1e-6
    assert abs(k1 - 620420.7) < 1.0
    k2 = almost_primes(X7, 2)
    assert abs(k2 - k1 * LOGLOG_X7) < 1e-6
    assert abs(LOGLOG_X7 - 2.780) < 1e-3


def test_predicted_pair_count():
    value = predicted_tuple_count(1.3203236, Requirements((1, 2)), X7)
    # exact evaluation of S * x/log^2 x * loglog; the coarse published
    # figure 141203.5 used rounded intermediates
    assert abs(value - 141282.6) < 0.5
    assert abs(value - 141203.5) / 141203.5 < 1e-3


def test_predicted_triple_count():
    value = predicted_tuple_count(2.858, Requirements((1, 1, 2)), X7)
    assert abs(value - 18974.3) < 0.5
    assert abs(value - 18973) / 18973 < 1e-3


def test_all_ones_prediction_is_bare_series_term():
    for m in (1, 2, 3):
        value = predicted_tuple_count(2.0, Requirements((1,) * m), X7)
        assert value == 2.0 * X7 / math.log(X7) ** m


def test_permutation_invariance_exact():
    demands = (1, 2, 2, 3)
    reference = predicted_tuple_count(2.858, Requirements(demands), X7)
    for perm in set(permutations(demands)):
        assert predicted_tuple_count(2.858, Requirements(perm), X7) == reference


def test_intermediate_constants():
    a2 = X7 / math.log(X7) ** 2
    a3 = X7 / math.log(X7) ** 3
    assert abs(a2 - 38492.18306359468) < 1e-6
    assert abs(a3 - 2388.1346715612817) < 1e-9
    # coarse published figures 38490 and 2388.7 sit within 0.03 percent
    assert abs(a2 - 38490) / 38490 < 3e-4
    assert abs(a3 - 2388.7) / 2388.7 < 3e-4


def test_domain_errors():
    with pytest.raises(ValueError):
        almost_primes(50, 1)
    with pytest.raises(ValueError):
        almost_primes(X7, 0)
    with pytest.raises(ValueError):
        almost_primes(X7, 21)
    for correction in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            predicted_tuple_count(1.0, Requirements((1, 2)), X7, correction=correction)
    with pytest.raises(ValueError):
        predicted_tuple_count(-1.0, Requirements((1, 2)), X7)
    with pytest.raises(ValueError):
        loglog_power_product(Requirements((21,)), X7)
