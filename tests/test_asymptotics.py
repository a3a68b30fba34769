import math
from itertools import permutations

import pytest

from aptuple.asymptotics import (
    EULER_GAMMA,
    LANDAU_C1,
    LANDAU_C2,
    almost_prime_count_asymptotic,
    landau_constant_prime_sum,
    loglog_power_product,
    predicted_tuple_count,
    second_order_bracket,
    successor_ratio,
)
from aptuple.patterns import Requirements

X7 = 1e7
LOGLOG_X7 = math.log(math.log(X7))


def test_leading_order_examples():
    k1 = almost_prime_count_asymptotic(X7, 1)
    assert abs(k1 - X7 / math.log(X7)) < 1e-6
    assert abs(k1 - 620420.7) < 1.0
    k2 = almost_prime_count_asymptotic(X7, 2)
    assert abs(k2 - k1 * LOGLOG_X7) < 1e-6
    assert abs(LOGLOG_X7 - 2.780) < 1e-3


def test_leading_order_same_for_both_variants():
    for k in (1, 2, 3, 5):
        a = almost_prime_count_asymptotic(X7, k, "leading", "distinct")
        b = almost_prime_count_asymptotic(X7, k, "leading", "multiplicity")
        assert a == b


def test_bracket_k1_has_no_k_terms():
    # (k-1)*gamma - k(k-1)/2 vanishes at k = 1, leaving 1 + C / loglog
    for variant, c in (("distinct", LANDAU_C1), ("multiplicity", LANDAU_C2)):
        assert second_order_bracket(X7, 1, variant) == 1.0 + c / LOGLOG_X7


def test_bracket_tends_to_one():
    gap_small = abs(second_order_bracket(1e6, 3) - 1.0)
    gap_large = abs(second_order_bracket(1e12, 3) - 1.0)
    assert gap_large < gap_small


def test_bracket_positive_in_working_range():
    for variant in ("distinct", "multiplicity"):
        for x in (1e6, 1e7, 1e8):
            for k in (1, 2, 3):
                assert almost_prime_count_asymptotic(x, k, "second-order", variant) > 0


def test_successor_ratio():
    x100 = 1e100
    assert abs(successor_ratio(x100, 5) - 1.088) < 1e-3
    assert successor_ratio(x100, 5) > 1
    assert abs(successor_ratio(x100, 6) - 0.906) < 1e-3
    assert successor_ratio(x100, 6) < 1
    boundary = math.exp(math.exp(2.0))
    assert abs(successor_ratio(boundary, 2) - 1.0) < 1e-12


def test_successor_ratio_dichotomy():
    for exponent in (5, 7, 9, 12):
        x = 10.0**exponent
        loglog = math.log(math.log(x))
        for k in range(1, 7):
            ratio = successor_ratio(x, k)
            assert (ratio > 1) == (k < loglog)


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
        almost_prime_count_asymptotic(50, 1)
    with pytest.raises(ValueError):
        almost_prime_count_asymptotic(X7, 0)
    with pytest.raises(ValueError):
        almost_prime_count_asymptotic(X7, 21)
    with pytest.raises(ValueError):
        almost_prime_count_asymptotic(X7, 2, order="third")
    with pytest.raises(ValueError):
        almost_prime_count_asymptotic(X7, 2, variant="total")
    with pytest.raises(ValueError):
        successor_ratio(99, 1)
    with pytest.raises(ValueError):
        predicted_tuple_count(1.0, Requirements((1, 2)), X7, correction=0.0)
    with pytest.raises(ValueError):
        predicted_tuple_count(-1.0, Requirements((1, 2)), X7)
    with pytest.raises(ValueError):
        loglog_power_product(Requirements((21,)), X7)


def test_euler_gamma():
    assert abs(EULER_GAMMA - 0.5772156649015329) < 1e-15


def test_landau_constants_vs_defining_sums():
    distinct = landau_constant_prime_sum("distinct", 10**6)
    assert abs(distinct - LANDAU_C1) < 1e-4
    multiplicity = landau_constant_prime_sum("multiplicity", 10**6)
    # the defining sum converges to 0.45744, not to the published 6-digit
    # figure stored in LANDAU_C2; both facts are pinned here
    assert abs(multiplicity - 0.4574382) < 2e-5
    assert abs(multiplicity - LANDAU_C2) > 0.29
    with pytest.raises(ValueError):
        landau_constant_prime_sum("other")
