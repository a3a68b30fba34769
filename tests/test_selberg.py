import math
import random

import mpmath
import pytest

from aptuple._primes import primes_up_to
from aptuple.patterns import Pattern, scale_pattern
from aptuple.selberg import (
    TWIN_PRIME_C2,
    pair_constant_closed_form,
    primorial_pattern_table,
    selberg_constant,
    triple_constant_closed_form,
    twin_prime_constant_truncated,
)

PRIME_LIMIT = 10**6


def test_pair_constant():
    result = selberg_constant(Pattern((0, 2)), PRIME_LIMIT)
    assert result.admissible
    assert abs(result.value - 1.3203236) < 1e-6


def test_triple_constant():
    result = selberg_constant(Pattern((0, 2, 6)), PRIME_LIMIT)
    assert abs(result.value - 2.858) < 2e-3
    # the displayed product over p >= 5 is the same number
    assert abs(triple_constant_closed_form() - result.value) < 1e-4


def test_triple_closed_form_single_factor():
    # truncating at p = 5 leaves (9/2)(1 - 14/64)
    assert triple_constant_closed_form(prime_limit=5) == 4.5 * (1 - 14 / 64)


def test_inadmissible_vanishes():
    result = selberg_constant(Pattern((0, 2, 4, 6, 8)), PRIME_LIMIT)
    assert result.value == 0.0
    assert not result.admissible
    assert result.tail_bound == 0.0


def test_single_offset_is_exactly_one():
    assert selberg_constant(Pattern((0,)), PRIME_LIMIT).value == 1.0
    assert selberg_constant(Pattern((0,)), 1).value == 1.0


def test_prime_limit_too_small():
    with pytest.raises(ValueError):
        selberg_constant(Pattern((0, 2, 6)), 2)


def test_prime_limit_field_is_largest_included():
    assert selberg_constant(Pattern((0, 2)), 10).prime_limit == 7


def test_closed_form_examples():
    assert abs(pair_constant_closed_form(2) - 1.3203236) < 1e-6
    assert abs(pair_constant_closed_form(6) - 2.6406473) < 1e-6
    assert abs(pair_constant_closed_form(30) - 3.5208630) < 1e-6
    with pytest.raises(ValueError):
        pair_constant_closed_form(7)
    with pytest.raises(ValueError):
        pair_constant_closed_form(0)


def test_closed_form_matches_truncation():
    separations = list(range(2, 1001, 2))
    rng = random.Random(4202)
    separations += [2 * rng.randrange(501, 5001) for _ in range(300)]
    for n in separations:
        closed = pair_constant_closed_form(n)
        truncated = selberg_constant(Pattern((0, n)), PRIME_LIMIT).value
        assert abs(closed - truncated) < 1e-5, n


def test_primorial_table_monotone():
    rows = primorial_pattern_table(5, PRIME_LIMIT)
    assert [n for n, _ in rows] == [2, 6, 30, 210, 2310]
    values = [v for _, v in rows]
    assert all(b > a for a, b in zip(values, values[1:]))
    for n, value in rows:
        assert abs(value - pair_constant_closed_form(n)) < 1e-5


def test_scaling_invariance():
    rng = random.Random(31415)
    for _ in range(30):
        unit = rng.choice([2, 4, 6, 12, 30])
        offsets = tuple(sorted({0} | {unit * rng.randrange(1, 8) for _ in range(3)}))
        pattern = Pattern(offsets)
        from aptuple.patterns import distance_gcd_prime_support

        support = sorted(distance_gcd_prime_support(pattern))
        c = 1
        for p in support:
            c *= p ** rng.randrange(0, 3)
        base = selberg_constant(pattern, 10**5)
        scaled = selberg_constant(scale_pattern(pattern, c), 10**5)
        assert abs(base.value - scaled.value) < 1e-9


def test_scaling_counterexample_changes_value():
    # 5 is not in the distance support of {0,6,12}: nu_5 drops from 3 to 1
    base = selberg_constant(Pattern((0, 6, 12)), PRIME_LIMIT).value
    scaled = selberg_constant(Pattern((0, 30, 60)), PRIME_LIMIT).value
    assert abs(base - scaled) > 0.1


@pytest.mark.parametrize("offsets", [(0, 2), (0, 2, 6), (0, 4, 6, 10)])
def test_convergence_within_tail_bound(offsets):
    low = selberg_constant(Pattern(offsets), 10**5)
    high = selberg_constant(Pattern(offsets), 2 * 10**5)
    assert abs(high.value - low.value) < low.tail_bound
    assert high.tail_bound < low.tail_bound


def test_twin_prime_constant_dual_route():
    reference = float(mpmath.mp.mpf(mpmath.twinprime))
    assert abs(TWIN_PRIME_C2 - reference) < 1e-12
    truncated = twin_prime_constant_truncated(PRIME_LIMIT)
    # truncation converges from above like 1/(P log P)
    assert 0 < truncated - TWIN_PRIME_C2 < 1e-7


def test_value_zero_iff_inadmissible():
    from aptuple.patterns import is_admissible

    rng = random.Random(8080)
    for _ in range(100):
        m = rng.randrange(1, 7)
        offsets = tuple(sorted({0} | {rng.randrange(1, 40) for _ in range(m - 1)}))
        pattern = Pattern(offsets)
        result = selberg_constant(pattern, 10**4)
        assert (result.value == 0.0) == (not is_admissible(pattern).admissible)
        assert result.admissible == is_admissible(pattern).admissible


def test_log_space_path_matches_plain_product():
    # m = 4 takes the log-space branch; compare against an m = 3 style
    # direct evaluation done here by hand at a tiny prime bound
    pattern = Pattern((0, 4, 6, 10))
    result = selberg_constant(pattern, 10**4)
    direct = 1.0
    from aptuple._primes import primes_up_to
    from aptuple.patterns import residues_mod_p

    for p in primes_up_to(10**4):
        p = int(p)
        _, nu = residues_mod_p(pattern, p)
        direct *= (1.0 - nu / p) * (1.0 - 1.0 / p) ** (-4)
    assert abs(result.value - direct) < 1e-9 * direct


def test_tail_bound_holds_for_wide_patterns():
    # distances with a prime factor above the prime limit make that prime's
    # omitted factor first order; the bound must still cover the error
    rng = random.Random(2000006)
    limit = 10**4
    primes = [int(p) for p in primes_up_to(10 * limit) if p > limit]
    for _ in range(40):
        n = 2 * rng.choice(primes) * rng.choice([1, 1, 3, 5])
        result = selberg_constant(Pattern((0, n)), limit)
        assert abs(result.value - pair_constant_closed_form(n)) <= result.tail_bound, n
    for _ in range(40):
        a = 2 * rng.choice(primes)
        b = a + 2 * rng.choice([1, 2, 3]) * rng.choice(primes)
        pattern = Pattern((0, a, b))
        result = selberg_constant(pattern, limit)
        finer = selberg_constant(pattern, 10 * limit)
        assert result.admissible == finer.admissible
        assert abs(result.value - finer.value) <= result.tail_bound, pattern


def test_tail_bound_for_a_distance_with_a_large_prime():
    # 2000006 = 2 * 1000003, a prime above the default limit
    result = selberg_constant(Pattern((0, 2000006)), PRIME_LIMIT)
    error = abs(result.value - pair_constant_closed_form(2000006))
    assert error > 1e-6
    assert error <= result.tail_bound < 2 * error


def test_offsets_beyond_64_bits():
    n = 2 * 10**20 + 2 * 1000003
    result = selberg_constant(Pattern((0, n)), PRIME_LIMIT)
    assert abs(result.value - pair_constant_closed_form(n)) <= result.tail_bound
