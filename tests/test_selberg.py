import functools
import math
import random

import mpmath
import numpy as np
import pytest

from aptuple import selberg
from aptuple._primes import primes_up_to
from aptuple.calibration import reproduce_tables
from aptuple.patterns import Pattern, scale_pattern
from aptuple.selberg import (
    MAX_PATTERN_LENGTH,
    PRIME_LIMIT_BOUND,
    PRIME_ZETA_TAIL,
    TAIL_START,
    TWIN_PRIME_C2,
    pair_constant_closed_form,
    selberg_constant,
    triple_constant_closed_form,
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


def test_prime_limit_field_is_the_argument():
    assert selberg_constant(Pattern((0, 2)), 10).prime_limit == 10
    assert selberg_constant(Pattern((0,)), 10).prime_limit == 10


def test_twin_pair_is_twice_the_twin_prime_constant():
    assert abs(selberg_constant(Pattern((0, 2)), PRIME_LIMIT).value - 2 * TWIN_PRIME_C2) <= 1e-14


def test_pair_with_a_large_prime_inside_the_limit():
    # 1000003 divides the distance and lies below the limit, so its factor is read directly
    n = 2 * 1000003
    result = selberg_constant(Pattern((0, n)), 10**7)
    assert abs(result.value - pair_constant_closed_form(n)) <= 1e-14


def test_narrow_patterns_sieve_only_up_to_the_tail(monkeypatch):
    calls = []

    def record(n):
        calls.append(n)
        return primes_up_to(n)

    monkeypatch.setattr(selberg, "primes_up_to", record)
    selberg_constant(Pattern((0, 2, 6, 8, 12)), 10**7)
    assert calls and max(calls) <= TAIL_START, calls


def test_pattern_length_bound(monkeypatch):
    def refuse(n):
        raise AssertionError(f"primes_up_to({n}) was called")

    monkeypatch.setattr(selberg, "primes_up_to", refuse)
    pattern = Pattern(tuple(range(0, 2 * (MAX_PATTERN_LENGTH + 1), 2)))
    assert len(pattern) == 501
    with pytest.raises(ValueError, match=str(MAX_PATTERN_LENGTH)):
        selberg_constant(pattern, PRIME_LIMIT)


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


def test_primorial_table_monotone(table_big):
    # Table 1: each new primorial turns one more factor into (1 - 1/p)^(-1) > 1
    header, rows = reproduce_tables(table_big, 10**7)[0]
    assert header == ["n", "selberg_constant", "closed_form"]
    assert [n for n, _, _ in rows] == [2, 6, 30, 210, 2310]
    values = [value for _, value, _ in rows]
    assert all(b > a for a, b in zip(values, values[1:]))
    for _, value, closed_form in rows:
        assert abs(value - closed_form) < 1e-5


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
    # the generic tail is exact, so once the limit covers the offsets the
    # value stops moving, to the last bit
    low = selberg_constant(Pattern(offsets), 10**5)
    for limit in (10**4, 2 * 10**5, 10**6, 10**7):
        high = selberg_constant(Pattern(offsets), limit)
        assert high.value == low.value, limit
        assert high.tail_bound == low.tail_bound, limit


def twin_prime_constant_truncated(prime_limit: int) -> float:
    """prod_{2 < p <= P} (1 - 1/(p-1)^2); converges to C2 from above like 1/(P log P)."""
    primes = primes_up_to(prime_limit).astype(np.float64)
    primes = primes[primes > 2]
    return float(np.exp(np.sum(np.log1p(-1.0 / (primes - 1.0) ** 2))))


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


@functools.lru_cache(maxsize=1)
def _prime_zeta_tail_mp() -> list[mpmath.mpf]:
    """sum_{p > 1000} p^(-j) for j = 2..64 at 260 digits: the full prime zeta less p <= 1000."""
    with mpmath.workdps(260):
        small = [mpmath.mpf(p) for p in primes_up_to(1000).tolist()]
        return [mpmath.primezeta(j) - mpmath.fsum(p ** -j for p in small) for j in range(2, 65)]


def test_prime_zeta_tail_matches_mpmath():
    assert TAIL_START == 1000 and len(PRIME_ZETA_TAIL) == 63
    for j, (got, want) in enumerate(zip(PRIME_ZETA_TAIL.tolist(), _prime_zeta_tail_mp()), start=2):
        assert abs(got - want) <= 1e-15 * want, j


def _series_mp(pattern: Pattern) -> mpmath.mpf:
    """The exact series at 60 digits: nu_p by brute force for p <= 1000, the prime
    zeta tail for the generic primes above. Needs every distance's prime factors <= 1000."""
    m = len(pattern)
    tail = _prime_zeta_tail_mp()
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for p in primes_up_to(1000).tolist():
            nu = len({h % p for h in pattern.offsets})
            total += mpmath.log(1 - mpmath.mpf(nu) / p) - m * mpmath.log(1 - mpmath.mpf(1) / p)
        for j, tail_j in enumerate(tail, start=2):
            total += (m - mpmath.mpf(m) ** j) / j * tail_j
        return mpmath.exp(total)


@pytest.mark.parametrize("prime_limit", [10**4, 10**5])
@pytest.mark.parametrize(
    "offsets", [(0, 2), (0, 2, 6), (0, 4, 6, 10), (0, 2, 6, 8, 12), (0, 4, 6, 10, 12, 16)]
)
def test_series_matches_mpmath_product(offsets, prime_limit):
    # every length is summed in log space, so pairs and triples are as
    # accurate as the longer patterns
    pattern = Pattern(offsets)
    want = _series_mp(pattern)
    result = selberg_constant(pattern, prime_limit)
    assert abs(result.value - want) <= 1e-15 * want, float(abs(result.value - want) / want)
    assert abs(result.value - want) <= result.tail_bound


def test_random_patterns_match_mpmath():
    from aptuple.patterns import is_admissible

    rng = random.Random(1998)
    cases = 0
    while cases < 20:
        m = rng.randrange(2, 7)
        pattern = Pattern((0, *rng.sample(range(2, 61, 2), m - 1)))
        if not is_admissible(pattern).admissible:
            continue
        cases += 1
        want = _series_mp(pattern)
        result = selberg_constant(pattern, 10**4)
        assert abs(result.value - want) <= min(1e-13 * want, result.tail_bound), pattern


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


@pytest.mark.parametrize("n, limit", [
    (2 * 1009 * 1013, 1000),
    (2 * 101 * 103 * 107, 100),
    (2 * 1009 * 1013 * 1019, 1000),
])
def test_tail_bound_for_a_distance_with_several_large_primes(n, limit):
    # the distance stripped of its primes <= P is a product of two or more
    # primes above P, at least (P + 1)^2, so the bound counts its factors
    result = selberg_constant(Pattern((0, n)), limit)
    error = abs(selberg_constant(Pattern((0, n)), 4 * 10**6).value - result.value)
    assert error <= result.tail_bound < 2 * error


def test_offsets_beyond_64_bits():
    n = 2 * 10**20 + 2 * 1000003
    result = selberg_constant(Pattern((0, n)), PRIME_LIMIT)
    assert abs(result.value - pair_constant_closed_form(n)) <= result.tail_bound


def test_offsets_just_past_int64():
    # numpy takes the max of (0, 2^63) as a float64 that compares equal to 2^63 - 1
    pattern = Pattern((0, 2**63))
    result = selberg_constant(pattern, PRIME_LIMIT)
    assert abs(result.value - pair_constant_closed_form(2**63)) <= result.tail_bound
    assert result.admissible


def _full_array_value(pattern, prime_limit):
    """S(H) truncated at prime_limit, nu_p worked out for every prime, the product taken in one array."""
    primes = primes_up_to(prime_limit)
    m = len(pattern)
    nu = np.array([len({h % p for h in pattern.offsets}) for p in primes.tolist()])
    p = primes.astype(np.float64)
    if m < 4:
        return float(np.prod((1.0 - nu / p) * (1.0 - 1.0 / p) ** (-m)))
    return math.exp(float(np.sum(np.log1p(-nu / p) - m * np.log1p(-1.0 / p))))


def test_truncated_full_array_within_its_bound():
    from aptuple.patterns import is_admissible

    rng = random.Random(5512)
    cases = 0
    while cases < 40:
        m = rng.randrange(2, 7)
        limit = rng.choice([10**3, 10**4, 3 * 10**4])
        # offsets up to 2 * limit, so some patterns reach past the prime limit
        width = rng.choice([60, 2 * limit])
        pattern = Pattern((0, *rng.sample(range(2, width + 1, 2), m - 1)))
        if not is_admissible(pattern).admissible:
            continue
        cases += 1
        want = _full_array_value(pattern, limit)
        got = selberg_constant(pattern, limit).value
        # truncation leaves out generic factors 1 + O(m^2/p^2) and the first-order
        # excess of primes above the limit that divide a distance
        bound = m * m / (limit * math.log(limit))
        bound += selberg._omitted_divisor_excess(pattern, primes_up_to(limit), limit)
        assert abs(got - want) <= got * math.expm1(bound), (pattern, limit)


def test_wide_patterns_with_small_prime_distances_are_exact():
    # 1202 reaches past the limit, but every distance's primes are below it
    pattern = Pattern((0, 2, 6, 1202))
    value = selberg_constant(pattern, 1000).value
    assert abs(value - _series_mp(pattern)) <= 1e-12 * value


def test_values_do_not_depend_on_call_order():
    patterns = [Pattern(offsets) for offsets in ((0, 2), (0, 2, 6), (0, 4, 6, 10), (0, 2, 6, 8, 12))]
    runs = []
    for limits in ((10**4, 10**5), (10**5, 10**4)):
        values = {}
        for limit in limits:
            for pattern in patterns:
                values[pattern, limit] = selberg_constant(pattern, limit).value
        runs.append(values)
    assert runs[0] == runs[1]


def test_huge_prime_limit_fails_before_sieving(monkeypatch):
    def refuse(n):
        raise AssertionError(f"primes_up_to({n}) was called")

    monkeypatch.setattr(selberg, "primes_up_to", refuse)
    for call in (
        lambda: selberg_constant(Pattern((0, 2)), PRIME_LIMIT_BOUND + 1),
        lambda: selberg_constant(Pattern((0, 2)), 10**10),
        lambda: triple_constant_closed_form(10**10),
    ):
        with pytest.raises(ValueError, match=str(PRIME_LIMIT_BOUND)):
            call()
