import functools
import math
import random
import statistics
import time

import mpmath
import numpy as np
import pytest

from aptuple import selberg
from aptuple._primes import primes_up_to
from aptuple.calibration import reproduce_tables
from aptuple.patterns import Pattern, scale_pattern
from aptuple.selberg import (
    MAX_PATTERN_LENGTH,
    PRIME_ZETA_TAIL,
    TAIL_START,
    TWIN_PRIME_C2,
    pair_constant_closed_form,
    selberg_constant,
)

# 1000003, 2^31 - 1 and 2^61 - 1 are prime
LARGE_PRIMES = (1000003, 2**31 - 1, 2**61 - 1)


def within_ulps(got: float, want, ulps: int = 2) -> bool:
    return abs(got - want) <= ulps * math.ulp(float(want))


def test_pair_constant():
    result = selberg_constant(Pattern((0, 2)))
    assert result.admissible
    assert abs(result.value - 1.3203236) < 1e-6


def test_triple_constant():
    result = selberg_constant(Pattern((0, 2, 6)))
    assert abs(result.value - 2.858) < 2e-3


def test_inadmissible_vanishes():
    result = selberg_constant(Pattern((0, 2, 4, 6, 8)))
    assert result.value == 0.0
    assert not result.admissible
    assert result.tail_bound == 0.0


def test_single_offset_is_exactly_one():
    assert selberg_constant(Pattern((0,))).value == 1.0
    assert selberg_constant(Pattern((0,)), 1).value == 1.0


def test_twin_pair_is_twice_the_twin_prime_constant():
    assert abs(selberg_constant(Pattern((0, 2))).value - 2 * TWIN_PRIME_C2) <= 1e-14


def test_pair_with_a_large_prime_inside_the_limit():
    # 1000003 divides the distance, so its factor is read directly
    n = 2 * 1000003
    result = selberg_constant(Pattern((0, n)))
    assert abs(result.value - pair_constant_closed_form(n)) <= 1e-14


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_pairs_with_a_large_prime_match_the_closed_form(p):
    result = selberg_constant(Pattern((0, 2 * p)))
    want = pair_constant_closed_form(2 * p)
    assert within_ulps(result.value, want), (result.value, want)
    assert abs(result.value - want) <= result.tail_bound


def test_narrow_patterns_sieve_only_up_to_the_tail(monkeypatch):
    # the distances are factored, so no pattern, however wide, sieves past TAIL_START
    calls = []

    def record(n):
        calls.append(n)
        return primes_up_to(n)

    monkeypatch.setattr(selberg, "primes_up_to", record)
    for offsets in ((0, 2, 6, 8, 12), (0, 2000006), (0, 2**40), (0, 2**62, 2**62 + 6)):
        calls.clear()
        times = []
        for _ in range(5):
            started = time.perf_counter()
            selberg_constant(Pattern(offsets), 10**7)
            times.append(time.perf_counter() - started)
        assert calls and max(calls) <= TAIL_START, (offsets, calls)
        assert statistics.median(times) < 5e-3, (offsets, times)


def test_pattern_length_bound(monkeypatch):
    def refuse(n):
        raise AssertionError(f"primes_up_to({n}) was called")

    monkeypatch.setattr(selberg, "primes_up_to", refuse)
    pattern = Pattern(tuple(range(0, 2 * (MAX_PATTERN_LENGTH + 1), 2)))
    assert len(pattern) == 501
    with pytest.raises(ValueError, match=str(MAX_PATTERN_LENGTH)):
        selberg_constant(pattern)


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
        truncated = selberg_constant(Pattern((0, n))).value
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
        base = selberg_constant(pattern)
        scaled = selberg_constant(scale_pattern(pattern, c))
        assert abs(base.value - scaled.value) < 1e-9


def test_scaling_counterexample_changes_value():
    # 5 is not in the distance support of {0,6,12}: nu_5 drops from 3 to 1
    base = selberg_constant(Pattern((0, 6, 12))).value
    scaled = selberg_constant(Pattern((0, 30, 60))).value
    assert abs(base - scaled) > 0.1


@pytest.mark.parametrize("offsets", [(0, 2), (0, 2, 6), (0, 4, 6, 10)])
def test_convergence_within_tail_bound(offsets):
    # the series is exact, so a prime limit an older caller passes changes
    # nothing, to the last bit
    exact = selberg_constant(Pattern(offsets))
    for limit in (1, 10**4, 2 * 10**5, 10**6, 10**7, 10**10):
        high = selberg_constant(Pattern(offsets), limit)
        assert high.value == exact.value, limit
        assert high.tail_bound == exact.tail_bound, limit


def twin_prime_constant_truncated(prime_limit: int) -> float:
    """prod_{2 < p <= P} (1 - 1/(p-1)^2); converges to C2 from above like 1/(P log P)."""
    primes = np.asarray(primes_up_to(prime_limit), dtype=np.float64)
    primes = primes[primes > 2]
    return float(np.exp(np.sum(np.log1p(-1.0 / (primes - 1.0) ** 2))))


def test_twin_prime_constant_dual_route():
    reference = float(mpmath.mp.mpf(mpmath.twinprime))
    assert abs(TWIN_PRIME_C2 - reference) < 1e-12
    truncated = twin_prime_constant_truncated(10**6)
    # truncation converges from above like 1/(P log P)
    assert 0 < truncated - TWIN_PRIME_C2 < 1e-7


def test_value_zero_iff_inadmissible():
    from aptuple.patterns import is_admissible

    rng = random.Random(8080)
    for _ in range(100):
        m = rng.randrange(1, 7)
        offsets = tuple(sorted({0} | {rng.randrange(1, 40) for _ in range(m - 1)}))
        pattern = Pattern(offsets)
        result = selberg_constant(pattern)
        assert (result.value == 0.0) == (not is_admissible(pattern).admissible)
        assert result.admissible == is_admissible(pattern).admissible


@functools.lru_cache(maxsize=1)
def _prime_zeta_tail_mp() -> list[mpmath.mpf]:
    """sum_{p > 1000} p^(-j) for j = 2..64 at 260 digits: the full prime zeta less p <= 1000."""
    with mpmath.workdps(260):
        small = [mpmath.mpf(p) for p in primes_up_to(1000)]
        return [mpmath.primezeta(j) - mpmath.fsum(p ** -j for p in small) for j in range(2, 65)]


def test_prime_zeta_tail_matches_mpmath():
    assert TAIL_START == 1000 and len(PRIME_ZETA_TAIL) == 63
    for j, (got, want) in enumerate(zip(PRIME_ZETA_TAIL, _prime_zeta_tail_mp()), start=2):
        assert abs(got - want) <= 1e-15 * want, j


def _trial_division_primes(n: int) -> set[int]:
    """Distinct prime factors of n by plain trial division."""
    found, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            found.add(d)
            n //= d
        d += 1
    return found | ({n} if n > 1 else set())


def _series_mp(pattern: Pattern) -> mpmath.mpf:
    """The exact series at 60 digits: nu_p by brute force for p <= 1000, the prime
    zeta tail for the generic primes above, and for each prime above 1000 that
    divides a distance, found by trial division, its factor in place of the
    generic one."""
    m = len(pattern)
    tail = _prime_zeta_tail_mp()
    offsets = pattern.offsets
    distances = {b - a for i, a in enumerate(offsets) for b in offsets[i + 1 :]}
    large = {p for d in distances for p in _trial_division_primes(d) if p > 1000}
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for p in primes_up_to(1000):
            nu = len({h % p for h in offsets})
            total += mpmath.log(1 - mpmath.mpf(nu) / p) - m * mpmath.log(1 - mpmath.mpf(1) / p)
        for j, tail_j in enumerate(tail, start=2):
            total += (m - mpmath.mpf(m) ** j) / j * tail_j
        for p in large:
            nu = len({h % p for h in offsets})
            total += mpmath.log(1 - mpmath.mpf(nu) / p) - mpmath.log(1 - mpmath.mpf(m) / p)
        return mpmath.exp(total)


@pytest.mark.parametrize("ignored_limit", [10**4, 10**5])
@pytest.mark.parametrize(
    "offsets", [(0, 2), (0, 2, 6), (0, 4, 6, 10), (0, 2, 6, 8, 12), (0, 4, 6, 10, 12, 16)]
)
def test_series_matches_mpmath_product(offsets, ignored_limit):
    # every length is summed in log space, so pairs and triples are as
    # accurate as the longer patterns
    pattern = Pattern(offsets)
    want = _series_mp(pattern)
    result = selberg_constant(pattern, ignored_limit)
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
        result = selberg_constant(pattern)
        assert abs(result.value - want) <= min(1e-13 * want, result.tail_bound), pattern


def test_patterns_with_a_large_distance_prime_match_mpmath():
    # one offset sits 2q past another, so the prime q in (1000, 1e7) divides a distance
    from aptuple.patterns import is_admissible

    rng = random.Random(10**7)
    primes = np.asarray(primes_up_to(10**7))
    primes = primes[primes > 1000].tolist()
    cases = 0
    while cases < 40:
        m = rng.randrange(2, 9)
        near = rng.sample(range(2, 121, 2), m - 2)
        q = rng.choice(primes)
        pattern = Pattern((0, *near, rng.choice([0, *near]) + 2 * q))
        if len(pattern) != m or not is_admissible(pattern).admissible:
            continue
        cases += 1
        want = _series_mp(pattern)
        result = selberg_constant(pattern)
        assert abs(result.value - want) <= min(1e-13 * want, result.tail_bound), (pattern, q)


def test_tail_bound_holds_for_wide_patterns():
    # distances with a prime factor above 1e4 are read exactly: pairs within
    # 2 ulps of the 60-digit series, triples within 1e-15, all within the
    # rounding bound
    rng = random.Random(2000006)
    limit = 10**4
    primes = [int(p) for p in primes_up_to(10 * limit) if p > limit]
    for _ in range(40):
        n = 2 * rng.choice(primes) * rng.choice([1, 1, 3, 5])
        result = selberg_constant(Pattern((0, n)))
        want = _series_mp(Pattern((0, n)))
        assert within_ulps(result.value, want), n
        assert abs(result.value - want) <= result.tail_bound, n
    for _ in range(40):
        a = 2 * rng.choice(primes)
        b = a + 2 * rng.choice([1, 2, 3]) * rng.choice(primes)
        pattern = Pattern((0, a, b))
        result = selberg_constant(pattern)
        want = _series_mp(pattern)
        assert abs(result.value - want) <= min(1e-15 * want, result.tail_bound), pattern


def test_tail_bound_for_a_distance_with_a_large_prime():
    # 2000006 = 2 * 1000003, and 1000003 is prime
    result = selberg_constant(Pattern((0, 2000006)))
    want = pair_constant_closed_form(2000006)
    assert within_ulps(result.value, want)
    assert abs(result.value - want) <= result.tail_bound


@pytest.mark.parametrize("n, ignored_limit", [
    (2 * 1009 * 1013, 1000),
    (2 * 101 * 103 * 107, 100),
    (2 * 1009 * 1013 * 1019, 1000),
])
def test_tail_bound_for_a_distance_with_several_large_primes(n, ignored_limit):
    # every prime of the distance is read, whatever prime limit an older caller passes
    result = selberg_constant(Pattern((0, n)), ignored_limit)
    assert result == selberg_constant(Pattern((0, n)))
    want = _series_mp(Pattern((0, n)))
    assert within_ulps(result.value, want)
    assert abs(result.value - want) <= result.tail_bound


def test_offsets_beyond_64_bits():
    n = 2 * 10**20 + 2 * 1000003
    result = selberg_constant(Pattern((0, n)))
    want = pair_constant_closed_form(n)
    assert within_ulps(result.value, want)
    assert abs(result.value - want) <= result.tail_bound


def test_offsets_just_past_int64():
    # numpy takes the max of (0, 2^63) as a float64 that compares equal to 2^63 - 1
    pattern = Pattern((0, 2**63))
    result = selberg_constant(pattern)
    assert within_ulps(result.value, pair_constant_closed_form(2**63))
    assert result.admissible


def test_truncated_full_array_within_its_bound():
    # random patterns up to 6e4 wide, some with distance primes above 1000,
    # within 1e-15 of the 60-digit series: the logs of the factors at small
    # primes round by up to 7e-16 (5 ulps), so 2 ulps holds for pairs only
    from aptuple.patterns import is_admissible

    rng = random.Random(5512)
    cases = 0
    while cases < 40:
        m = rng.randrange(2, 7)
        width = rng.choice([60, 2 * 10**3, 2 * 10**4, 6 * 10**4])
        pattern = Pattern((0, *rng.sample(range(2, width + 1, 2), m - 1)))
        if not is_admissible(pattern).admissible:
            continue
        cases += 1
        want = _series_mp(pattern)
        result = selberg_constant(pattern)
        assert abs(result.value - want) <= min(1e-15 * want, result.tail_bound), pattern


def test_distances_past_psi_12_are_refused():
    from aptuple._primes import PSI_12

    with pytest.raises(ValueError, match=str(PSI_12)):
        selberg_constant(Pattern((0, 2 * PSI_12)))


def test_values_past_the_double_range_are_refused():
    # the 420 primes above 500 form an admissible pattern with log S near 738
    offsets = [p for p in primes_up_to(5000) if p > 500][:420]
    with pytest.raises(ValueError, match="length 420"):
        selberg_constant(Pattern(offsets))


def test_wide_patterns_with_small_prime_distances_are_exact():
    # 1202 is wide, but every distance's primes are at most 601
    pattern = Pattern((0, 2, 6, 1202))
    value = selberg_constant(pattern).value
    assert abs(value - _series_mp(pattern)) <= 1e-12 * value


def test_huge_prime_limit_is_ignored(monkeypatch):
    calls = []

    def record(n):
        calls.append(n)
        return primes_up_to(n)

    monkeypatch.setattr(selberg, "primes_up_to", record)
    result = selberg_constant(Pattern((0, 2)), 10**10)
    assert result == selberg_constant(Pattern((0, 2)))
    assert calls and max(calls) <= TAIL_START, calls
