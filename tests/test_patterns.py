import random

import pytest

from aptuple._primes import primes_up_to
from aptuple.patterns import (
    Pattern,
    Requirements,
    _residue_counts,
    distance_gcd_prime_support,
    is_admissible,
    scale_pattern,
)


def test_normalization():
    assert Pattern((6, 0, 12)).offsets == (0, 6, 12)
    assert Pattern((1, 3)).offsets == (0, 2)  # translated to start at 0
    assert Pattern((0, 2, 2, 6)).offsets == (0, 2, 6)
    assert Pattern((5,)).offsets == (0,)


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern(())
    with pytest.raises(ValueError):
        Pattern((-2, 0))


def test_parse_and_str():
    p = Pattern.parse("0,2,6")
    assert p.offsets == (0, 2, 6)
    assert str(p) == "0,2,6"
    assert len(p) == 3
    assert p.max_offset == 6
    with pytest.raises(ValueError):
        Pattern.parse("0,x,6")


def test_requirements():
    k = Requirements.parse("1,1,2")
    assert k.demands == (1, 1, 2)
    assert str(k) == "1,1,2"
    with pytest.raises(ValueError):
        Requirements((1, 0))
    with pytest.raises(ValueError):
        Requirements(())


def _nu(pattern, primes):
    return _residue_counts(pattern, primes)


def test_residues_examples():
    assert _nu(Pattern((0, 2, 6)), [2, 3, 5, 7]) == [1, 2, 3, 3]
    assert _nu(Pattern((0, 2, 4, 6, 8)), [2, 3, 5, 7, 11]) == [1, 3, 5, 5, 5]
    assert _nu(Pattern((0,)), [7]) == [1]
    assert _nu(Pattern((0, 2)), []) == []


def _brute_nu(pattern, primes):
    return [len({h % p for h in pattern.offsets}) for p in primes]


@pytest.mark.parametrize("width", [60, 2000, 2**63 - 1, 2**63, 2**70])
def test_residue_counts_match_brute_force(width):
    # primes up to 3000 reach past every offset of the narrow patterns; the
    # widest reach 2^63 and past it
    primes = list(primes_up_to(3000))
    rng = random.Random(width)
    for _ in range(100):
        m = rng.randrange(2, 12)
        offsets = {0, width} | {rng.randrange(width) for _ in range(m - 2)}
        pattern = Pattern(tuple(offsets))
        chosen = sorted(rng.sample(primes, 40))
        assert _nu(pattern, chosen) == _brute_nu(pattern, chosen), pattern


def test_residue_counts_across_chunks():
    # 16 offsets at every one of the 78498 primes below 1e6
    pattern = Pattern(tuple(random.Random(5).sample(range(0, 10**7, 2), 16)))
    primes = primes_up_to(10**6)
    assert _nu(pattern, primes) == _brute_nu(pattern, list(primes))


def test_admissibility_examples():
    good = is_admissible(Pattern((0, 2, 6)))
    assert good.admissible and good.witness is None
    assert good.nu_values == {2: 1, 3: 2}

    bad = is_admissible(Pattern((0, 2, 4, 6, 8)))
    assert not bad.admissible
    assert bad.witness == 5
    assert bad.nu_values[5] == 5

    single = is_admissible(Pattern((0,)))
    assert single.admissible and single.nu_values == {}


def _covering_primes(pattern):
    """Every prime up to the largest offset whose residues are fully covered."""
    bound = max(len(pattern), pattern.max_offset) + 1
    return [
        int(p)
        for p in primes_up_to(bound)
        if len({(-h) % int(p) for h in pattern.offsets}) == int(p)
    ]


def _random_pattern(rng):
    m = rng.randrange(1, 9)
    step = rng.choice([1, 2])
    offsets = sorted(rng.sample(range(0, 60, step), min(m, len(range(0, 60, step)))))
    return Pattern(tuple(offsets) or (0,))


def test_admissibility_matches_brute_force():
    rng = random.Random(1729)
    for _ in range(1000):
        pattern = _random_pattern(rng)
        verdict = is_admissible(pattern)
        covering = _covering_primes(pattern)
        assert verdict.admissible == (not covering), pattern
        assert verdict.witness == max(covering, default=None), pattern
        small = list(primes_up_to(len(pattern)))
        assert verdict.nu_values == dict(zip(small, _brute_nu(pattern, small))), pattern


def test_nu_bounded_by_length():
    rng = random.Random(99)
    small_primes = [int(p) for p in primes_up_to(100)]
    for _ in range(200):
        pattern = _random_pattern(rng)
        m = len(pattern)
        for p, nu in zip(small_primes, _nu(pattern, small_primes)):
            assert 1 <= nu <= min(m, p)
            if p > m:
                assert nu <= m < p


def test_scale_examples():
    assert scale_pattern(Pattern((0, 6, 12)), 3).offsets == (0, 18, 36)
    assert scale_pattern(Pattern((0, 2, 6)), 4).offsets == (0, 8, 24)
    p = Pattern((0, 4, 10))
    assert scale_pattern(p, 1) == p
    with pytest.raises(ValueError):
        scale_pattern(p, 0)
    with pytest.raises(ValueError):
        scale_pattern(p, 2**62)


def test_scaling_preserves_admissibility():
    rng = random.Random(7)
    for _ in range(200):
        unit = rng.choice([2, 4, 6, 12, 30])
        m = rng.randrange(2, 6)
        offsets = tuple(sorted({0} | {unit * rng.randrange(1, 9) for _ in range(m - 1)}))
        pattern = Pattern(offsets)
        support = sorted(distance_gcd_prime_support(pattern))
        c = 1
        for p in support:
            c *= p ** rng.randrange(0, 3)
        scaled = scale_pattern(pattern, c)
        assert is_admissible(scaled).admissible == is_admissible(pattern).admissible


def test_distance_gcd_prime_support():
    assert distance_gcd_prime_support(Pattern((0, 6, 12))) == {2, 3}
    assert distance_gcd_prime_support(Pattern((0, 2))) == {2}
    assert distance_gcd_prime_support(Pattern((0, 30))) == {2, 3, 5}
    with pytest.raises(ValueError):
        distance_gcd_prime_support(Pattern((0,)))

