import hashlib
import random
import sys
import tracemalloc

import numpy as np
import pytest

import aptuple as ap
from aptuple import census
from aptuple._primes import trial_division_omega
from aptuple.census import CensusQuery, count_demands, count_tuples
from aptuple.patterns import Pattern, Requirements
from aptuple.sieve import OmegaTable, TableBoundError

X7 = 10**7


def _brute_force(pattern, demands, x, parity, mode):
    start = 1
    step = 2 if parity == "odd" else 1
    count = 0
    for n in range(start, x + 1, step):
        ok = True
        for h, k in zip(pattern.offsets, demands):
            w = trial_division_omega(n + h)
            if (mode == "exact" and w != k) or (mode == "atmost" and not 1 <= w <= k):
                ok = False
                break
        if ok:
            count += 1
    return count


@pytest.mark.parametrize(
    "offsets,demands",
    [((0, 2), (1, 2)), ((0, 2, 6), (1, 1, 2)), ((0, 4), (2, 2)), ((0,), (1,))],
)
@pytest.mark.parametrize("parity", ["odd", "all"])
@pytest.mark.parametrize("mode", ["exact", "atmost"])
def test_brute_force_oracle(table_small, offsets, demands, parity, mode):
    pattern = Pattern(offsets)
    requirements = Requirements(demands)
    query = CensusQuery(pattern, requirements, 10_000, parity=parity, mode=mode)
    got = count_tuples(table_small, query).count
    assert got == _brute_force(pattern, demands, 10_000, parity, mode)


def test_odd_offset_pattern_starves(table_small):
    # odd n makes n+1 an even number > 2, so it can never be prime
    query = CensusQuery(Pattern((0, 1)), Requirements((1, 1)), 10_000)
    assert count_tuples(table_small, query).count == 0


def test_count_single_examples(table_small):
    assert census.k_histogram(table_small, 100, parity="odd")[1] == 24  # odd primes to 100
    assert census.k_histogram(table_small, 2, parity="odd").sum() == 0
    assert census.k_histogram(table_small, 30)[2] == 10


def test_monotone_in_x(table_small):
    query = lambda x: CensusQuery(Pattern((0, 2)), Requirements((1, 1)), x)
    counts = [count_tuples(table_small, query(x)).count for x in (100, 1000, 5000, 10000)]
    assert counts == sorted(counts)
    assert counts[0] == 8  # twin pairs starting at or below 100


def test_atmost_dominates_exact(table_small):
    for demands in ((1, 2), (2, 2), (1, 1)):
        exact = count_tuples(
            table_small, CensusQuery(Pattern((0, 2)), Requirements(demands), 10_000)
        ).count
        atmost = count_tuples(
            table_small,
            CensusQuery(Pattern((0, 2)), Requirements(demands), 10_000, mode="atmost"),
        ).count
        assert atmost >= exact
        if set(demands) == {1}:
            assert atmost == exact


def test_validation():
    with pytest.raises(ValueError):
        CensusQuery(Pattern((0, 2)), Requirements((1, 1, 1)), 100)
    with pytest.raises(ValueError):
        CensusQuery(Pattern((0, 2)), Requirements((1, 1)), 100, parity="even")
    with pytest.raises(ValueError):
        CensusQuery(Pattern((0, 2)), Requirements((1, 1)), 100, mode="atleast")
    with pytest.raises(ValueError):
        CensusQuery(Pattern((0, 2)), Requirements((1, 1)), 0)


def test_bound_error(table_small):
    query = CensusQuery(Pattern((0, 2)), Requirements((1, 1)), table_small.limit)
    with pytest.raises(TableBoundError):
        count_tuples(table_small, query)


def test_result_echoes_query(table_small):
    query = CensusQuery(Pattern((0, 2)), Requirements((1, 2)), 1000)
    result = count_tuples(table_small, query)
    assert result.query is query
    assert result.elapsed >= 0.0


def test_workers_agree(table_big):
    query = CensusQuery(Pattern((0, 2)), Requirements((1, 2)), X7)
    assert (
        count_tuples(table_big, query, workers=3).count
        == count_tuples(table_big, query).count
    )


# Frozen large-scale counts under the resolved convention (odd n <= x,
# exact factor counts). Independently supported by the published totals
# pi(1e7) = 664579 and the 1e7 semiprime count 1904324, both of which the
# table reproduces exactly.
PAIR_COUNTS_12 = {2: 166649, 4: 167037, 8: 166734, 16: 167023}
TRIPLE_COUNTS_112 = {1: 20480, 2: 20128, 4: 20413, 8: 20260}
TWIN_COUNTS = {2: 58980, 4: 58622, 8: 58595, 16: 58606}


def test_pair_family_counts(table_big):
    for n, want in PAIR_COUNTS_12.items():
        query = CensusQuery(Pattern((0, n)), Requirements((1, 2)), X7)
        assert count_tuples(table_big, query).count == want, n


def test_triple_family_counts(table_big):
    for c, want in TRIPLE_COUNTS_112.items():
        pattern = Pattern((0, 2 * c, 6 * c))
        query = CensusQuery(pattern, Requirements((1, 1, 2)), X7)
        assert count_tuples(table_big, query).count == want, c


def test_twin_counts(table_big):
    for n, want in TWIN_COUNTS.items():
        query = CensusQuery(Pattern((0, n)), Requirements((1, 1)), X7)
        assert count_tuples(table_big, query).count == want, n


def test_requirement_order_symmetry(table_big):
    # counts for reversed demands differ only by finite-size noise
    for demands, flipped in (((1, 2), (2, 1)), ((2, 3), (3, 2))):
        a = count_tuples(
            table_big, CensusQuery(Pattern((0, 4)), Requirements(demands), X7)
        ).count
        b = count_tuples(
            table_big, CensusQuery(Pattern((0, 4)), Requirements(flipped), X7)
        ).count
        assert abs(a - b) / b < 0.03


def test_inadmissible_pattern_starves(table_big):
    query = CensusQuery(
        Pattern((0, 2, 4, 6, 8)), Requirements((1, 1, 1, 1, 1)), X7
    )
    assert count_tuples(table_big, query).count <= 1


# The block engine, with blocks small enough that a 1e4 table spans many.
SMALL_BLOCK = 64


def _random_cases(seed, count):
    """Patterns with at least one odd offset, three demand vectors each."""
    rng = random.Random(seed)
    for _ in range(count):
        offsets = {0, 2 * rng.randrange(0, 12) + 1}
        offsets |= {rng.randrange(1, 40) for _ in range(rng.randrange(0, 3))}
        pattern = Pattern(tuple(offsets))
        vectors = [
            Requirements(tuple(rng.randrange(1, 4) for _ in pattern.offsets))
            for _ in range(3)
        ]
        yield pattern, vectors


@pytest.mark.parametrize("parity", ["odd", "all"])
@pytest.mark.parametrize("mode", ["exact", "atmost"])
def test_small_blocks_match_oracle(table_small, monkeypatch, parity, mode):
    monkeypatch.setattr(census, "BLOCK", SMALL_BLOCK)
    # odd parity has one start per two n, so its block edges sit at twice these x
    edges = {1, 2, 3, 1000}
    for edge in (SMALL_BLOCK, 2 * SMALL_BLOCK, 3 * SMALL_BLOCK, 4 * SMALL_BLOCK):
        edges |= {edge - 1, edge, edge + 1}
    for pattern, vectors in _random_cases(f"{parity}-{mode}", 4):
        for x in sorted(edges):
            want = tuple(_brute_force(pattern, v.demands, x, parity, mode) for v in vectors)
            for workers in (1, 2, 3):
                got = count_demands(table_small, pattern, vectors, x, parity, mode, workers)
                assert got == want, (pattern, x, workers)


def test_count_demands_matches_count_tuples(table_big):
    triples = [Requirements(d) for d in ((1, 1, 2), (1, 2, 2), (2, 2, 2), (2, 2, 3), (1, 1, 2))]
    pairs = [Requirements(d) for d in ((1, 2), (2, 1), (3, 3), (1, 1))]
    for pattern, vectors in ((Pattern((0, 2, 6)), triples), (Pattern((0, 4)), pairs)):
        for parity in ("odd", "all"):
            for mode in ("exact", "atmost"):
                got = count_demands(table_big, pattern, vectors, X7, parity, mode)
                want = tuple(
                    count_tuples(table_big, CensusQuery(pattern, v, X7, parity, mode)).count
                    for v in vectors
                )
                assert got == want, (pattern, parity, mode)
    assert count_demands(table_big, Pattern((0, 2)), [], X7) == ()


def test_count_demands_validates_every_vector(table_small):
    with pytest.raises(ValueError):
        count_demands(table_small, Pattern((0, 2)), [Requirements((1, 1)), Requirements((1,))], 100)
    with pytest.raises(TableBoundError):
        count_demands(table_small, Pattern((0, 2)), [Requirements((1, 1))], table_small.limit)


def test_demands_beyond_a_byte(table_small):
    pattern = Pattern((0, 2))
    huge = Requirements((1, 300))
    assert count_tuples(table_small, CensusQuery(pattern, huge, 10_000)).count == 0
    atmost = count_tuples(
        table_small, CensusQuery(pattern, huge, 10_000, mode="atmost")
    ).count
    assert atmost == _brute_force(pattern, huge.demands, 10_000, "odd", "atmost")


@pytest.mark.parametrize("parity", ["odd", "all"])
def test_census_memory_is_one_block(parity):
    # the engine only reads the table, so zeros stand in for a 1e8 table
    values = np.zeros(10**8 + 7, dtype=np.uint8)
    values.flags.writeable = False
    table = OmegaTable(limit=10**8 + 6, values=values)
    query = CensusQuery(
        Pattern((0, 2, 6)), Requirements((2, 2, 3)), 10**8, parity=parity, mode="atmost"
    )
    tracemalloc.start()
    try:
        count = count_tuples(table, query).count
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 0
    assert peak < 8 * 2**20


@pytest.fixture(scope="module")
def built_and_mapped(tmp_path_factory):
    """A 2^20 table as built, and the same table saved and loaded back."""
    built = ap.build_omega_table(2**20)
    path = tmp_path_factory.mktemp("mapped") / "omega.bin"
    ap.save_table(built, path)
    return built, ap.load_table(path)


@pytest.mark.parametrize("parity", ["odd", "all"])
@pytest.mark.parametrize("mode", ["exact", "atmost"])
def test_census_on_mapped_table(built_and_mapped, parity, mode):
    built, mapped = built_and_mapped
    x = 2**20 - 6
    for pattern, vectors in (
        (Pattern((0, 2, 6)), [Requirements(d) for d in ((1, 1, 2), (2, 2, 2), (2, 2, 3))]),
        (Pattern((0, 1)), [Requirements(d) for d in ((1, 2), (2, 2))]),
    ):
        want = count_demands(built, pattern, vectors, x, parity, mode)
        assert count_demands(mapped, pattern, vectors, x, parity, mode, workers=2) == want
        assert count_demands(mapped, pattern, vectors, x, parity, mode) == want


@pytest.mark.parametrize("parity", ["odd", "all"])
def test_histogram_on_mapped_table(built_and_mapped, parity):
    built, mapped = built_and_mapped
    want = ap.k_histogram(built, built.limit, parity=parity)
    assert np.array_equal(ap.k_histogram(mapped, mapped.limit, parity=parity), want)


def test_sieve_threads_give_identical_tables():
    # more threads than cores and frequent switches, so a lost write would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tables = [
            ap.build_omega_table(300_001, segment_size=1 << 14, workers=w) for w in (1, 2, 3)
        ]
    finally:
        sys.setswitchinterval(interval)
    assert all(t.values.tobytes() == tables[0].values.tobytes() for t in tables[1:])
    pinned = "7b765029b469010d067444bba577535a1a2675ff970ae0b3e57a040466ae9ca1"
    table = ap.build_omega_table(X7, workers=2)
    assert hashlib.sha256(table.values).hexdigest() == pinned
