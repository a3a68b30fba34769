import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import aptuple as ap
from aptuple import census
from aptuple._primes import trial_division_omega
from aptuple.census import CensusQuery, count_patterns, count_tuples
from aptuple.patterns import Pattern, Requirements
from aptuple.sieve import OmegaTable, TableBoundError

X7 = 10**7
_omega = functools.lru_cache(maxsize=None)(trial_division_omega)


def _brute_force(pattern, demands, x, parity, mode):
    start = 1
    step = 2 if parity == "odd" else 1
    count = 0
    for n in range(start, x + 1, step):
        ok = True
        for h, k in zip(pattern.offsets, demands):
            w = _omega(n + h)
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
                got = count_patterns(table_small, [pattern], vectors, x, parity, mode, workers)[0]
                assert got == want, (pattern, x, workers)


def _random_family(rng, m, widest=41):
    """Three patterns of length m; the widest ends at the odd offset widest."""
    patterns = []
    for width in (widest, 23, 16):
        inner = rng.sample(range(1, width), m - 2) if m > 2 else []
        offsets = (0, *inner, width) if m > 1 else (0,)
        patterns.append(Pattern(offsets))
    return patterns


@pytest.mark.parametrize("block", [64, 100])
@pytest.mark.parametrize("parity", ["odd", "all"])
@pytest.mark.parametrize("mode", ["exact", "atmost"])
def test_pattern_scan_matches_per_pattern_and_oracle(tmp_path, monkeypatch, block, parity, mode):
    # blocks of 64 and 100 starts leave partial blocks and padded words; the
    # tables end exactly at x + h_max, where an odd offset reads projection 1
    # up to an even limit's last byte. Each table is also saved and mapped
    # back, whose 13-byte header puts the projection views at the other
    # address parity. The last family's widest offset is odd and over twice
    # the block, so under either parity the source it reads has a halo wider
    # than a block.
    monkeypatch.setattr(census, "BLOCK", block)
    rng = random.Random(f"{block}-{parity}-{mode}")
    for limit in (1500, 1501):
        built = ap.build_omega_table(limit)
        ap.save_table(built, tmp_path / "omega.bin")
        mapped = ap.load_table(tmp_path / "omega.bin")
        for m, widest in ((1, 41), (2, 41), (3, 41), (3, 2 * block + 11)):
            patterns = _random_family(rng, m, widest)
            x = limit - max(p.max_offset for p in patterns)
            vectors = [
                Requirements(tuple(rng.choice((1, 2, 3, 255, 300)) for _ in range(m)))
                for _ in range(3)
            ]
            # the demands met by the widest pattern's tuple at n = x, which ends at the limit
            last = tuple(_omega(x + h) for h in patterns[0].offsets)
            vectors += [Requirements((1,) * m), Requirements(last)]
            want = tuple(
                tuple(_brute_force(p, v.demands, x, parity, mode) for v in vectors)
                for p in patterns
            )
            for table, workers in itertools.product((built, mapped), (1, 2, 3)):
                got = count_patterns(table, patterns, vectors, x, parity, mode, workers)
                assert got == want, (patterns, limit, table is mapped, workers)
                assert got == tuple(
                    count_patterns(table, [p], vectors, x, parity, mode, workers)[0]
                    for p in patterns
                )
            for table in (built, mapped):
                with pytest.raises(TableBoundError):
                    count_patterns(table, patterns, vectors, x + 1, parity, mode)


def test_count_demands_matches_count_tuples(table_big):
    triples = [Requirements(d) for d in ((1, 1, 2), (1, 2, 2), (2, 2, 2), (2, 2, 3), (1, 1, 2))]
    pairs = [Requirements(d) for d in ((1, 2), (2, 1), (3, 3), (1, 1))]
    for pattern, vectors in ((Pattern((0, 2, 6)), triples), (Pattern((0, 4)), pairs)):
        for parity in ("odd", "all"):
            for mode in ("exact", "atmost"):
                got = count_patterns(table_big, [pattern], vectors, X7, parity, mode)[0]
                want = tuple(
                    count_tuples(table_big, CensusQuery(pattern, v, X7, parity, mode)).count
                    for v in vectors
                )
                assert got == want, (pattern, parity, mode)
    assert count_patterns(table_big, [Pattern((0, 2))], [], X7) == ((),)


def test_count_demands_validates_every_vector(table_small):
    with pytest.raises(ValueError, match="pattern length 2 != requirements length 1"):
        count_patterns(
            table_small, [Pattern((0, 2))], [Requirements((1, 1)), Requirements((1,))], 100
        )
    with pytest.raises(TableBoundError):
        count_patterns(table_small, [Pattern((0, 2))], [Requirements((1, 1))], table_small.limit)


@pytest.mark.parametrize(
    "patterns,vectors,arguments,named",
    [
        ([], [Requirements((1,))], {"x": -7, "parity": "bogus"}, "parity"),
        ([Pattern((0, 2))], [], {"x": 0, "parity": "bogus", "mode": "nope"}, "parity"),
        ([], [], {"x": 100, "mode": "nope"}, "mode"),
        ([Pattern((0, 2))], [], {"x": 0}, "x"),
        ([], [Requirements((1,))], {"x": 100, "workers": 0}, "workers"),
    ],
)
def test_count_patterns_checks_arguments_before_any_early_return(
    table_small, monkeypatch, patterns, vectors, arguments, named
):
    monkeypatch.setattr(census, "_count_range", lambda *a: pytest.fail("scanned"))
    with pytest.raises(ValueError, match=rf"\b{named}\b"):
        count_patterns(table_small, patterns, vectors, **arguments)


def test_count_patterns_rejects_workers_below_one(table_small, monkeypatch):
    # the check comes before any scan, so _count_range is never reached
    monkeypatch.setattr(census, "_count_range", lambda *a: pytest.fail("scanned"))
    query = CensusQuery(Pattern((0, 2)), Requirements((1, 1)), 1000)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            count_patterns(
                table_small, [query.pattern], [query.requirements], 1000, workers=workers
            )
        with pytest.raises(ValueError, match="workers"):
            count_tuples(table_small, query, workers=workers)


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
        want = count_patterns(built, [pattern], vectors, x, parity, mode)[0]
        assert count_patterns(mapped, [pattern], vectors, x, parity, mode, workers=2)[0] == want
        assert count_patterns(mapped, [pattern], vectors, x, parity, mode)[0] == want


@pytest.mark.parametrize("parity", ["odd", "all"])
def test_histogram_on_mapped_table(built_and_mapped, monkeypatch, parity):
    # chunks of 5000 release pages at edges that are not page-aligned, and
    # each histogram reads back the pages the one before released
    built, mapped = built_and_mapped
    monkeypatch.setattr(census, "HISTOGRAM_CHUNK", 5000)
    for x in (built.limit, 12_345, built.limit):
        want = ap.k_histogram(built, x, parity=parity)
        assert np.array_equal(ap.k_histogram(mapped, x, parity=parity), want)


@pytest.mark.parametrize("parity", ["odd", "all"])
@pytest.mark.parametrize("mode", ["exact", "atmost"])
def test_released_pages_keep_every_count(built_and_mapped, monkeypatch, parity, mode):
    # blocks of 3000 starts release a few pages each, at edges that are not
    # page-aligned; each scan of the same mapped table reads back the pages
    # the scan before released. No page is released twice, none past the
    # entries the scan's starts cover, and all but a page or two per chunk is.
    built, mapped = built_and_mapped
    monkeypatch.setattr(census, "BLOCK", 3000)
    release = census._release
    released = []

    def spy(table, start, stop):
        end = release(table, start, stop)
        if end > start:
            released.append((start, end))
        return end

    monkeypatch.setattr(census, "_release", spy)
    x = 2**20 - 6
    scale = 2 if parity == "odd" else 1
    patterns = [Pattern((0, 2, 6)), Pattern((0, 1, 4))]
    vectors = [Requirements(d) for d in ((1, 1, 2), (2, 2, 2))]
    want = count_patterns(built, patterns, vectors, x, parity, mode)
    assert released == []
    for workers in (1, 2, 1, 2):
        del released[:]
        assert count_patterns(mapped, patterns, vectors, x, parity, mode, workers) == want
        spans = sorted(released)
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
        assert spans[-1][1] <= scale * ((x + 1) // 2 if parity == "odd" else x + 1)
        assert sum(b - a for a, b in spans) > 0.9 * x


RSS_PROBE = """
import sys
import aptuple as ap
from aptuple.census import CensusQuery, count_tuples
from aptuple.patterns import Pattern, Requirements

def rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmRSS:"))

table = ap.load_table(sys.argv[1])
query = CensusQuery(Pattern((0, 2)), Requirements((1, 2)), table.limit - 2)
before = rss()
count = count_tuples(table, query).count
counted = rss()
ap.k_histogram(table, table.limit)
print(count, counted - before, rss() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_mapped_census_keeps_little_of_the_table_resident(tmp_path):
    # without releases, the scan and the histogram would each leave the whole
    # 32 MiB payload resident; with them, a block's worth of pages and the
    # scan's buffers remain
    limit = 2**25
    path = tmp_path / "omega.bin"
    ap.write_omega_table(limit, path)
    env = dict(os.environ, PYTHONPATH=str(Path(ap.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", RSS_PROBE, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    count, census_growth, histogram_growth = map(int, done.stdout.split())
    assert count == count_tuples(
        ap.load_table(path), CensusQuery(Pattern((0, 2)), Requirements((1, 2)), limit - 2)
    ).count
    assert census_growth < limit / 4
    assert histogram_growth < limit / 4


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
