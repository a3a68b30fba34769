import errno
import hashlib
import inspect
import math
import mmap
import multiprocessing
import random
import struct
import tracemalloc
from math import isqrt
from types import SimpleNamespace

import numpy as np
import pytest

import aptuple as ap
from aptuple import sieve
from aptuple._primes import primes_up_to, trial_division_omega
from aptuple.sieve import (
    DEFAULT_SEGMENT_SIZE,
    HEADER_SIZE,
    LIMIT_BOUND,
    CacheCorruptionError,
    CacheFormatError,
    OmegaTable,
    WHEEL,
    TableBoundError,
    _release,
    _segment_omega,
    _sieve_plan,
)


X7 = 10**7


def test_defined_values(table_small):
    assert table_small.values[0] == 0
    assert table_small.values[1] == 0
    assert table_small.values[12] == 3  # 12 = 2^2 * 3
    assert table_small.values[97] == 1


def test_trial_division_oracle(table_small):
    for n in range(10_001):
        assert table_small.values[n] == trial_division_omega(n), n


def test_primes_have_count_one(table_small):
    ps = primes_up_to(10_000)
    assert np.all(table_small.values[ps] == 1)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 9, 25, 10**6, 10**6 + 1])
def test_primes_up_to_matches_plain_sieve(n):
    plain = np.ones(n + 1, dtype=bool)
    plain[:2] = False
    for p in range(2, isqrt(n) + 1):
        if plain[p]:
            plain[p * p :: p] = False
    primes = primes_up_to(n)
    assert primes.dtype == np.int64
    assert np.array_equal(primes, np.flatnonzero(plain))
    if n >= 2:
        assert primes is primes_up_to(n)  # cached, and read-only because shared
        assert not primes.flags.writeable


def test_complete_additivity(table_big):
    rng = random.Random(20260811)
    values = table_big.values
    for _ in range(10_000):
        a = rng.randrange(2, 100_000)
        b = rng.randrange(2, table_big.limit // a)
        assert values[a * b] == values[a] + values[b]


def test_partition_identity(table_small, table_big):
    for table in (table_small, table_big):
        hist = ap.k_histogram(table, table.limit)
        assert hist[0] == 0
        assert int(hist.sum()) == table.limit - 1


def test_log2_cap(table_small):
    n = np.arange(2, table_small.limit + 1, dtype=np.int64)
    assert np.all((np.int64(1) << table_small.values[2:].astype(np.int64)) <= n)


def test_segment_size_determinism():
    a = ap.build_omega_table(100_000, segment_size=1_000)
    b = ap.build_omega_table(100_000, segment_size=1_000_000)
    assert np.array_equal(a.values, b.values)


def test_worker_determinism():
    a = ap.build_omega_table(200_000, segment_size=1 << 16, workers=1)
    b = ap.build_omega_table(200_000, segment_size=1 << 16, workers=2)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("reload", [False, True])
# 1 << 22 and the default each sieve every limit here in one segment
@pytest.mark.parametrize("segment_size", [2, 3, 999, 1 << 22, DEFAULT_SEGMENT_SIZE])
# 26: 25 is a power outside the wheel, 27 is above the limit, and 7, 11, 13
# are above the root (leftover primes); 168 and 169: 13 is just above and
# at the root, so at 169 every wheel power is in; 676: 17, 19 and 23 are
# base primes too, and 25, 27 and 81 are powers the wheel leaves out
@pytest.mark.parametrize("limit", [2, 3, 26, 168, 169, 676, 9_999, 10_000])
def test_odd_sieve_matches_oracle(tmp_path, limit, segment_size, reload):
    table = ap.build_omega_table(limit, segment_size=segment_size)
    if reload:
        # the mapped view of the saved file, down to the 16-byte file of limit 2
        ap.save_table(table, tmp_path / "omega.bin")
        table = ap.load_table(tmp_path / "omega.bin")
    expected = [trial_division_omega(n) for n in range(limit + 1)]
    assert table.values.tolist() == expected


def test_high_segment_near_1e9():
    lo = 10**9 - (1 << 17)
    hi = lo + (1 << 17)
    plan = _sieve_plan(10**9)
    omega = _segment_omega(lo, hi, plan, np.empty(1 << 16, "<u2")) >> 8
    assert omega.shape == (1 << 16,)
    rng = random.Random(20261018)
    for i in rng.sample(range(len(omega)), 200):
        n = lo + 2 * i + 1
        assert omega[i] == trial_division_omega(n), n


@pytest.mark.parametrize("n", [LIMIT_BOUND - 1, 7**12, 3**21])
def test_high_segments_near_the_bound(n):
    # the 2^17 segment ending at n, in a table of the largest allowed limit:
    # the largest accumulators, and a prime power of 7 or 3 far above the wheel
    lo, hi = n + 1 - (1 << 17), n + 1
    plan = _sieve_plan(LIMIT_BOUND - 1)
    omega = _segment_omega(lo, hi, plan, np.empty(1 << 16, "<u2")) >> 8
    rng = random.Random(n)
    for i in [len(omega) - 1, *rng.sample(range(len(omega)), 200)]:
        m = lo + 2 * i + 1
        assert omega[i] == trial_division_omega(m), m


PINNED_1E7 = "7b765029b469010d067444bba577535a1a2675ff970ae0b3e57a040466ae9ca1"
PINNED_1E8 = "cca47e6da46e45a866a9c09a9e739db9272299b2a834dfa15567972bb42f991a"


@pytest.mark.parametrize(
    "limit, reload, digest", [(10**7, False, PINNED_1E7), (10**7, True, PINNED_1E7)]
)
def test_pinned_table_hashes(tmp_path, limit, reload, digest):
    # sha256 of the table built by an independent cofactor-division sieve
    table = ap.build_omega_table(limit)
    if reload:
        ap.save_table(table, tmp_path / "omega.bin")
        table = ap.load_table(tmp_path / "omega.bin")
    assert hashlib.sha256(table.values).hexdigest() == digest


@pytest.mark.parametrize("workers, segment_size", [
    (2, DEFAULT_SEGMENT_SIZE),
    # segments of 500001 odd entries (11.1 periods of the 45045-entry wheel)
    # start at shifting points of the period, so template slices wrap it
    (1, 1_000_002),
    (2, 1_000_002),
])
def test_pinned_hash_for_workers_and_segments(workers, segment_size):
    table = ap.build_omega_table(10**7, segment_size=segment_size, workers=workers)
    assert hashlib.sha256(table.values).hexdigest() == PINNED_1E7


def test_huge_segment_allocates_by_the_table():
    tracemalloc.start()
    try:
        table = ap.build_omega_table(10**6, segment_size=10**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert table.values[999_983] == 1 and table.values[2**19] == 19


def test_build_argument_errors():
    with pytest.raises(ValueError):
        ap.build_omega_table(1)
    with pytest.raises(ValueError):
        ap.build_omega_table(100, segment_size=1)
    with pytest.raises(ValueError):
        ap.build_omega_table(100, workers=0)
    # outside the proven range of the log accumulator; rejected before allocating
    with pytest.raises(ValueError):
        ap.build_omega_table(2**34)


def test_build_checks_available_memory(monkeypatch):
    monkeypatch.setattr(sieve, "_available_memory", lambda: 10_000)
    with pytest.raises(MemoryError, match="needs 10001 bytes, only 10000 are available"):
        ap.build_omega_table(10_000)
    assert ap.build_omega_table(9_999).limit == 9_999
    # argument errors, the 2^34 bound among them, still come first
    with pytest.raises(ValueError):
        ap.build_omega_table(2**34)
    with pytest.raises(ValueError):
        ap.build_omega_table(10**5, workers=0)
    # where /proc/meminfo cannot be read there is no check
    monkeypatch.setattr(sieve, "_available_memory", lambda: None)
    assert ap.build_omega_table(10**5).limit == 10**5


def test_available_memory_reads_meminfo():
    available = sieve._available_memory()
    try:
        with open("/proc/meminfo") as fh:
            fh.read()
    except OSError:
        assert available is None
    else:
        assert 0 < available < 2**50


def test_count_k_almost_examples(table_small):
    assert ap.k_histogram(table_small, 100)[1] == 25  # primes to 100
    assert ap.k_histogram(table_small, 30)[2] == 10  # 4,6,9,10,14,15,21,22,25,26
    assert ap.k_histogram(table_small, 100, parity="odd")[1] == 24  # odd primes to 100
    # no 5-almost prime up to 2: a k past the end of the histogram counts zero
    assert len(ap.k_histogram(table_small, 2)) <= 5


def test_k_histogram_empty_odd_range(table_small):
    # no odd n lies in [3, 2]
    hist = ap.k_histogram(table_small, 2, parity="odd")
    assert hist.tolist() == [0]
    assert hist[0] == 0 and hist.sum() == 0


def test_k_histogram_errors(table_small):
    with pytest.raises(TableBoundError):
        ap.k_histogram(table_small, table_small.limit + 1)
    with pytest.raises(ValueError):
        ap.k_histogram(table_small, 1)
    with pytest.raises(ValueError):
        ap.k_histogram(table_small, 100, parity="even")


def test_histogram_matches_counts(table_small):
    values = table_small.values
    for x in (2, 3, 5_000):
        hist = ap.k_histogram(table_small, x)
        assert hist.sum() == x - 1
        for k in range(len(hist)):
            assert hist[k] == np.count_nonzero(values[2 : x + 1] == k)


def test_save_load_round_trip(tmp_path):
    table = ap.build_omega_table(10_000)
    path = tmp_path / "omega.bin"
    ap.save_table(table, path)

    raw = path.read_bytes()
    assert raw[:4] == b"OMGA"
    assert raw[4] == 1
    assert struct.unpack("<Q", raw[5:13])[0] == 10_000
    assert len(raw) == 13 + 10_001

    loaded = ap.load_table(path)
    assert loaded.limit == table.limit
    assert np.array_equal(loaded.values, table.values)

    # a second save writes identical bytes
    path2 = tmp_path / "again.bin"
    ap.save_table(loaded, path2)
    assert path2.read_bytes() == raw


def _save_repeatedly(path, limit, rounds, start):
    table = ap.build_omega_table(limit)
    start.wait(timeout=60)
    for _ in range(rounds):
        ap.save_table(table, path)


def test_concurrent_saves_to_one_cache(tmp_path):
    path = tmp_path / "omega.bin"
    ctx = multiprocessing.get_context("spawn")
    start = ctx.Barrier(3)
    writers = [
        ctx.Process(target=_save_repeatedly, args=(path, 200_000, 100, start))
        for _ in range(3)
    ]
    for proc in writers:
        proc.start()
    for proc in writers:
        proc.join(timeout=120)
    assert all(not proc.is_alive() and proc.exitcode == 0 for proc in writers)
    assert np.array_equal(ap.load_table(path).values, ap.build_omega_table(200_000).values)
    assert [p.name for p in tmp_path.iterdir()] == ["omega.bin"]


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + bytes([1]) + struct.pack("<Q", 10) + bytes(11))
    with pytest.raises(CacheFormatError):
        ap.load_table(path)


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"OMGA" + bytes([2]) + struct.pack("<Q", 10) + bytes(11))
    with pytest.raises(CacheFormatError):
        ap.load_table(path)


def test_load_rejects_short_payload(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"OMGA" + bytes([1]) + struct.pack("<Q", 100) + bytes(11))
    with pytest.raises(CacheCorruptionError):
        ap.load_table(path)


def test_load_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "long.bin"
    path.write_bytes(b"OMGA" + bytes([1]) + struct.pack("<Q", 10) + bytes(20))
    with pytest.raises(CacheCorruptionError):
        ap.load_table(path)


@pytest.mark.parametrize("cut", [1, 5_000])
def test_load_rejects_truncated_table(tmp_path, cut):
    path = tmp_path / "omega.bin"
    ap.save_table(ap.build_omega_table(10_000), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-cut])
    with pytest.raises(CacheCorruptionError):
        ap.load_table(path)


@pytest.mark.parametrize("extra", [b"\x00", bytes(5_000)])
def test_load_rejects_table_with_extra_bytes(tmp_path, extra):
    path = tmp_path / "omega.bin"
    ap.save_table(ap.build_omega_table(10_000), path)
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(CacheCorruptionError):
        ap.load_table(path)


def test_load_checks_size_before_allocating(tmp_path):
    # a header declaring an exabyte table is rejected, not allocated
    path = tmp_path / "huge.bin"
    path.write_bytes(b"OMGA" + bytes([1]) + struct.pack("<Q", 2**60) + bytes(11))
    with pytest.raises(CacheCorruptionError):
        ap.load_table(path)


def test_loaded_table_is_read_only(tmp_path):
    path = tmp_path / "omega.bin"
    ap.save_table(ap.build_omega_table(1_000), path)
    loaded = ap.load_table(path)
    with pytest.raises(ValueError):
        loaded.values[2] = 7


def test_histogram_memory_is_one_chunk(table_big):
    windows = {"all": table_big.values[2 : X7 + 1], "odd": table_big.values[3 : X7 + 1 : 2]}
    for parity, window in windows.items():
        want = np.bincount(window)
        tracemalloc.start()
        try:
            hist = ap.k_histogram(table_big, X7, parity=parity)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(hist, want)
        assert hist.dtype == want.dtype
        assert peak < 16 * 2**20


def test_table_is_read_only(table_small):
    with pytest.raises(ValueError):
        table_small.values[2] = 7


def _corrupt_files(tmp_path):
    """A truncated file, one with extra bytes, and a header declaring 2^60."""
    path = tmp_path / "omega.bin"
    ap.save_table(ap.build_omega_table(10_000), path)
    raw = path.read_bytes()
    cases = {
        "truncated": raw[:-1],
        "extra": raw + b"\x00",
        "huge": b"OMGA" + bytes([1]) + struct.pack("<Q", 2**60) + bytes(11),
    }
    for name, data in cases.items():
        bad = tmp_path / f"{name}.bin"
        bad.write_bytes(data)
        yield bad


def test_corrupt_files_rejected_before_mapping(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mapped a file that failed its checks")

    monkeypatch.setattr(sieve.mmap, "mmap", refuse)
    for path in _corrupt_files(tmp_path):
        with pytest.raises(CacheCorruptionError):
            ap.load_table(path)


def test_mapped_table_cannot_be_made_writable(tmp_path):
    path = tmp_path / "omega.bin"
    ap.save_table(ap.build_omega_table(1_000), path)
    loaded = ap.load_table(path)
    with pytest.raises(ValueError):
        loaded.values.flags.writeable = True
    with pytest.raises(ValueError):
        loaded.values[2:5] = 0
    assert path.read_bytes()[13 + 2 : 13 + 5] == bytes([1, 1, 2])


def test_load_maps_instead_of_copying(tmp_path):
    path = tmp_path / "omega.bin"
    ap.save_table(ap.build_omega_table(2**22), path)
    tracemalloc.start()
    try:
        loaded = ap.load_table(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.limit == 2**22
    assert peak < 2**20


def test_replaced_file_leaves_earlier_load_intact(tmp_path):
    path = tmp_path / "omega.bin"
    old = ap.build_omega_table(10_000)
    new = OmegaTable(limit=10_000, values=np.full(10_001, 7, dtype=np.uint8))
    ap.save_table(old, path)
    earlier = ap.load_table(path)
    ap.save_table(new, path)
    assert np.array_equal(earlier.values, old.values)
    assert np.array_equal(ap.load_table(path).values, new.values)
    # a larger table replacing the file does not disturb the old mapping either
    ap.save_table(ap.build_omega_table(20_000), path)
    assert np.array_equal(earlier.values, old.values)
    assert ap.load_table(path).limit == 20_000


def _saved_bytes(path, limit):
    """The cache file save_table writes for the in-memory table of limit."""
    ap.save_table(ap.build_omega_table(limit), path)
    return path.read_bytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_streamed_file_equals_saved_table_small(tmp_path, workers):
    for limit in [*range(2, 61), 99, 100, 101]:
        want = _saved_bytes(tmp_path / "saved.bin", limit)
        for segment_size in (2, 3, 999, None):  # None: the default segment size
            path = tmp_path / "streamed.bin"
            sized = {} if segment_size is None else {"segment_size": segment_size}
            ap.write_omega_table(limit, path, workers=workers, **sized)
            assert path.read_bytes() == want, (limit, segment_size)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("segment_size", [999, None])  # None: the default segment size
# 30 WHEEL + 7: segments of 999 wrap the template period many times
@pytest.mark.parametrize("limit", [30 * WHEEL + 7, 10**5, 10**5 + 1])
def test_streamed_file_equals_saved_table(tmp_path, limit, segment_size, workers):
    path = tmp_path / "streamed.bin"
    sized = {} if segment_size is None else {"segment_size": segment_size}
    ap.write_omega_table(limit, path, workers=workers, **sized)
    assert path.read_bytes() == _saved_bytes(tmp_path / "saved.bin", limit)


@pytest.mark.parametrize("workers", [1, 2])
def test_pinned_hash_through_the_writer(tmp_path, workers):
    path = tmp_path / "omega.bin"
    ap.write_omega_table(10**7, path, workers=workers)
    assert hashlib.sha256(ap.load_table(path).values).hexdigest() == PINNED_1E7


@pytest.mark.parametrize("workers", [1, 2])
def test_streamed_build_holds_segments_not_the_table(tmp_path, workers):
    # the 32 MiB table in 16 segments of 2^21: `workers` segment buffers of
    # 2 MiB, the plan's one-period template (88 KiB), the 256 KiB buffer the
    # halves are read into and each worker's scatter chunk (0.2 MiB), never
    # the table; measured 2.6 MiB with 1 worker and 4.7 MiB with 2
    tracemalloc.start()
    try:
        ap.write_omega_table(2**25, tmp_path / "omega.bin", workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 + 2 * workers) * 2**20
    assert (tmp_path / "omega.bin").stat().st_size == 2**25 + 14


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_stream_leaves_cache_intact(tmp_path, monkeypatch, workers):
    path = tmp_path / "omega.bin"
    before = _saved_bytes(path, 10_000)
    sieve_segment = sieve._segment_omega

    def failing(lo, hi, plan, packed):
        if lo >= 30_000:
            raise RuntimeError("segment failed")
        return sieve_segment(lo, hi, plan, packed)

    monkeypatch.setattr(sieve, "_segment_omega", failing)
    with pytest.raises(RuntimeError, match="segment failed"):
        ap.write_omega_table(100_000, path, segment_size=1_000, workers=workers)
    assert [p.name for p in tmp_path.iterdir()] == ["omega.bin"]
    assert path.read_bytes() == before


def test_mapped_table_survives_streamed_replace(tmp_path):
    path = tmp_path / "omega.bin"
    ap.save_table(OmegaTable(limit=10_000, values=np.full(10_001, 7, dtype=np.uint8)), path)
    earlier = ap.load_table(path)
    ap.write_omega_table(10_000, path)
    assert np.all(earlier.values == 7)
    assert np.array_equal(ap.load_table(path).values, ap.build_omega_table(10_000).values)


def _stream_repeatedly(path, limit, rounds, start):
    start.wait(timeout=60)
    for _ in range(rounds):
        ap.write_omega_table(limit, path, segment_size=1 << 14)


def test_concurrent_streams_to_one_cache(tmp_path):
    path = tmp_path / "omega.bin"
    ctx = multiprocessing.get_context("spawn")
    start = ctx.Barrier(3)
    writers = [
        ctx.Process(target=_stream_repeatedly, args=(path, 200_000, 5, start))
        for _ in range(3)
    ]
    for proc in writers:
        proc.start()
    for proc in writers:
        proc.join(timeout=120)
    assert all(not proc.is_alive() and proc.exitcode == 0 for proc in writers)
    assert np.array_equal(ap.load_table(path).values, ap.build_omega_table(200_000).values)
    assert [p.name for p in tmp_path.iterdir()] == ["omega.bin"]


def test_stream_fails_early_on_a_full_disk(tmp_path, monkeypatch):
    free = SimpleNamespace(f_bavail=100_013, f_frsize=1)  # one byte short of limit 10^5
    monkeypatch.setattr(sieve.os, "statvfs", lambda path: free)
    with pytest.raises(OSError) as info:
        ap.write_omega_table(10**5, tmp_path / "omega.bin")
    assert info.value.errno == errno.ENOSPC
    assert "100014" in str(info.value) and "100013" in str(info.value)
    assert list(tmp_path.iterdir()) == []


def test_stream_argument_errors_write_nothing(tmp_path):
    for kwargs in ({"limit": 1}, {"limit": 2**34}, {"limit": 100, "segment_size": 1},
                   {"limit": 100, "workers": 0}):
        with pytest.raises(ValueError):
            ap.write_omega_table(path=tmp_path / "omega.bin", **kwargs)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("limit", [2, 2**27, 10**9, LIMIT_BOUND - 1])
def test_default_segment_is_one_size_for_every_limit(tmp_path, monkeypatch, limit):
    for build in (ap.build_omega_table, ap.write_omega_table):
        assert inspect.signature(build).parameters["segment_size"].default == DEFAULT_SEGMENT_SIZE

    # the spans a default build sieves, caught before any is sieved
    class Spans(Exception):
        pass

    def record(spans, length, plan, workers):
        raise Spans(spans)

    monkeypatch.setattr(sieve, "_packed_segments", record)
    roomy = SimpleNamespace(f_bavail=1 << 40, f_frsize=1)
    monkeypatch.setattr(sieve.os, "statvfs", lambda path: roomy)
    with pytest.raises(Spans) as info:
        ap.write_omega_table(limit, tmp_path / "omega.bin")
    longest = max(hi - lo for lo, hi in info.value.args[0])
    assert longest <= DEFAULT_SEGMENT_SIZE
    assert longest == DEFAULT_SEGMENT_SIZE or limit < 2 * DEFAULT_SEGMENT_SIZE
    # the template holds one wheel period, or every odd index of a shorter table
    assert len(_sieve_plan(limit).template) == min(WHEEL, (limit + 1) // 2)


def test_pinned_1e8_payload_through_the_writer(tmp_path):
    path = tmp_path / "omega.bin"
    ap.write_omega_table(10**8, path)
    digest = hashlib.sha256(ap.load_table(path).values).hexdigest()
    path.unlink()  # pytest keeps recent temporary directories; this file is 100 MB
    assert digest == PINNED_1E8


@pytest.mark.parametrize("hits, chunk", [
    (math.inf, 1),  # every power scattered, one power per np.add.at call
    (math.inf, sieve.SCATTER_CHUNK),  # every power scattered
    (0, 1),  # no power scattered: one strided add each
])
def test_scatter_threshold_and_chunks_keep_the_table(monkeypatch, hits, chunk):
    monkeypatch.setattr(sieve, "SPARSE_HITS", hits)
    monkeypatch.setattr(sieve, "SCATTER_CHUNK", chunk)
    table = ap.build_omega_table(10**7)
    assert hashlib.sha256(table.values).hexdigest() == PINNED_1E7


def test_scattered_powers_of_one_prime_share_an_n():
    # a segment of 4096 numbers scatters every power q with 256 q >= 2048:
    # 49 and 343 (7 itself is in the wheel), 25 and 125 (5 is too), and 289
    # and 4913, which both hit n = 14739 = 3 * 17^3
    lo, hi = 12_288, 16_384
    assert 49 * sieve.SPARSE_HITS >= (hi - lo) // 2
    omega = _segment_omega(lo, hi, _sieve_plan(10**6), np.empty(2048, "<u2")) >> 8
    assert omega.tolist() == [trial_division_omega(n) for n in range(lo + 1, hi, 2)]


@pytest.mark.parametrize("segment_size, top", [
    (2, 12), (3, 12), (4, 12), (999, 22), (DEFAULT_SEGMENT_SIZE, 22),
])
def test_halves_come_from_finished_blocks(monkeypatch, segment_size, top):
    # the contract the proof of final bytes rests on: every halves request
    # ends at or below the lo of the block being made; the sieve itself is
    # stubbed out, since only the requests are checked
    monkeypatch.setattr(sieve, "_segment_omega", lambda lo, hi, plan, packed: packed)
    for limit in [*range(2, 10), *(2**k + d for k in range(2, top + 1) for d in (-1, 1)), 100_001]:
        made = 0

        def halves(a, n):
            assert a + n <= made and n <= sieve.FINISH_CHUNK, (limit, a, n, made)
            return np.zeros(n, dtype=np.uint8)

        for block in sieve._omega_blocks(limit, segment_size, 1, halves):
            made += len(block)
        assert made == limit + 1


@pytest.mark.parametrize("segment_size, chunk", [
    (1_000, 7),  # spans of 500 entries, not a multiple of the chunk
    (1_000, 250),  # spans of exactly two chunks
    (1_000, 1),
    (3, 7),  # every span is shorter than one chunk
    (999, None),  # None: the default chunk, longer than every span
])
@pytest.mark.parametrize("limit", [9_999, 10_000])  # 10_000: the last span has odd hi - lo
def test_chunked_finish_keeps_the_table(tmp_path, monkeypatch, limit, segment_size, chunk):
    if chunk is not None:
        monkeypatch.setattr(sieve, "FINISH_CHUNK", chunk)
    expected = [trial_division_omega(n) for n in range(limit + 1)]
    table = ap.build_omega_table(limit, segment_size=segment_size)
    assert table.values.tolist() == expected
    ap.write_omega_table(limit, tmp_path / "omega.bin", segment_size=segment_size)
    assert ap.load_table(tmp_path / "omega.bin").values.tolist() == expected


def test_save_fails_early_on_a_full_disk(tmp_path, monkeypatch):
    path = tmp_path / "omega.bin"
    before = _saved_bytes(path, 10_000)
    free = SimpleNamespace(f_bavail=100_013, f_frsize=1)  # one byte short of limit 10^5
    monkeypatch.setattr(sieve.os, "statvfs", lambda path: free)

    def refuse(*args, **kwargs):
        raise AssertionError("opened a file on a full disk")

    monkeypatch.setattr(sieve.tempfile, "mkstemp", refuse)
    with pytest.raises(OSError) as info:
        ap.save_table(ap.build_omega_table(10**5), path)
    assert info.value.errno == errno.ENOSPC
    assert "100014" in str(info.value) and "100013" in str(info.value)
    assert [p.name for p in tmp_path.iterdir()] == ["omega.bin"]
    assert path.read_bytes() == before


@pytest.mark.parametrize("writer", [
    lambda path: ap.save_table(ap.build_omega_table(10**4), path),
    lambda path: ap.write_omega_table(10**4, path),
], ids=["save", "stream"])
def test_writers_check_the_written_length(tmp_path, monkeypatch, writer):
    path = tmp_path / "omega.bin"
    before = _saved_bytes(path, 1_000)
    header = sieve._header
    monkeypatch.setattr(sieve, "_header", lambda limit: header(limit) + b"\0")
    with pytest.raises(CacheCorruptionError, match="wrote 10015 bytes, expected 10014"):
        writer(path)
    assert [p.name for p in tmp_path.iterdir()] == ["omega.bin"]
    assert path.read_bytes() == before


needs_madvise = pytest.mark.skipif(
    getattr(mmap, "MADV_DONTNEED", None) is None, reason="mmap has no madvise here"
)


class _Advice:
    """Stands in for a table's mapping and records each madvise call."""

    def __init__(self):
        self.calls = []

    def madvise(self, advice, start, length):
        self.calls.append((advice, start, length))


@needs_madvise
@pytest.mark.parametrize("start,stop", [
    (0, 10 * mmap.PAGESIZE),  # the header's page is never wholly payload
    (1, 3 * mmap.PAGESIZE - HEADER_SIZE + 1),  # neither end page-aligned
    (mmap.PAGESIZE - HEADER_SIZE, 3 * mmap.PAGESIZE - HEADER_SIZE),  # both aligned
    (5 * mmap.PAGESIZE, 12 * mmap.PAGESIZE),  # stop past the end is cut there
])
def test_release_drops_only_whole_payload_pages(start, stop):
    limit = 10 * mmap.PAGESIZE + 100
    mapping = _Advice()
    table = OmegaTable(limit=limit, values=np.zeros(limit + 1, dtype=np.uint8),
                       _mapping=mapping)
    first = -(-(HEADER_SIZE + start) // mmap.PAGESIZE) * mmap.PAGESIZE
    end = (HEADER_SIZE + min(stop, limit + 1)) // mmap.PAGESIZE * mmap.PAGESIZE
    assert _release(table, start, stop) == end - HEADER_SIZE
    assert mapping.calls == [(mmap.MADV_DONTNEED, first, end - first)]
    # every released byte is payload inside [start, stop), and nothing is
    # released twice when the next release goes on from the returned entry
    assert start <= first - HEADER_SIZE and end - HEADER_SIZE <= min(stop, limit + 1)
    assert _release(table, end - HEADER_SIZE, stop) == end - HEADER_SIZE
    assert len(mapping.calls) == 1


@needs_madvise
def test_release_within_one_page_does_nothing():
    mapping = _Advice()
    table = OmegaTable(limit=10**5, values=np.zeros(10**5 + 1, dtype=np.uint8),
                       _mapping=mapping)
    for start, stop in [(0, 100), (100, mmap.PAGESIZE), (10**5 - 50, 10**5 + 1), (7, 7)]:
        assert _release(table, start, stop) == start
    assert mapping.calls == []


@needs_madvise
def test_release_leaves_in_memory_tables_alone():
    # values in a private anonymous mapping, whose pages MADV_DONTNEED would
    # zero: a table built in memory has no mapping of its own to release
    limit = 64 * mmap.PAGESIZE
    anonymous = mmap.mmap(-1, limit + 1, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    values = np.frombuffer(anonymous, dtype=np.uint8)
    values[:] = 7
    table = OmegaTable(limit=limit, values=values)
    assert table._mapping is None
    assert _release(table, 0, limit + 1) == 0
    assert np.all(values == 7)
    built = ap.build_omega_table(limit)
    assert _release(built, 0, limit + 1) == 0


def test_released_pages_read_back_the_same(tmp_path):
    # limit 2^17 + 5 leaves a partial last page; every release below, aligned
    # or not, at either end or past it, is followed by a full read
    path = tmp_path / "omega.bin"
    built = ap.build_omega_table(2**17 + 5)
    ap.save_table(built, path)
    loaded = ap.load_table(path)
    assert loaded._mapping is not None
    assert "_mapping" not in repr(loaded)
    page = mmap.PAGESIZE
    for start, stop in [(0, loaded.limit + 1), (1, 5 * page + 3), (page - HEADER_SIZE, 9 * page),
                        (loaded.limit - 2 * page, loaded.limit + 1), (loaded.limit, 10**9)]:
        _release(loaded, start, stop)
        assert np.array_equal(loaded.values, built.values), (start, stop)
