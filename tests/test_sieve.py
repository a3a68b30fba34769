import hashlib
import multiprocessing
import random
import struct
import tracemalloc
from math import isqrt

import numpy as np
import pytest

import aptuple as ap
from aptuple import sieve
from aptuple._primes import primes_up_to, trial_division_omega
from aptuple.sieve import (
    DEFAULT_SEGMENT_SIZE,
    CacheCorruptionError,
    CacheFormatError,
    OmegaTable,
    TableBoundError,
    _segment_omega,
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
@pytest.mark.parametrize("segment_size", [2, 3, 999, DEFAULT_SEGMENT_SIZE])
@pytest.mark.parametrize("limit", [2, 3, 9_999, 10_000])
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
    root = isqrt(hi)
    omega = _segment_omega(lo, hi, root)
    assert omega.shape == (1 << 16,)
    rng = random.Random(20261018)
    for i in rng.sample(range(len(omega)), 200):
        n = lo + 2 * i + 1
        assert omega[i] == trial_division_omega(n), n


PINNED_1E7 = "7b765029b469010d067444bba577535a1a2675ff970ae0b3e57a040466ae9ca1"


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


def test_load_holds_one_copy(tmp_path):
    path = tmp_path / "omega.bin"
    ap.save_table(ap.build_omega_table(2**22), path)
    tracemalloc.start()
    try:
        loaded = ap.load_table(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.limit == 2**22
    assert peak < 1.1 * 2**22


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
