"""Tables of Omega(n), the number of prime factors counted with multiplicity.

The table is built by a segmented sieve over odd n only. Every odd base
prime power q = p^j <= limit credits each odd multiple of q in the segment
with one factor of p, which gives each n exactly the multiplicity of p, and
with w_p = round(7 log2 p) log units. One packed uint16 add per prime power
does both: the factor lands in the high byte, the log units in the low byte
(an accumulator acc(n) that never carries, see below). Whatever the base
primes leave unfactored is a single prime above sqrt(limit); instead of
dividing it out, n gets its last factor when acc(n) falls well short of
7 log2 n. Even entries come afterwards from Omega(2m) = Omega(m) + 1. One
byte per value keeps a 10^9-entry table around 1 GB.

Why the threshold is exact. Let r = isqrt(limit), so every n <= limit is
below (r + 1)^2 and has at most one prime factor P > r. Write
n = s * P^e, e in {0, 1}, s built from primes <= r, and R = log2(r + 1).
For odd n, Omega(n) <= log3 n. Each weight is off by at most 1/2 unit, so
|acc(n) - 7 log2 s| <= Omega(s)/2. The target T(n) = floor(7 log2 n) is
exact (n^7 >= 2^k decides it in integers), so 7 log2 n - 1 < T(n) <= 7 log2 n.
With D = T(n) - acc(n):

- e = 0: D <= Omega(n)/2 <= log3(n)/2 < log3(r + 1) = 0.631 R;
- e = 1: s = n/P < r + 1 and P >= r + 1, so
  D > 7 log2 P - 1 - Omega(s)/2 >= 7 R - 1 - 0.316 R = 6.68 R - 1.

The threshold theta = floor(3.5 R), about half of 7 log2 sqrt(limit),
satisfies 0.631 R <= 3.5 R - 1 < theta <= 3.5 R <= 6.68 R - 1 for every
R >= 1, so n has a leftover prime exactly when D > theta.

Why the accumulator cannot overflow. For odd n,
acc(n) <= 7 log2 n + log3(n)/2 = 7.316 log2 n, which is below 256 while
n < 2^34 (7.316 * 34 = 248.7); the factor count in the high byte is at most
log3 n < 22. build_omega_table rejects limits of 2^34 and above.

Segments are sieved on threads that write their disjoint slices of the
table in place. A cache file is a 13-byte header followed by the values.
load_table maps it read-only instead of copying it: processes that load
one file share its page-cache pages, and each process's RSS counts only
the pages it touches. Truncating a mapped file in place would make later
reads raise SIGBUS; save_table never does that, since it writes a new file
(mkstemp) and renames it over the old one (os.replace).

This module only builds, saves and loads tables, and a table (so a cache
file) always holds Omega(n); counting in one is the census module's job.

Conventions: values[0] = values[1] = 0 (empty product).
"""

from __future__ import annotations

import math
import mmap
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._primes import primes_up_to

MAGIC = b"OMGA"
FORMAT_VERSION = 1
HEADER_SIZE = 13  # magic, version byte, little-endian uint64 limit
DEFAULT_SEGMENT_SIZE = 1 << 22


class CacheFormatError(Exception):
    """Table file does not carry the expected magic/version header."""


class CacheCorruptionError(Exception):
    """Table file payload does not match its declared length."""


class TableBoundError(ValueError):
    """A query asked for values beyond the table limit."""


@dataclass(frozen=True)
class OmegaTable:
    """Immutable array of Omega(n) for 0 <= n <= limit, one uint8 per value."""

    limit: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.dtype != np.uint8 or self.values.shape != (self.limit + 1,):
            raise ValueError("values must be a uint8 array of length limit + 1")


LOG_UNITS = 7  # accumulator units per bit of log2 n
LIMIT_BOUND = 1 << 34  # limits must stay below this for the 8-bit log accumulator


def _log_units_start(k: int) -> int:
    """Smallest n >= 1 with floor(7 log2 n) >= k, i.e. with n^7 >= 2^k."""
    n = max(1, math.ceil(2.0 ** (k / LOG_UNITS)))
    while n > 1 and (n - 1) ** LOG_UNITS >= 1 << k:
        n -= 1
    while n**LOG_UNITS < 1 << k:
        n += 1
    return n


def _segment_omega(lo: int, hi: int, root: int) -> np.ndarray:
    """Factor counts for the odd n in [lo, hi); entry i holds n = lo + 2i + 1.

    lo must be even and hi <= (root + 1)^2, so that the primes up to root
    leave at most one prime factor of each n unfound.
    """
    primes = primes_up_to(root)[1:]
    weights = np.rint(LOG_UNITS * np.log2(primes)).astype(np.int64)
    packed = np.zeros((hi - lo) // 2, dtype="<u2")
    for p, w in zip(primes.tolist(), weights.tolist()):
        credit = 256 + w  # one factor in the high byte, w log units in the low byte
        q = p
        while q < hi:
            first = -(-lo // q) * q
            if not first & 1:
                first += q
            if first >= hi:
                break
            packed[(first - lo) >> 1 :: q] += credit
            q *= p

    low_high = packed.view(np.uint8)
    acc = low_high[0::2]
    omega = np.ascontiguousarray(low_high[1::2])
    theta = int(LOG_UNITS / 2 * math.log2(root + 1))
    # n in [start(k), start(k + 1)) share the target T(n) = k
    k = ((lo + 1) ** LOG_UNITS).bit_length() - 1
    begin = 0
    while begin < len(omega):
        end = min(len(omega), max(0, (_log_units_start(k + 1) - lo) >> 1))
        if k > theta:
            omega[begin:end] += acc[begin:end] < k - theta
        begin = end
        k += 1
    return omega


def _fill_even(values: np.ndarray) -> None:
    """Set every even entry from its half once the odd entries are final.

    Omega(2m) = Omega(m) + 1. Doubling the block [a, 2a) fills the even
    entries of [2a, 4a), whose halves are all final by then, and writes in
    place without a temporary.
    """
    half = (len(values) - 1) // 2 + 1
    a = 1
    while a < half:
        b = min(2 * a, half)
        np.add(values[a:b], 1, out=values[2 * a : 2 * b : 2])
        a = b


def build_omega_table(
    limit: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> OmegaTable:
    """Build the table of Omega(n), with multiplicity, for 0..limit by segmented sieving.

    Parameters
    ----------
    limit : int
        Inclusive upper bound, 2 <= limit < 2^34 (the range in which the
        log accumulator is proven exact, see the module docstring).
    segment_size : int
        Numbers processed per segment, rounded down to even; affects memory
        and scheduling only, never the result.
    workers : int
        Segments are sieved on this many threads, each writing its odd
        entries straight into the table; numpy's strided adds release the
        interpreter lock. The table is identical for any worker count.

    Raises
    ------
    ValueError
        For arguments out of range, before anything is allocated.
    MemoryError
        If the table cannot be allocated; no partial table is returned.
    """
    if limit < 2:
        raise ValueError(f"need limit >= 2, got {limit}")
    if limit >= LIMIT_BOUND:
        raise ValueError(f"need limit < 2**34 for the log accumulator, got {limit}")
    if segment_size < 2:
        raise ValueError(f"need segment_size >= 2, got {segment_size}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")

    root = math.isqrt(limit)
    values = np.zeros(limit + 1, dtype=np.uint8)
    step = segment_size & ~1
    spans = [(lo, min(lo + step, limit + 1)) for lo in range(0, limit, step)]

    def sieve(span: tuple[int, int]) -> None:
        lo, hi = span
        values[lo + 1 : hi : 2] = _segment_omega(lo, hi, root)

    # imported here: loading concurrent.futures (and logging with it) costs
    # every process that only maps a cached table about 10 ms
    from concurrent.futures import ThreadPoolExecutor

    # segments write disjoint slices of values, so the threads need no lock;
    # list() reads every result, so a segment that failed raises here
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(sieve, spans))

    _fill_even(values)
    values.flags.writeable = False
    return OmegaTable(limit=limit, values=values)


def save_table(table: OmegaTable, path: str | Path) -> None:
    """Write the table in the binary cache format (magic, version, limit, bytes).

    The bytes go to a uniquely named temporary file in the same directory,
    which then replaces path, so concurrent writers never share a file and
    readers see either the old table or the new one. The payload is written
    straight from the array's buffer.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(bytes([FORMAT_VERSION]))
            fh.write(struct.pack("<Q", table.limit))
            fh.write(memoryview(np.ascontiguousarray(table.values)))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_table(path: str | Path) -> OmegaTable:
    """Map a table written by save_table read-only; round-trips byte-for-byte.

    The header and the file size are checked before anything is mapped.
    The values are then a read-only view of a shared mapping of the file,
    not a copy: every process that loads the same file reads the same
    page-cache pages, loading costs no read of the payload, and a process's
    RSS grows only by the pages its queries touch. The mapping lives as
    long as the array. Truncating the file in place while it is mapped
    would make reads of the lost pages raise SIGBUS; save_table never does
    that, because it writes a new file and renames it over the old one, so
    a table loaded earlier keeps reading the old file's pages.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE or header[:4] != MAGIC:
            raise CacheFormatError(f"{path}: not an omega table (bad magic)")
        if header[4] != FORMAT_VERSION:
            raise CacheFormatError(
                f"{path}: unsupported format version {header[4]}"
            )
        (limit,) = struct.unpack("<Q", header[5:HEADER_SIZE])
        found = os.fstat(fh.fileno()).st_size - HEADER_SIZE
        if found != limit + 1:
            raise CacheCorruptionError(
                f"{path}: declared limit {limit} needs {limit + 1} bytes, found {found}"
            )
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    values = np.frombuffer(mapped, dtype=np.uint8, count=limit + 1, offset=HEADER_SIZE)
    return OmegaTable(limit=int(limit), values=values)
