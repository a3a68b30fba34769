"""Tables of Omega(n), the number of prime factors counted with multiplicity.

The table is built by a segmented sieve over odd n only. Every odd base
prime power q = p^j <= limit (p <= sqrt(limit)) credits each odd multiple
of q in the segment with one factor of p, which gives each n exactly the
multiplicity of p, and with w_p = round(7 log2 p) log units. One packed
uint16 add of 256 - w_p per prime power does both: the factor lands in the
high byte, and the low byte counts the log units down from a start value
(an accumulator acc(n) of at most 248, see below). Whatever the base primes
leave unfactored is a single prime above sqrt(limit); instead of dividing
it out, n gets its last factor when acc(n) falls well short of 7 log2 n,
and the start value makes that test a borrow into the high byte, so the
high byte is Omega(n) when the last credit lands. The low byte then
takes Omega(n - 1) from Omega(2m) = Omega(m) + 1, and the buffer read as
bytes is the segment's stretch of the table. One byte per value keeps a
10^9-entry table around 1 GB.

Each table is sieved from one plan. The powers 3, 9, 5, 7, 11 and 13
(those that are base prime powers <= limit) have credits periodic in the
odd index i = (n - 1)/2 with period WHEEL = 3^2 5 7 11 13 = 45045, so
their sum is built once as a template of one period (90 KB, or the whole
table, if that is shorter), and a segment starts as adds of the template
to its start values, in pieces that wrap at the period. Every other base
prime power q, 25 and 27 among them, gets a first index in the segment,
computed for all of them in one numpy expression. For a segment of S odd
entries, a dense power (256 q < S) is one strided add. A sparse power
(256 q >= S) has at most 256 odd multiples in the segment, and all of
them go through one scatter: np.repeat and one cumsum list the hits of
every sparse power, and np.add.at adds their credits, in calls of about
SCATTER_CHUNK = 2^13 hits, so the index temporaries stay near 0.1 MB.
add.at adds twice where two powers of one prime share an n, and a power
with no multiple in the segment adds nothing, so the table is the same
for any cut; the cut only sets the speed. A strided add costs a
Python-level call of several microseconds however few its hits, while
the scatter costs about 10 ns a hit, so the cut moves every power with
few hits into the scatter and leaves the loop to the dense powers, whose
cost is memory, not calls. The 48 segments of limit 1e8 took 0.22 to
0.29 s with the cut at S/128, S/256 or S/512 and with the loop for every
power below S (medians of 21 interleaved rounds in each of two
processes): within that range the cut moves the time less than the noise
between processes does.

Every limit uses one segment size, DEFAULT_SEGMENT_SIZE = 2^21 numbers
(S = 2^20) unless a build asks for another. The loop then covers the
powers below 4096 whatever the limit, so the Python work per segment no
longer grows with sqrt(limit), and a larger segment would buy nothing.

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
n < 2^34 (7.316 * 34 = 248.7), so acc(n) <= 248; the factor count in the
high byte is at most log3 n < 22. build_omega_table rejects limits of 2^34
and above.

Why the borrow is exact. Let f be the number of base prime factors of n,
so the credits sum to 256 f - acc(n), and let n start at
B = 255 + max(k - theta, 0), where k = T(n); B depends only on k, and T is
constant on runs of n, so a segment sets it one run at a time. The final
entry is 256 f + B - acc(n), computed modulo 2^16 but exact, as it lies in
[0, 2^16). With d = max(k - theta, 0) <= 7 * 34 - theta < 256 - 7 and
0 <= acc(n) <= 248, the term B - acc(n) = 255 + d - acc(n) lies in
[7, 511), so the high byte is f + 1 exactly when 255 + d - acc(n) >= 256,
that is when acc(n) < d, and f otherwise. For k <= theta, d = 0 and
acc(n) < 0 never holds; for k > theta, acc(n) < k - theta is D > theta,
the leftover-prime test above. So the high byte is Omega(n).

Why a finished segment is final bytes. A table is sieved in spans: [0, 2),
then spans that double in length, [2, 4), [4, 8), ..., until they reach
the segment length L, then spans of L, the last one cut at limit + 1. So
every span [lo, hi) after the first has lo even and hi <= 2 lo. Entry i of
a span's packed buffer holds n = lo + 2i + 1 in its high byte. In
little-endian order its low byte comes first, at byte 2i, the place of the
even n - 1 = lo + 2i, so once every low byte holds Omega(lo + 2i) the
buffer's bytes are values[lo:hi] in order (for odd hi - lo the buffer has
one more entry, whose high byte, n = hi, is cut off). That low byte is
Omega(lo/2 + i) + 1, and the halves values[lo/2 : lo/2 + ceil((hi - lo)/2)]
end at or below lo, since hi <= 2 lo: they lie in spans finished before.
The span is completed in chunks of FINISH_CHUNK = 2^18 entries: each
chunk's low bytes are cleared, or-ed with its halves and incremented, and
since Omega(lo/2 + i) <= 33 the increment never carries into the high
byte. The first span, n = 0 and 1, needs no halves: the cleared low byte
is values[0] = 0, and the sieve gives Omega(1) = 0. So the table is one
ordered stream of finished blocks. build_omega_table copies them into
memory and reads each chunk's halves straight from its own values;
write_omega_table appends them to the cache file and reads each chunk's
halves back from the bytes it has written, into one buffer of
FINISH_CHUNK bytes, so it holds O(segment) memory at any limit. Spans are
sieved in order on the calling thread, in one reused buffer.

A cache file is a 13-byte header followed by the values. Both writers,
save_table and write_omega_table, go through _publish: it fails with ENOSPC
before writing if the file system has less free space than the file needs,
writes a new file (mkstemp), checks its length, and renames it over the
old one (os.replace), so a failed write leaves nothing behind. load_table
maps a file read-only instead of copying it: processes that load one file
share its page-cache pages, and each process's RSS counts only the pages it
has mapped in. The table keeps that mapping, and _release drops the pages
of a range from this process (MADV_DONTNEED) once a scan has passed them;
they stay in the page cache, and a later read maps them again. So a census
keeps O(block) of a table resident at any x: a count at 1e8 on a 2^27
table peaks at about 31 MB of RSS, not 126 MB. Truncating a mapped file in
place would make later reads raise SIGBUS; the writers never do that, since
they only ever rename a new file over the old one.

This module only builds, saves and loads tables, and a table (so a cache
file) always holds Omega(n); counting in one is the census module's job.

Conventions: values[0] = values[1] = 0 (empty product).
"""

from __future__ import annotations

import errno
import math
import mmap
import os
import struct
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._primes import primes_up_to

MAGIC = b"OMGA"
FORMAT_VERSION = 1
HEADER_SIZE = 13  # magic, version byte, little-endian uint64 limit
DEFAULT_SEGMENT_SIZE = 1 << 21  # numbers per segment unless a build asks otherwise


class CacheFormatError(Exception):
    """Table file does not carry the expected magic/version header."""


class CacheCorruptionError(Exception):
    """Table file payload does not match its declared length."""


class TableBoundError(ValueError):
    """A query asked for values beyond the table limit."""


@dataclass(frozen=True)
class OmegaTable:
    """Immutable array of Omega(n) for 0 <= n <= limit, one uint8 per value.

    _mapping is the file mapping that values views for a table from
    load_table, and None for a table built in memory; see _release.
    """

    limit: int
    values: np.ndarray
    _mapping: mmap.mmap | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.values.dtype != np.uint8 or self.values.shape != (self.limit + 1,):
            raise ValueError("values must be a uint8 array of length limit + 1")


LOG_UNITS = 7  # accumulator units per bit of log2 n
LIMIT_BOUND = 1 << 34  # limits must stay below this for the 8-bit log accumulator
WHEEL = 3**2 * 5 * 7 * 11 * 13  # period, in odd indices, of the sieve template
SPARSE_HITS = 256  # a power with at most this many odd multiples per segment is scattered
SCATTER_CHUNK = 1 << 13  # hits per np.add.at call of the scatter
FINISH_CHUNK = 1 << 18  # entries per halves request when a span's low bytes are finished
_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)  # None where mmap has no madvise


def _log_units_start(k: int) -> int:
    """Smallest n >= 1 with floor(7 log2 n) >= k, i.e. with n^7 >= 2^k."""
    n = max(1, math.ceil(2.0 ** (k / LOG_UNITS)))
    while n > 1 and (n - 1) ** LOG_UNITS >= 1 << k:
        n -= 1
    while n**LOG_UNITS < 1 << k:
        n += 1
    return n


@dataclass(frozen=True)
class _SievePlan:
    """What every segment of one table shares, built once per table.

    template holds the summed credits of the wheel powers (the base prime
    powers dividing WHEEL) at global odd index i, n = 2i + 1, for one
    period, or for every odd index of a table shorter than that; powers
    holds every other base prime power, ascending, and credits its 256 - w_p.
    """

    theta: int
    template: np.ndarray
    powers: np.ndarray
    credits: np.ndarray


def _sieve_plan(limit: int) -> _SievePlan:
    """The plan for a table of 0..limit."""
    root = math.isqrt(limit)
    primes = np.array(primes_up_to(root)[1:], dtype=np.int64)
    weights = np.rint(LOG_UNITS * np.log2(primes)).astype(np.int64)
    template = np.zeros(min(WHEEL, (limit + 1) // 2), dtype="<u2")
    rest = []
    for p, w in zip(primes.tolist(), weights.tolist()):
        q = p
        while q <= limit:
            if WHEEL % q == 0:
                template[(q - 1) >> 1 :: q] += 256 - w
            else:
                rest.append((q, 256 - w))
            q *= p
    rest.sort()
    return _SievePlan(
        theta=int(LOG_UNITS / 2 * math.log2(root + 1)),
        template=template,
        powers=np.array([q for q, _ in rest], dtype=np.int64),
        credits=np.array([credit for _, credit in rest], dtype="<u2"),
    )


def _segment_omega(lo: int, hi: int, plan: _SievePlan, packed: np.ndarray) -> np.ndarray:
    """Sieve [lo, hi) into packed and return it; entry i's high byte is Omega(lo + 2i + 1).

    lo must be even, hi - 1 at most the plan's limit, and packed a "<u2"
    array of (hi - lo + 1) // 2 entries; its low bytes, and the high byte
    of the extra entry an odd hi - lo adds, are left for _omega_blocks.
    """
    size = (hi - lo) // 2
    # n in [start(k), start(k + 1)) share the target T(n) = k, and start at
    # 255 + max(k - theta, 0) plus their wheel credits (see the borrow proof);
    # each run adds the template in pieces that wrap at the period
    k = ((lo + 1) ** LOG_UNITS).bit_length() - 1
    begin = 0
    while begin < size:
        end = min(size, max(0, (_log_units_start(k + 1) - lo) >> 1))
        base = 255 + max(k - plan.theta, 0)
        while begin < end:
            t = ((lo >> 1) + begin) % WHEEL
            stop = min(end, begin + WHEEL - t)
            np.add(plan.template[t : t + stop - begin], base, out=packed[begin:stop])
            begin = stop
        k += 1

    stop = np.searchsorted(plan.powers, hi)
    powers, credits = plan.powers[:stop], plan.credits[:stop]
    # the first odd multiple of q at or above lo is lo + ((q - lo) mod 2q)
    firsts = ((powers - lo) % (2 * powers)) >> 1
    split = np.searchsorted(powers * SPARSE_HITS, size)
    for first, q, credit in zip(firsts[:split].tolist(), powers[:split].tolist(),
                                credits[:split].tolist()):
        packed[first::q] += credit
    _scatter(packed, firsts[split:], powers[split:], credits[split:])
    return packed


def _scatter(packed: np.ndarray, firsts: np.ndarray, powers: np.ndarray,
             credits: np.ndarray) -> None:
    """Add each credit at firsts[j], firsts[j] + powers[j], ... below len(packed).

    The hits go out in np.add.at calls of about SCATTER_CHUNK each; add.at
    adds twice where two powers of one prime share an n.
    """
    # first < q, so (len - 1 - first) // q is -1 exactly when first >= len
    counts = (len(packed) - 1 - firsts) // powers + 1
    keep = counts > 0
    firsts, powers, credits, counts = firsts[keep], powers[keep], credits[keep], counts[keep]
    ends = np.cumsum(counts)
    a = 0
    while a < len(counts):
        done = ends[a] - counts[a]
        b = max(a + 1, int(np.searchsorted(ends, done + SCATTER_CHUNK, side="right")))
        run = counts[a:b]
        # one cumsum walks every run: q within a run, and a jump from the
        # last hit of the run before to the first hit of this one
        steps = np.repeat(powers[a:b], run)
        lasts = firsts[a:b] + (run - 1) * powers[a:b]
        steps[ends[a:b] - run - done] = firsts[a:b] - np.concatenate(([0], lasts[:-1]))
        np.add.at(packed, np.cumsum(steps, out=steps), np.repeat(credits[a:b], run))
        a = b


def _check_build(limit: int, segment_size: int) -> None:
    """Reject build arguments out of range."""
    if limit < 2:
        raise ValueError(f"need limit >= 2, got {limit}")
    if limit >= LIMIT_BOUND:
        raise ValueError(
            f"need limit < 2**{LIMIT_BOUND.bit_length() - 1} for the log accumulator, got {limit}"
        )
    if segment_size < 2:
        raise ValueError(f"need segment_size >= 2, got {segment_size}")


def _available_memory() -> int | None:
    """MemAvailable from /proc/meminfo in bytes, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _spans(limit: int, segment_size: int) -> list[tuple[int, int]]:
    """The spans [lo, hi) that cover 0..limit, in the order they are sieved.

    [0, 2), then spans doubling in length up to segment_size (rounded down
    to even), then spans of that length, the last cut at limit + 1; so
    every span [lo, hi) after the first has hi <= 2 lo.
    """
    step = segment_size & ~1
    spans = [(0, 2)]
    while spans[-1][1] <= limit:
        lo = spans[-1][1]
        spans.append((lo, min(lo + min(lo, step), limit + 1)))
    return spans


def _omega_blocks(limit: int, segment_size: int, halves):
    """Yield values[lo:hi] of the table for consecutive spans, as uint8 arrays.

    halves(a, n) returns values[a : a + n] as a uint8 array, valid until it
    is called again; it is asked only for n <= FINISH_CHUNK entries below
    the lo of the block being made (a + n <= lo), all in blocks yielded
    before. A yielded block is a view of a reused buffer, valid until the
    next one is asked for.
    """
    spans = _spans(limit, segment_size)
    plan = _sieve_plan(limit)
    buffer = np.empty(max((hi - lo + 1) // 2 for lo, hi in spans), dtype="<u2")
    for lo, hi in spans:
        packed = _segment_omega(lo, hi, plan, buffer[: (hi - lo + 1) // 2])
        # the cleared low byte of [0, 2) is Omega(0) = 0; every later low byte
        # of entry i is Omega(lo + 2i) = Omega(lo/2 + i) + 1
        for c in range(0, len(packed), FINISH_CHUNK):
            part = packed[c : c + FINISH_CHUNK]
            part &= 0xFF00
            if lo > 0:
                part |= halves((lo >> 1) + c, len(part))
                part += 1
        yield packed.view(np.uint8)[: hi - lo]


def build_omega_table(
    limit: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers=None,
) -> OmegaTable:
    """Build the table of Omega(n), with multiplicity, for 0..limit by segmented sieving.

    Parameters
    ----------
    limit : int
        Inclusive upper bound, 2 <= limit < 2^34 (the range in which the
        log accumulator is proven exact, see the module docstring).
    segment_size : int
        Numbers processed per segment, rounded down to even; affects memory
        and speed only, never the result. DEFAULT_SEGMENT_SIZE (2^21) by
        default, at every limit.
    workers
        Accepted and ignored, for callers that still pass the worker count
        of earlier versions: the sieve runs on the calling thread.

    Raises
    ------
    ValueError
        For arguments out of range, before anything is allocated.
    MemoryError
        If the table's limit + 1 bytes exceed MemAvailable in /proc/meminfo
        (checked only where that file can be read), or if the table cannot
        be allocated; no partial table is returned.
    """
    _check_build(limit, segment_size)
    available = _available_memory()
    if available is not None and limit + 1 > available:
        raise MemoryError(f"a table of limit {limit} needs {limit + 1} bytes, "
                          f"only {available} are available; write_omega_table "
                          "streams it to a file instead")
    values = np.empty(limit + 1, dtype=np.uint8)
    lo = 0

    def halves(a: int, n: int) -> np.ndarray:
        return values[a : a + n]

    for block in _omega_blocks(limit, segment_size, halves):
        values[lo : lo + len(block)] = block
        lo += len(block)
    values.flags.writeable = False
    return OmegaTable(limit=limit, values=values)


def _header(limit: int) -> bytes:
    return MAGIC + bytes([FORMAT_VERSION]) + struct.pack("<Q", limit)


def _write_all(fd: int, data) -> None:
    """Write every byte of data at the file position; os.write may write fewer."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view) :]


def _read_into(fd: int, buf: np.ndarray, offset: int) -> None:
    """Fill the uint8 array buf from the file bytes at offset; os.preadv may read fewer."""
    view = memoryview(buf)
    while view:
        got = os.preadv(fd, [view], offset)
        if got == 0:
            raise CacheCorruptionError(f"file ended at byte {offset} while reading back")
        view, offset = view[got:], offset + got


def _publish(path: Path, size: int, write) -> float:
    """Run write(fd) on a new temporary file beside path, check it, then rename it over path.

    Fails with ENOSPC, before anything is written, if the file system has
    less than size bytes free, and with CacheCorruptionError if write(fd)
    leaves a file of another length. A uniquely named file (mkstemp) means
    concurrent writers never share a file, and the rename (os.replace)
    means readers see either the old table or the new one. On any
    exception the temporary file is removed and path is left as it was.
    Returns the seconds the rename took.
    """
    stat = os.statvfs(path.parent)
    free = stat.f_bavail * stat.f_frsize
    if free < size:
        raise OSError(errno.ENOSPC, f"{path.name} needs {size} bytes, "
                                    f"{path.parent} has {free} free")
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        try:
            write(fd)
            found = os.fstat(fd).st_size
        finally:
            os.close(fd)
        if found != size:
            raise CacheCorruptionError(f"{path}: wrote {found} bytes, expected {size}")
        started = time.perf_counter()
        os.replace(tmp, path)
        return time.perf_counter() - started
    except BaseException:
        os.unlink(tmp)
        raise


def write_omega_table(
    limit: int,
    path: str | Path,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> float:
    """Sieve the table of 0..limit straight into a cache file at path.

    The file is byte-for-byte what save_table(build_omega_table(limit), path)
    writes, but the table is never held: each finished segment is appended
    to a temporary file, and the halves its even entries need are read back
    from the bytes already written, so memory stays O(segment) at any
    limit. The arguments mean what they mean for build_omega_table; once
    they are checked, the directory of path is made if it is missing.
    Returns the seconds the final rename took.

    Raises
    ------
    ValueError
        For arguments out of range, before anything is written.
    OSError
        ENOSPC if the file system has less free space than the file needs,
        checked before anything is written; any error writing the file.
        No temporary file is left behind, and path is left as it was.
    """
    _check_build(limit, segment_size)
    Path(path).parent.mkdir(parents=True, exist_ok=True)

    def write(fd: int) -> None:
        _write_all(fd, _header(limit))
        buf = np.empty(FINISH_CHUNK, dtype=np.uint8)

        def halves(a: int, n: int) -> np.ndarray:
            _read_into(fd, buf[:n], HEADER_SIZE + a)
            return buf[:n]

        for block in _omega_blocks(limit, segment_size, halves):
            _write_all(fd, block)

    return _publish(Path(path), HEADER_SIZE + limit + 1, write)


def save_table(table: OmegaTable, path: str | Path) -> None:
    """Write the table in the binary cache format (magic, version, limit, bytes).

    The payload is written straight from the array's buffer, through
    _publish: concurrent writers never share a file, readers see either the
    old table or the new one, and a file system without room for the file
    raises ENOSPC before anything is written, leaving path as it was.
    """

    def write(fd: int) -> None:
        _write_all(fd, _header(table.limit))
        _write_all(fd, np.ascontiguousarray(table.values))

    _publish(Path(path), HEADER_SIZE + table.limit + 1, write)


def load_table(path: str | Path) -> OmegaTable:
    """Map a table written by save_table or write_omega_table read-only; round-trips byte-for-byte.

    The header and the file size are checked before anything is mapped.
    The values are then a read-only view of a shared mapping of the file,
    not a copy: every process that loads the same file reads the same
    page-cache pages, loading costs no read of the payload, and a process's
    RSS grows only by the pages its queries touch. The table keeps the
    mapping, so a scan can release the pages it has passed (_release) and
    hold only the block it reads. The mapping lives as long as the array.
    Truncating the file in place while it is mapped would make reads of the
    lost pages raise SIGBUS; save_table and write_omega_table never do
    that, because they write a new file and rename it over the old one, so
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
    return OmegaTable(limit=int(limit), values=values, _mapping=mapped)


def _release(table: OmegaTable, start: int, stop: int) -> int:
    """Drop this process's mapping of the payload pages wholly inside entries [start, stop).

    Payload byte i sits at mapping offset HEADER_SIZE + i, so start is
    rounded up and stop (cut at the table's end) down to mmap.PAGESIZE. The
    mapping is shared and read-only: released pages stay in the page cache,
    and a later read maps them again, so no value a read sees can change.
    Does nothing for a table built in memory, whose values may be a
    caller's private or anonymous memory that MADV_DONTNEED would discard,
    or where mmap has no madvise. Returns the entry the released pages end
    at (start if none were released), where the next release can go on.
    """
    if table._mapping is None or _DONTNEED is None:
        return start
    first = -(-(HEADER_SIZE + start) // mmap.PAGESIZE) * mmap.PAGESIZE
    end = (HEADER_SIZE + min(stop, table.limit + 1)) // mmap.PAGESIZE * mmap.PAGESIZE
    if end <= first:
        return start
    table._mapping.madvise(_DONTNEED, first, end - first)
    return end - HEADER_SIZE
