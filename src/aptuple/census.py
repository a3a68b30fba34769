"""Exhaustive tuple censuses over a sieved factor-count table.

Counts the n <= x (odd by default) for which every n + h_i carries exactly
(or at most) its demanded number of prime factors. One scan serves every
demand vector of every pattern given, so a whole pattern family costs one
pass: the range of tuple starts is cut into cache-sized blocks, and each
block first makes its sources, contiguous uint8 arrays of the block plus a
halo. For all n the one source is a slice of the table; for odd n source b
is projection b, the entries n + b, split out of a little-endian uint16
view of the block by one shift. In at-most mode each source becomes w - 1
in its buffer, once per block. Offset h reads source h & 1 from index
h >> 1 for odd n, source 0 from index h for all n, so each distinct
(offset, demand) test is one compare of a unit-stride slice into one bool
scratch, packed into a row of uint64 words, and each (pattern, vector) row
ANDs its words and counts their bits. Buffers are allocated once per range;
inside the block loop only packbits allocates, W/8 bytes per test. Block
partials combine by integer addition, so any block size or worker count
yields the same totals.

A single position needs no scan per k: k_histogram bins the whole range
once and gives the count of every Omega value.

On a table mapped from a file, each scan releases the pages of its range
that it has passed (sieve._release), so a thread holds about one block of
the table resident, not every page it has read: a count at x = 1e8 peaks
at about 31 MB of RSS instead of 126 MB. A thread releases only pages
inside its own chunk that lie below its next block's first entry. Released
pages stay in the page cache and a later read maps them again, so no count
can change; a table built in memory is never released.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .patterns import Pattern, Requirements, _check_length
from .sieve import OmegaTable, TableBoundError, _release

BLOCK = 1 << 18  # tuple starts per block; of 2^15..2^19, 2^18 measured fastest
HISTOGRAM_CHUNK = 1 << 18  # table entries per bincount call; bounds its intp copy


@dataclass(frozen=True)
class CensusQuery:
    """What to count: pattern, per-position demands, bound, and conventions."""

    pattern: Pattern
    requirements: Requirements
    x: int
    parity: str = "odd"
    mode: str = "exact"

    def __post_init__(self):
        _check_length(self.pattern, self.requirements)
        _check_conventions(self.x, self.parity, self.mode)


def _check_conventions(x: int, parity: str, mode: str) -> None:
    """Raise ValueError unless parity and mode are known and x >= 1."""
    if parity not in ("odd", "all"):
        raise ValueError(f"parity must be 'odd' or 'all', got {parity!r}")
    if mode not in ("exact", "atmost"):
        raise ValueError(f"mode must be 'exact' or 'atmost', got {mode!r}")
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")


def _needed_limit(x: int, patterns: Sequence[Pattern]) -> int:
    """The table limit a census of patterns up to x reads: x plus the widest offset."""
    return x + max((pattern.max_offset for pattern in patterns), default=0)


@dataclass(frozen=True)
class CensusResult:
    query: CensusQuery
    count: int
    elapsed: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class _Plan:
    """Distinct (source, index, demand) tests, each row's tests, each source's halo."""

    tests: tuple[tuple[int, int, int], ...]
    rows: tuple[tuple[int, ...], ...]
    halos: dict[int, int]


def _plan(rows: Sequence[Sequence[tuple[int, int]]], odd: bool, exact: bool) -> _Plan:
    """Map each distinct (offset h, demand k) test of rows to a read of one source.

    For odd n, source b holds values[2(s + i) + 1 + b] (odd n at b = 0,
    n + 1 at b = 1), so h reads source h & 1 from index h >> 1; for all n
    the one source is values itself and h reads it from index h. A source's
    halo is the largest index any test reads it from.
    """
    index: dict[tuple[int, int, int], int] = {}
    halos: dict[int, int] = {}
    planned = []
    for pairs in rows:
        row = []
        for h, k in pairs:
            b, j = (h & 1, h >> 1) if odd else (0, h)
            if not exact:
                # tested as w - 1 < k on uint8; every w >= 1 passes at k = 255
                k = min(k, 255)
            halos[b] = max(halos.get(b, 0), j)
            row.append(index.setdefault((b, j, k), len(index)))
        planned.append(tuple(row))
    return _Plan(tests=tuple(index), rows=tuple(planned), halos=halos)


def _count_range(
    table: OmegaTable, plan: _Plan, odd: bool, exact: bool, lo: int, hi: int
) -> list[int]:
    """Per-row counts over the tuple-start indices [lo, hi).

    Index s stands for n = 2s + 1 when odd, for n = s otherwise. Each block
    of n starts first makes its sources, n + halo entries each: for odd n
    projection b is one right_shift of the little-endian uint16 view from
    byte 2s + b, whose last byte is the last entry the block reads; for all
    n the source is a slice of values. In at-most mode each source then
    becomes w - 1, once per block. Every test is then one compare of
    sources[b][j : j + n] with k, packed into a row of uint64 words. All
    buffers are allocated here, once, and owned by the calling thread.
    A block at start s reads no entry below scale * s, so once it is done
    the pages of this range below the next block's start are released.
    """
    values = table.values
    scale = 2 if odd else 1
    released = scale * lo
    width = min(BLOCK, hi - lo)
    words = -(-width // 64)
    bits = np.zeros(64 * words, dtype=bool)  # bits past a block's starts stay False
    masks = np.empty((len(plan.tests), words), dtype=np.uint64)
    acc = np.empty(words, dtype=np.uint64)
    ones = np.empty(words, dtype=np.uint8)
    buffers = {b: np.empty(width + halo, dtype=np.uint8) for b, halo in plan.halos.items()}
    # w - 1 < k  <=>  1 <= w <= k, since w = 0 wraps to 255
    compare = np.equal if exact else np.less
    sources: dict[int, np.ndarray] = {}

    totals = [0] * len(plan.rows)
    for start in range(lo, hi, width):
        n = min(width, hi - start)
        used = -(-n // 64)
        bits[n:] = False
        for b, buf in buffers.items():
            length = n + plan.halos[b]
            if odd:
                first = 2 * start + b
                pairs = values[first : first + 2 * length].view("<u2")
                source = np.right_shift(pairs, 8, out=buf[:length], casting="unsafe")
            else:
                source = values[start : start + length]
            sources[b] = source if exact else np.subtract(source, 1, out=buf[:length])
        for t, (b, j, k) in enumerate(plan.tests):
            compare(sources[b][j : j + n], k, out=bits[:n])
            masks[t, :used] = np.packbits(bits[: 64 * used], bitorder="little").view(np.uint64)
        for v, row in enumerate(plan.rows):
            if len(row) == 1:
                np.bitwise_count(masks[row[0], :used], out=ones[:used])
            else:
                np.bitwise_and(masks[row[0], :used], masks[row[1], :used], out=acc[:used])
                for t in row[2:]:
                    np.bitwise_and(acc[:used], masks[t, :used], out=acc[:used])
                np.bitwise_count(acc[:used], out=ones[:used])
            totals[v] += int(ones[:used].sum())
        released = _release(table, released, scale * (start + n))
    return totals


def count_patterns(
    table: OmegaTable,
    patterns: Sequence[Pattern],
    demand_vectors: Sequence[Requirements],
    x: int,
    parity: str = "odd",
    mode: str = "exact",
    workers: int = 1,
) -> tuple[tuple[int, ...], ...]:
    """Count n in [1, x] for every pattern and demand vector, all in one scan.

    Returns one tuple of counts per pattern, one count per vector, in
    order. Tests the patterns share, such as (0, k), are evaluated once.
    The table must cover x plus the largest offset of any pattern so every
    tuple element is evaluated; anything less raises rather than silently
    truncating the range. With workers > 1 the range is split into
    contiguous chunks, one thread and buffer set each.
    """
    _check_conventions(x, parity, mode)
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    for pattern in patterns:
        for requirements in demand_vectors:
            _check_length(pattern, requirements)
    needed = _needed_limit(x, patterns)
    if needed > table.limit:
        raise TableBoundError(
            f"census needs table limit >= {needed}, have {table.limit}"
        )
    if not patterns or not demand_vectors:
        return tuple(() for _ in patterns)
    odd, exact = parity == "odd", mode == "exact"
    plan = _plan(
        [list(zip(p.offsets, r.demands)) for p in patterns for r in demand_vectors], odd, exact
    )
    lo, hi = (0, (x + 1) // 2) if odd else (1, x + 1)

    def count(span: tuple[int, int]) -> list[int]:
        return _count_range(table, plan, odd, exact, *span)

    blocks = -(-(hi - lo) // BLOCK)
    chunks = min(workers, blocks)
    if chunks <= 1:
        totals = count((lo, hi))
    else:
        per_chunk = -(-blocks // chunks) * BLOCK
        spans = [(a, min(a + per_chunk, hi)) for a in range(lo, hi, per_chunk)]
        from concurrent.futures import ThreadPoolExecutor  # only threaded scans pay its import

        with ThreadPoolExecutor(max_workers=len(spans)) as pool:
            partials = list(pool.map(count, spans))
        totals = [sum(column) for column in zip(*partials)]
    per = len(demand_vectors)
    return tuple(tuple(totals[i : i + per]) for i in range(0, len(totals), per))


def k_histogram(table: OmegaTable, x: int, parity: str = "all") -> np.ndarray:
    """Counts of n in [2, x] (odd n only for parity "odd") per Omega value.

    Index k holds the count of n with Omega(n) = k, and the array ends at
    the largest k that occurs ([0] when no n is in range). The table is
    binned one chunk at a time, because bincount widens its input to intp
    (8 bytes an entry), and a mapped table's pages are released behind
    each chunk; memory stays O(chunk) at any x.
    """
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    if x > table.limit:
        raise TableBoundError(f"x = {x} exceeds table limit {table.limit}")
    if parity not in ("all", "odd"):
        raise ValueError(f"parity must be 'all' or 'odd', got {parity!r}")
    first, step = (2, 1) if parity == "all" else (3, 2)
    window = table.values[first : x + 1 : step]
    counts = np.zeros(256, dtype=np.intp)
    released = first
    for lo in range(0, len(window), HISTOGRAM_CHUNK):
        counts += np.bincount(window[lo : lo + HISTOGRAM_CHUNK], minlength=256)
        released = _release(table, released, first + step * (lo + HISTOGRAM_CHUNK))
    return counts[: np.flatnonzero(counts).max(initial=0) + 1]


def count_tuples(table: OmegaTable, query: CensusQuery, workers: int = 1) -> CensusResult:
    """Count n in [1, x] whose whole tuple satisfies the query demands."""
    started = time.perf_counter()
    ((count,),) = count_patterns(
        table, [query.pattern], [query.requirements], query.x,
        parity=query.parity, mode=query.mode, workers=workers,
    )
    return CensusResult(query=query, count=count, elapsed=time.perf_counter() - started)
