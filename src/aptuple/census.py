"""Exhaustive tuple censuses over a sieved factor-count table.

Counts the n <= x (odd by default) for which every n + h_i carries exactly
(or at most) its demanded number of prime factors. One scan serves every
demand vector of every pattern given, so a whole pattern family costs one
pass: the range of tuple starts is cut into cache-sized blocks, each
distinct (offset, demand) test is evaluated once per block into one bool
scratch and packed into a row of uint64 words, and each (pattern, vector)
row ANDs its words and counts their bits. For odd n the block's odd
entries (and, for odd offsets, its even entries) are first split out of
little-endian uint16 views of the block, one shift each, so every test
reads a unit-stride slice. Buffers are allocated once per range; inside the
block loop only packbits allocates, W/8 bytes per test. Block partials
combine by integer addition, so any block size or worker count yields the
same totals.

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
        if self.parity not in ("odd", "all"):
            raise ValueError(f"parity must be 'odd' or 'all', got {self.parity!r}")
        if self.mode not in ("exact", "atmost"):
            raise ValueError(f"mode must be 'exact' or 'atmost', got {self.mode!r}")
        if self.x < 1:
            raise ValueError(f"need x >= 1, got {self.x}")


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
    """Distinct (offset, demand) tests grouped by offset, and each row's tests."""

    groups: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    rows: tuple[tuple[int, ...], ...]
    n_tests: int


def _plan(rows: Sequence[Sequence[tuple[int, int]]], mode: str) -> _Plan:
    """Index the distinct tests of rows of (offset, demand) pairs."""
    index: dict[tuple[int, int], int] = {}
    planned = []
    for pairs in rows:
        row = []
        for h, k in pairs:
            if mode == "atmost":
                # tested as w - 1 < k on uint8; every w >= 1 passes at k = 255
                k = min(k, 255)
            row.append(index.setdefault((h, k), len(index)))
        planned.append(tuple(row))
    by_offset: dict[int, list[tuple[int, int]]] = {}
    for (h, k), t in index.items():
        by_offset.setdefault(h, []).append((t, k))
    groups = tuple((h, tuple(tests)) for h, tests in sorted(by_offset.items()))
    return _Plan(groups=groups, rows=tuple(planned), n_tests=len(index))


def _count_range(
    table: OmegaTable, plan: _Plan, odd: bool, exact: bool, lo: int, hi: int
) -> list[int]:
    """Per-row counts over the tuple-start indices [lo, hi).

    Index s stands for n = 2s + 1 when odd, for n = s otherwise. All
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
    masks = np.empty((plan.n_tests, words), dtype=np.uint64)
    acc = np.empty(words, dtype=np.uint64)
    ones = np.empty(words, dtype=np.uint8)
    shifted = np.empty(width, dtype=np.uint8)
    # projection b holds values[2(s + i) + 1 + b]: odd n at b = 0, n + 1 at b = 1,
    # so offset h reads projection h & 1 from index h >> 1
    halos: dict[int, int] = {}
    for h, _ in plan.groups if odd else ():
        halos[h & 1] = max(halos.get(h & 1, 0), h >> 1)
    projections = {b: np.empty(width + halo, dtype=np.uint8) for b, halo in halos.items()}

    totals = [0] * len(plan.rows)
    for start in range(lo, hi, width):
        n = min(width, hi - start)
        used = -(-n // 64)
        bits[n:] = False
        # pair i of the little-endian uint16 view from byte 2s + b holds projection b
        # in its high byte; the view's last byte is the last entry the block reads
        for b, buf in projections.items():
            length = n + halos[b]
            first = 2 * start + b
            pairs = values[first : first + 2 * length].view("<u2")
            np.right_shift(pairs, 8, out=buf[:length], casting="unsafe")
        for h, tests in plan.groups:
            if odd:
                window = projections[h & 1][h >> 1 : (h >> 1) + n]
            else:
                window = values[start + h : start + h + n]
            if not exact:
                # w - 1 < k  <=>  1 <= w <= k, since w = 0 wraps to 255
                np.subtract(window, 1, out=shifted[:n])
            for t, k in tests:
                if exact:
                    np.equal(window, k, out=bits[:n])
                else:
                    np.less(shifted[:n], k, out=bits[:n])
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
    for pattern in patterns:
        for requirements in demand_vectors:
            CensusQuery(pattern, requirements, x, parity=parity, mode=mode)
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    needed = _needed_limit(x, patterns)
    if needed > table.limit:
        raise TableBoundError(
            f"census needs table limit >= {needed}, have {table.limit}"
        )
    if not demand_vectors:
        return tuple(() for _ in patterns)
    plan = _plan(
        [list(zip(p.offsets, r.demands)) for p in patterns for r in demand_vectors], mode
    )
    odd = parity == "odd"
    lo, hi = (0, (x + 1) // 2) if odd else (1, x + 1)

    def count(span: tuple[int, int]) -> list[int]:
        return _count_range(table, plan, odd, mode == "exact", *span)

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
