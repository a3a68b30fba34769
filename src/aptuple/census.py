"""Exhaustive tuple censuses over a sieved factor-count table.

Counts the n <= x (odd by default) for which every n + h_i carries exactly
(or at most) its demanded number of prime factors. One scan serves every
demand vector of a pattern: the range of tuple starts is cut into
cache-sized blocks, each distinct (position, demand) test is evaluated
once per block into a preallocated mask, and each vector ANDs its masks
and counts. For odd n the block's odd entries (and, for odd offsets, its
even entries) are first gathered into contiguous buffers, so every test
reads a unit-stride slice. Nothing is allocated inside the block loop.
Block partials combine by integer addition, so any block size or worker
count yields the same totals.

A single position needs no scan per k: k_histogram bins the whole range
once and gives the count of every Omega value.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .patterns import Pattern, Requirements
from .sieve import OmegaTable, TableBoundError

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
        if len(self.pattern) != len(self.requirements):
            raise ValueError(
                f"pattern length {len(self.pattern)} != requirements length {len(self.requirements)}"
            )
        if self.parity not in ("odd", "all"):
            raise ValueError(f"parity must be 'odd' or 'all', got {self.parity!r}")
        if self.mode not in ("exact", "atmost"):
            raise ValueError(f"mode must be 'exact' or 'atmost', got {self.mode!r}")
        if self.x < 1:
            raise ValueError(f"need x >= 1, got {self.x}")


@dataclass(frozen=True)
class CensusResult:
    query: CensusQuery
    count: int
    elapsed: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class _Plan:
    """Distinct (offset, demand) tests grouped by offset, and each vector's tests."""

    groups: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    rows: tuple[tuple[int, ...], ...]
    n_tests: int


def _plan(pattern: Pattern, vectors: Sequence[Requirements], mode: str) -> _Plan:
    index: dict[tuple[int, int], int] = {}
    rows = []
    for requirements in vectors:
        row = []
        for h, k in zip(pattern.offsets, requirements.demands):
            if mode == "atmost":
                # tested as w - 1 < k on uint8; every w >= 1 passes at k = 255
                k = min(k, 255)
            row.append(index.setdefault((h, k), len(index)))
        rows.append(tuple(row))
    by_offset: dict[int, list[tuple[int, int]]] = {}
    for (h, k), t in index.items():
        by_offset.setdefault(h, []).append((t, k))
    groups = tuple((h, tuple(tests)) for h, tests in sorted(by_offset.items()))
    return _Plan(groups=groups, rows=tuple(rows), n_tests=len(index))


def _count_range(
    values: np.ndarray, plan: _Plan, odd: bool, exact: bool, lo: int, hi: int
) -> list[int]:
    """Per-vector counts over the tuple-start indices [lo, hi).

    Index s stands for n = 2s + 1 when odd, for n = s otherwise. All
    buffers are allocated here, once, and owned by the calling thread.
    """
    width = min(BLOCK, hi - lo)
    masks = np.empty((plan.n_tests, width), dtype=bool)
    acc = np.empty(width, dtype=bool)
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
        if odd:
            for b, buf in projections.items():
                first = 2 * start + 1 + b
                length = n + halos[b]
                np.copyto(buf[:length], values[first : first + 2 * length - 1 : 2])
        for h, tests in plan.groups:
            if odd:
                window = projections[h & 1][h >> 1 : (h >> 1) + n]
            else:
                window = values[start + h : start + h + n]
            if exact:
                for t, k in tests:
                    np.equal(window, k, out=masks[t, :n])
            else:
                # w - 1 < k  <=>  1 <= w <= k, since w = 0 wraps to 255
                np.subtract(window, 1, out=shifted[:n])
                for t, k in tests:
                    np.less(shifted[:n], k, out=masks[t, :n])
        for v, row in enumerate(plan.rows):
            if len(row) == 1:
                totals[v] += int(np.count_nonzero(masks[row[0], :n]))
                continue
            np.logical_and(masks[row[0], :n], masks[row[1], :n], out=acc[:n])
            for t in row[2:]:
                np.logical_and(acc[:n], masks[t, :n], out=acc[:n])
            totals[v] += int(np.count_nonzero(acc[:n]))
    return totals


def count_demands(
    table: OmegaTable,
    pattern: Pattern,
    demand_vectors: Sequence[Requirements],
    x: int,
    parity: str = "odd",
    mode: str = "exact",
    workers: int = 1,
) -> tuple[int, ...]:
    """Count n in [1, x] meeting each demand vector, all in one scan.

    Returns one count per vector, in order. The table must cover
    x + h_max so every tuple element is evaluated; anything less raises
    rather than silently truncating the range. With workers > 1 the range
    is split into contiguous chunks, one thread and buffer set each.
    """
    for requirements in demand_vectors:
        CensusQuery(pattern, requirements, x, parity=parity, mode=mode)
    needed = x + pattern.max_offset
    if needed > table.limit:
        raise TableBoundError(
            f"census needs table limit >= {needed}, have {table.limit}"
        )
    if not demand_vectors:
        return ()
    plan = _plan(pattern, demand_vectors, mode)
    odd = parity == "odd"
    lo, hi = (0, (x + 1) // 2) if odd else (1, x + 1)

    def count(span: tuple[int, int]) -> list[int]:
        return _count_range(table.values, plan, odd, mode == "exact", *span)

    blocks = -(-(hi - lo) // BLOCK)
    chunks = min(workers, blocks)
    if chunks <= 1:
        return tuple(count((lo, hi)))
    per_chunk = -(-blocks // chunks) * BLOCK
    spans = [(a, min(a + per_chunk, hi)) for a in range(lo, hi, per_chunk)]
    with ThreadPoolExecutor(max_workers=len(spans)) as pool:
        partials = list(pool.map(count, spans))
    return tuple(sum(column) for column in zip(*partials))


def k_histogram(table: OmegaTable, x: int, parity: str = "all") -> np.ndarray:
    """Counts of n in [2, x] (odd n only for parity "odd") per Omega value.

    Index k holds the count of n with Omega(n) = k, and the array ends at
    the largest k that occurs ([0] when no n is in range). The table is
    binned one chunk at a time, because bincount widens its input to intp
    (8 bytes an entry); memory stays O(chunk) at any x.
    """
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    if x > table.limit:
        raise TableBoundError(f"x = {x} exceeds table limit {table.limit}")
    if parity == "all":
        window = table.values[2 : x + 1]
    elif parity == "odd":
        window = table.values[3 : x + 1 : 2]
    else:
        raise ValueError(f"parity must be 'all' or 'odd', got {parity!r}")
    counts = np.zeros(256, dtype=np.intp)
    for lo in range(0, len(window), HISTOGRAM_CHUNK):
        counts += np.bincount(window[lo : lo + HISTOGRAM_CHUNK], minlength=256)
    return counts[: np.flatnonzero(counts).max(initial=0) + 1]


def count_tuples(table: OmegaTable, query: CensusQuery, workers: int = 1) -> CensusResult:
    """Count n in [1, x] whose whole tuple satisfies the query demands."""
    started = time.perf_counter()
    (count,) = count_demands(
        table, query.pattern, [query.requirements], query.x,
        parity=query.parity, mode=query.mode, workers=workers,
    )
    return CensusResult(query=query, count=count, elapsed=time.perf_counter() - started)
