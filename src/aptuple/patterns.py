"""Tuple patterns, residue counts, and admissibility.

A pattern is a set of offsets {h1, ..., hm} with h1 = 0 defining the tuple
(n + h1, ..., n + hm). The pattern is admissible when for every prime p the
offsets leave at least one residue class mod p uncovered, i.e. the count of
distinct residues nu_p stays below p. Coverage forces nu_p = p <= m, so only
primes p <= m need checking.

_residue_counts is the one place nu_p is computed: is_admissible reads it
for the primes p <= m, and the singular series in selberg for the primes
up to its largest offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from ._primes import distinct_prime_factors, primes_up_to

_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class Pattern:
    """Strictly increasing offsets, normalized so the smallest is 0.

    Construction sorts, deduplicates, and translates the offsets. Odd
    offsets are allowed everywhere: the census counts them, reading n + h
    for odd n and odd h from the table's even entries (its projection 1),
    and admissibility and the singular series treat p = 2 like any other
    prime, so offsets of both parities make a pattern inadmissible.
    """

    offsets: tuple[int, ...]

    def __post_init__(self):
        if not self.offsets:
            raise ValueError("pattern needs at least one offset")
        norm = tuple(sorted(set(int(h) for h in self.offsets)))
        if norm[0] < 0:
            raise ValueError(f"offsets must be non-negative, got {norm[0]}")
        norm = tuple(h - norm[0] for h in norm)
        object.__setattr__(self, "offsets", norm)

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        """Parse the CLI syntax '0,2,6'."""
        try:
            return cls(tuple(int(part) for part in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"bad pattern {text!r}: {exc}") from exc

    def __len__(self) -> int:
        return len(self.offsets)

    def __str__(self) -> str:
        return ",".join(str(h) for h in self.offsets)

    @property
    def max_offset(self) -> int:
        return self.offsets[-1]


@dataclass(frozen=True)
class Requirements:
    """Per-position factor-count demands (k1, ..., km), all >= 1."""

    demands: tuple[int, ...]

    def __post_init__(self):
        demands = tuple(int(k) for k in self.demands)
        if not demands:
            raise ValueError("requirements need at least one entry")
        if any(k < 1 for k in demands):
            raise ValueError(f"all demands must be >= 1, got {demands}")
        object.__setattr__(self, "demands", demands)

    @classmethod
    def parse(cls, text: str) -> "Requirements":
        """Parse the CLI syntax '1,1,2'."""
        try:
            return cls(tuple(int(part) for part in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"bad requirements {text!r}: {exc}") from exc

    def __len__(self) -> int:
        return len(self.demands)

    def __str__(self) -> str:
        return ",".join(str(k) for k in self.demands)


def _check_length(pattern: Pattern, requirements: Requirements) -> None:
    """Raise ValueError unless there is one demand per offset."""
    if len(pattern) != len(requirements):
        raise ValueError(
            f"pattern length {len(pattern)} != requirements length {len(requirements)}"
        )


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Outcome of the coverage check.

    witness is the covering prime (nu_p = p) when the pattern is rejected,
    None otherwise; nu_values records nu_p for every prime p <= m.
    """

    admissible: bool
    witness: int | None
    nu_values: dict[int, int] = field(default_factory=dict)


def _int_array(values: tuple[int, ...]) -> np.ndarray:
    """int64 where the values fit, Python integers (object dtype) where they do not.

    The test compares Python integers: numpy's max of a tuple holding 2^63
    is a float64, and as floats 2^63 and 2^63 - 1 are equal.
    """
    fits = max(values) <= _INT64_MAX
    return np.asarray(values, dtype=np.int64 if fits else object)


def _residue_counts(pattern: Pattern, primes: np.ndarray) -> np.ndarray:
    """nu_p for each prime: the distinct residues of the offsets mod p.

    One (primes x m) residue array per chunk of primes, sorted along each
    row, so nu_p is one plus the number of steps between neighbours.
    """
    offsets = _int_array(pattern.offsets)
    nu = np.empty(len(primes), dtype=np.int64)
    chunk = max(1, (1 << 20) // len(offsets))
    for lo in range(0, len(primes), chunk):
        residues = np.sort(offsets % primes[lo : lo + chunk, None], axis=1)
        nu[lo : lo + chunk] = 1 + np.count_nonzero(np.diff(residues, axis=1), axis=1)
    return nu


def is_admissible(pattern: Pattern) -> AdmissibilityVerdict:
    """Coverage check over all primes p <= m.

    For p > m the residue count is at most m < p, so no larger prime can
    cover; the same verdict governs the prime and the almost-prime tuple
    problems for even patterns scanned over odd n. Several primes may be
    covered at once (e.g. both 3 and 5 for {0,2,4,6,8}); the largest one
    is reported as the witness, and nu_values carries them all.
    """
    primes = primes_up_to(len(pattern))
    nu = _residue_counts(pattern, primes)
    covered = primes[nu == primes]
    witness = int(covered[-1]) if len(covered) else None
    nu_values = dict(zip(primes.tolist(), nu.tolist()))
    return AdmissibilityVerdict(admissible=witness is None, witness=witness, nu_values=nu_values)


def scale_pattern(pattern: Pattern, c: int) -> Pattern:
    """Multiply every offset by c >= 1."""
    if c < 1:
        raise ValueError(f"need c >= 1, got {c}")
    if c * pattern.max_offset > _INT64_MAX:
        raise ValueError(f"scaled offset {c} * {pattern.max_offset} exceeds 64-bit range")
    return Pattern(tuple(c * h for h in pattern.offsets))


def distance_gcd_prime_support(pattern: Pattern) -> set[int]:
    """Primes dividing gcd(h2, ..., hm); the scale-invariance precondition.

    Scaling by any c whose prime factors all lie in this set preserves
    every residue count nu_p and hence the singular-series value.
    """
    if len(pattern) < 2:
        raise ValueError("need at least two offsets to form distances")
    g = 0
    for h in pattern.offsets[1:]:
        g = gcd(g, h)
    return set(distinct_prime_factors(g))

