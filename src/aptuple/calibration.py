"""Empirical calibration of the tuple-count correction factors.

Scaling a pattern by factors whose primes already divide every distance
leaves the singular-series value unchanged, so all members of such a
family share one theoretical count. The per-member ratio of censused to
theoretical counts then isolates the correction factor C(K): its family
mean is the estimate, and the spread across members gauges the noise.
A second, single-pattern estimator divides the census for K by the census
for all-ones requirements and the loglog normalization, cancelling the
common structure factor instead of computing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from ._primes import distinct_prime_factors
from .asymptotics import loglog_power_product, predicted_tuple_count
from .census import count_demands
from .patterns import (
    Pattern,
    Requirements,
    distance_gcd_prime_support,
    is_admissible,
    scale_pattern,
)
from .selberg import (
    pair_constant_closed_form,
    primorial_pattern_table,
    selberg_constant,
)
from .sieve import OmegaTable

FAMILY_SERIES_TOLERANCE = 1e-9
MIN_THEORETICAL_COUNT = 50.0  # below this Poisson noise swamps sub-percent ratios


class UnreliableSampleError(ValueError):
    """Counts too small for the ratio statistics to mean anything."""


class InsufficientDataError(ValueError):
    """A ratio estimate hit a zero denominator census."""


@dataclass(frozen=True)
class PatternFamily:
    """A base pattern plus scale factors that preserve its series value."""

    base: Pattern
    scales: tuple[int, ...]

    def __post_init__(self):
        if not self.scales:
            raise ValueError("family needs at least one scale")
        if any(c < 1 for c in self.scales):
            raise ValueError(f"scales must be >= 1, got {self.scales}")
        verdict = is_admissible(self.base)
        if not verdict.admissible:
            raise ValueError(
                f"base pattern {self.base} is inadmissible (witness prime {verdict.witness})"
            )
        if len(self.base) >= 2:
            support = distance_gcd_prime_support(self.base)
            for c in self.scales:
                extra = set(distinct_prime_factors(c)) - support
                if extra:
                    raise ValueError(
                        f"scale {c} introduces primes {sorted(extra)} outside the "
                        f"distance support {sorted(support)} of {self.base}"
                    )

    @property
    def members(self) -> tuple[Pattern, ...]:
        return tuple(scale_pattern(self.base, c) for c in self.scales)


def family_presets() -> dict[str, PatternFamily]:
    """Built-in families: power-of-two dilations of {0,2} and {0,2,6}."""
    return {
        "pair-full": PatternFamily(Pattern((0, 2)), (1, 2, 4, 8)),
        "pair-reduced": PatternFamily(Pattern((0, 2)), (2, 4, 8)),
        "triple-full": PatternFamily(Pattern((0, 2, 6)), (1, 2, 4, 8)),
    }


@dataclass(frozen=True)
class MemberCalibration:
    pattern: Pattern
    actual: int
    theoretical: float
    ratio: float


@dataclass(frozen=True)
class CalibrationReport:
    """Family calibration outcome: per-member ratios and their statistics."""

    family: PatternFamily
    requirements: Requirements
    x: int
    per_member: tuple[MemberCalibration, ...]
    mean: float
    std_dev: float
    rel_error_percent: float


def calibrate_all(
    table: OmegaTable,
    family: PatternFamily,
    requirement_list: Sequence[Requirements],
    x: int,
    prime_limit: int = 10**6,
    parity: str = "odd",
    mode: str = "exact",
    workers: int = 1,
) -> list[CalibrationReport]:
    """Estimate the correction factor for each requirement vector over a family.

    Every member is censused once at x for all the vectors together; the
    shared theoretical count uses the base pattern's series value, which
    the members are verified to share before any counting happens.
    """
    members = family.members
    if len(members) < 2:
        raise ValueError("need at least two family members for a spread estimate")

    series_values = [selberg_constant(p, prime_limit).value for p in members]
    if max(series_values) - min(series_values) > FAMILY_SERIES_TOLERANCE:
        raise ValueError(
            f"family members do not share a series value: spread "
            f"{max(series_values) - min(series_values):.3e}"
        )

    # the base pattern's value, so member ordering cannot perturb the ratios
    series = selberg_constant(family.base, prime_limit).value
    theoreticals = [predicted_tuple_count(series, req, x) for req in requirement_list]
    for theoretical in theoreticals:
        if theoretical < MIN_THEORETICAL_COUNT:
            raise UnreliableSampleError(
                f"theoretical count {theoretical:.1f} below {MIN_THEORETICAL_COUNT:.0f}"
            )

    counts = [
        count_demands(table, member, requirement_list, x,
                      parity=parity, mode=mode, workers=workers)
        for member in members
    ]
    reports = []
    for j, (requirements, theoretical) in enumerate(zip(requirement_list, theoreticals)):
        per_member = []
        for member, member_counts in zip(members, counts):
            actual = member_counts[j]
            if actual == 0:
                raise UnreliableSampleError(f"census of {member} at x={x} returned zero")
            per_member.append(
                MemberCalibration(member, actual, theoretical, actual / theoretical)
            )
        ratios = [mc.ratio for mc in per_member]
        mean = math.fsum(ratios) / len(ratios)
        std_dev = math.sqrt(
            math.fsum((r - mean) ** 2 for r in ratios) / (len(ratios) - 1)
        )
        reports.append(
            CalibrationReport(
                family=family,
                requirements=requirements,
                x=x,
                per_member=tuple(per_member),
                mean=mean,
                std_dev=std_dev,
                rel_error_percent=100.0 * std_dev / mean,
            )
        )
    return reports


def calibrate(
    table: OmegaTable,
    family: PatternFamily,
    requirements: Requirements,
    x: int,
    prime_limit: int = 10**6,
    parity: str = "odd",
    mode: str = "exact",
    workers: int = 1,
) -> CalibrationReport:
    """Estimate the correction factor for one requirement vector over a family."""
    return calibrate_all(
        table, family, [requirements], x,
        prime_limit=prime_limit, parity=parity, mode=mode, workers=workers,
    )[0]


def _ratio_estimates(
    table: OmegaTable,
    pattern: Pattern,
    requirement_list: Sequence[Requirements],
    x: int,
    parity: str,
    mode: str,
    workers: int,
) -> list[float]:
    """The ratio estimator for each vector, from one scan that adds all-ones."""
    verdict = is_admissible(pattern)
    if not verdict.admissible:
        raise ValueError(
            f"pattern {pattern} is inadmissible (witness prime {verdict.witness})"
        )
    ones = Requirements((1,) * len(pattern))
    *numerators, baseline = count_demands(
        table, pattern, [*requirement_list, ones], x,
        parity=parity, mode=mode, workers=workers,
    )
    if baseline == 0:
        raise InsufficientDataError(
            f"no all-ones tuples for {pattern} at x={x}; ratio undefined"
        )
    return [
        numerator / (baseline * loglog_power_product(requirements, x))
        for numerator, requirements in zip(numerators, requirement_list)
    ]


def estimate_correction_via_ratio(
    table: OmegaTable,
    pattern: Pattern,
    requirements: Requirements,
    x: int,
    parity: str = "odd",
    mode: str = "exact",
    workers: int = 1,
) -> float:
    """Single-pattern estimator: census(K) / (census(1,..,1) * loglog product).

    Dividing by the all-ones census cancels the structure factor and the
    leading 1/log^m term, so no series evaluation enters. Noisier than the
    family calibrate, and systematically offset from it at finite x by the
    all-ones ratio itself (which approaches 1 only as x grows).
    """
    return _ratio_estimates(
        table, pattern, [requirements], x, parity=parity, mode=mode, workers=workers
    )[0]


@dataclass(frozen=True)
class SymmetryReport:
    """Correction estimates across all distinct orderings of the demands."""

    pattern: Pattern
    x: int
    estimates: tuple[tuple[Requirements, float], ...]
    max_spread: float


def symmetry_report(
    table: OmegaTable,
    pattern: Pattern,
    requirements: Requirements,
    x: int,
    parity: str = "odd",
    mode: str = "exact",
    workers: int = 1,
) -> SymmetryReport:
    """Estimate the correction for every distinct permutation of the demands.

    The correction is conjectured to depend only on the multiset, so the
    relative spread across orderings measures finite-x noise. All
    orderings come from one scan of the pattern.
    """
    orderings = [Requirements(o) for o in sorted(set(permutations(requirements.demands)))]
    values = _ratio_estimates(
        table, pattern, orderings, x, parity=parity, mode=mode, workers=workers
    )
    if len(values) > 1:
        spread = (max(values) - min(values)) / (math.fsum(values) / len(values))
    else:
        spread = 0.0
    return SymmetryReport(
        pattern=pattern, x=x, estimates=tuple(zip(orderings, values)), max_spread=spread
    )


TABLE1_PRIMORIAL_COUNT = 5
TABLE2_REQUIREMENTS = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
TABLE3_REQUIREMENTS = ((1, 1, 2), (1, 2, 2), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3))
TABLE_FAMILIES = ("pair-reduced", "triple-full")  # presets behind Tables 2 and 3


@dataclass(frozen=True)
class Table1Row:
    n: int
    truncated: float
    closed_form: float


@dataclass(frozen=True)
class CorrectionRow:
    requirements: Requirements
    correction: float
    error_percent: float


@dataclass(frozen=True)
class TablesReport:
    pair_constants: tuple[Table1Row, ...]
    pair_corrections: tuple[CorrectionRow, ...]
    triple_corrections: tuple[CorrectionRow, ...]


def reproduce_tables(
    table: OmegaTable,
    x: int = 10**7,
    prime_limit: int = 10**6,
    workers: int = 1,
) -> TablesReport:
    """Recompute the three summary tables at the given bound.

    Pair constants come via both evaluation routes; pair corrections use
    the reduced family (separations 4, 8, 16), triple corrections the full
    {0,2,6} family including the base.
    """
    rows1 = [
        Table1Row(n, value, pair_constant_closed_form(n))
        for n, value in primorial_pattern_table(TABLE1_PRIMORIAL_COUNT, prime_limit)
    ]
    pair_family, triple_family = (family_presets()[name] for name in TABLE_FAMILIES)

    def correction_rows(family: PatternFamily, req_sets) -> tuple[CorrectionRow, ...]:
        reports = calibrate_all(
            table, family, [Requirements(demands) for demands in req_sets], x,
            prime_limit=prime_limit, workers=workers,
        )
        return tuple(
            CorrectionRow(report.requirements, report.mean, report.rel_error_percent)
            for report in reports
        )

    return TablesReport(
        pair_constants=tuple(rows1),
        pair_corrections=correction_rows(pair_family, TABLE2_REQUIREMENTS),
        triple_corrections=correction_rows(triple_family, TABLE3_REQUIREMENTS),
    )
