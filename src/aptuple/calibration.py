"""Empirical calibration of the tuple-count correction factors.

Scaling a pattern by factors whose primes already divide every distance
keeps every residue count nu_p, and so the singular-series value.
PatternFamily admits only such scales, so all members share the
theoretical count of the base, whose series is evaluated once. The
per-member ratio of censused to theoretical counts then isolates the
correction factor C(K): its family mean is the estimate, and the spread
across members gauges the noise. symmetry_report checks the other
invariance, under reorderings of K, on the raw counts of one pattern.

A calibration comes in two halves. plan_calibration makes every check
that needs no table and evaluates the base series, once, into a
CalibrationPlan; the plan's reports method then scans a table once for
all its members and vectors. calibrate_all is the two in a row, and the
CLI plans before it loads a table and scans with that same plan.

reproduce_tables returns the paper's tables as data, each a (header, rows)
pair: Table 1 from the pair constants S({0, N}) at the primorials N up to
2310, then one table for each plan of table_plans, one per
CORRECTION_TABLES entry, so another table is another entry there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from ._primes import distinct_prime_factors
from .asymptotics import _check_x, predicted_tuple_count
from .census import count_patterns
from .patterns import (
    Pattern,
    Requirements,
    _check_length,
    distance_gcd_prime_support,
    is_admissible,
    scale_pattern,
)
from .selberg import pair_constant_closed_form, selberg_constant
from .sieve import OmegaTable

MIN_THEORETICAL_COUNT = 50.0  # below this Poisson noise swamps sub-percent ratios


class UnreliableSampleError(ValueError):
    """Counts too small for the ratio statistics to mean anything."""


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
        if len(set(self.scales)) < len(self.scales):
            # a member censused twice would fake agreement in the spread
            raise ValueError(f"scales must be distinct, got {self.scales}")
        if len(self.base) < 2:
            # every scale of one offset is the same pattern, censused again
            raise ValueError(f"family base needs at least two offsets, got {self.base}")
        verdict = is_admissible(self.base)
        if not verdict.admissible:
            raise ValueError(
                f"base pattern {self.base} is inadmissible (witness prime {verdict.witness})"
            )
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


@dataclass(frozen=True)
class CalibrationPlan:
    """All of a family calibration that needs no table: checked arguments and theoretical counts.

    Made by plan_calibration; reports then scans a table once for it.
    """

    family: PatternFamily
    vectors: tuple[Requirements, ...]
    x: int
    theoreticals: tuple[float, ...]

    def reports(self, table: OmegaTable, parity: str = "odd", mode: str = "exact",
                workers: int = 1) -> list[CalibrationReport]:
        """One scan at x counts every member for all the vectors; then each vector's statistics."""
        members = self.family.members
        counts = count_patterns(
            table, members, self.vectors, self.x, parity=parity, mode=mode, workers=workers
        )
        reports = []
        for j, (requirements, theoretical) in enumerate(zip(self.vectors, self.theoreticals)):
            per_member = []
            for member, member_counts in zip(members, counts):
                actual = member_counts[j]
                if actual == 0:
                    raise UnreliableSampleError(f"census of {member} at x={self.x} returned zero")
                per_member.append(
                    MemberCalibration(member, actual, theoretical, actual / theoretical)
                )
            ratios = [mc.ratio for mc in per_member]
            mean = math.fsum(ratios) / len(ratios)
            std_dev = math.sqrt(math.fsum((r - mean) ** 2 for r in ratios) / (len(ratios) - 1))
            reports.append(CalibrationReport(
                family=self.family, requirements=requirements, x=self.x,
                per_member=tuple(per_member), mean=mean, std_dev=std_dev,
                rel_error_percent=100.0 * std_dev / mean,
            ))
        return reports


def plan_calibration(
    family: PatternFamily, vectors: Sequence[Requirements], x: int
) -> CalibrationPlan:
    """Check a calibration's arguments and evaluate the base pattern's series, once.

    Raises ValueError for arguments calibrate_all cannot take, cheapest
    checks first, and UnreliableSampleError for a count too small to
    calibrate against. The CLI plans before it builds or loads a table.
    """
    _check_x(x)
    for requirements in vectors:
        _check_length(family.base, requirements)
    if len(family.scales) < 2:
        raise ValueError("need at least two family members for a spread estimate")

    # PatternFamily admits only scales that keep every nu_p, so members share this value
    series = selberg_constant(family.base).value
    theoreticals = tuple(predicted_tuple_count(series, req, x) for req in vectors)
    for theoretical in theoreticals:
        if theoretical < MIN_THEORETICAL_COUNT:
            raise UnreliableSampleError(
                f"theoretical count {theoretical:.1f} below {MIN_THEORETICAL_COUNT:.0f}"
            )
    return CalibrationPlan(family, tuple(vectors), x, theoreticals)


def calibrate_all(
    table: OmegaTable,
    family: PatternFamily,
    requirement_list: Sequence[Requirements],
    x: int,
    parity: str = "odd",
    mode: str = "exact",
    workers: int = 1,
) -> list[CalibrationReport]:
    """Estimate the correction factor for each requirement vector over a family.

    One scan at x counts every member for all the vectors together; the
    shared theoretical count uses the base pattern's series value, which
    every member has by the construction of PatternFamily.
    """
    return plan_calibration(family, requirement_list, x).reports(
        table, parity, mode, workers
    )


def calibrate(
    table: OmegaTable,
    family: PatternFamily,
    requirements: Requirements,
    x: int,
    parity: str = "odd",
    mode: str = "exact",
    workers: int = 1,
) -> CalibrationReport:
    """Estimate the correction factor for one requirement vector over a family."""
    return calibrate_all(
        table, family, [requirements], x,
        parity=parity, mode=mode, workers=workers,
    )[0]


@dataclass(frozen=True)
class SymmetryReport:
    """Exact counts of a pattern across all distinct orderings of the demands."""

    pattern: Pattern
    x: int
    counts: tuple[tuple[Requirements, int], ...]
    max_spread: float
    chi2_per_dof: float


def symmetry_report(
    table: OmegaTable,
    pattern: Pattern,
    requirements: Requirements,
    x: int,
    parity: str = "odd",
    workers: int = 1,
) -> SymmetryReport:
    """Count the pattern for every distinct permutation of the demands, in one scan.

    Every ordering shares one theoretical count, so if the correction
    depends only on the multiset the counts differ by counting noise
    alone. max_spread is (max - min) / mean of the counts; chi2_per_dof
    is sum (N - mean)^2 / mean / (orderings - 1), near 1 for Poisson
    noise, since exact-mode orderings count disjoint sets of n. Both read
    0.0 for a single ordering.
    """
    orderings = [Requirements(o) for o in sorted(set(permutations(requirements.demands)))]
    counts = count_patterns(table, [pattern], orderings, x, parity=parity, workers=workers)[0]
    mean = math.fsum(counts) / len(counts)
    if mean == 0:
        raise UnreliableSampleError(f"no tuples of {pattern} in any ordering at x={x}")
    spread = chi2 = 0.0
    if len(counts) > 1:
        spread = (max(counts) - min(counts)) / mean
        chi2 = math.fsum((n - mean) ** 2 for n in counts) / mean / (len(counts) - 1)
    return SymmetryReport(pattern, x, tuple(zip(orderings, counts)), spread, chi2)


TABLE1_SEPARATIONS = (2, 6, 30, 210, 2310)  # the first five primorials
# the preset behind each of Tables 2 and 3, and the vectors it calibrates
CORRECTION_TABLES = (
    ("pair-reduced", tuple(map(Requirements, ((1, 2), (1, 3), (2, 2), (2, 3), (3, 3))))),
    ("triple-full", tuple(map(Requirements, (
        (1, 1, 2), (1, 2, 2), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3),
    )))),
)


def table_plans(x: int) -> list[CalibrationPlan]:
    """A checked plan for each CORRECTION_TABLES entry, in order; reads no table."""
    presets = family_presets()
    return [plan_calibration(presets[name], vectors, x)
            for name, vectors in CORRECTION_TABLES]


def reproduce_tables(
    table: OmegaTable,
    x: int = 10**7,
    workers: int = 1,
) -> list[tuple[list[str], list[list]]]:
    """Recompute the paper's three tables at the given bound, as (header, rows) in order.

    Table 1 gives S({0, N}) for each of TABLE1_SEPARATIONS by both
    evaluation routes: the Euler product and the closed form.
    Each plan of table_plans gives one more table, with a row of
    demands, family mean and relative spread per vector: Table 2 from the
    reduced pair family (separations 4, 8, 16), Table 3 from the full
    {0,2,6} family including the base. The plans are made, and so every
    argument checked, before Table 1 or any scan.
    """
    return _tables(table, table_plans(x), workers)


def _tables(
    table: OmegaTable, plans: Sequence[CalibrationPlan], workers: int
) -> list[tuple[list[str], list[list]]]:
    """reproduce_tables from plans already made: Table 1, then one scan per plan."""
    tables = [(
        ["n", "selberg_constant", "closed_form"],
        [
            [n, selberg_constant(Pattern((0, n))).value, pair_constant_closed_form(n)]
            for n in TABLE1_SEPARATIONS
        ],
    )]
    for plan in plans:
        demands = [f"k{i}" for i in range(1, len(plan.vectors[0]) + 1)]
        tables.append((
            demands + ["correction_factor", "error_percent"],
            [[*r.requirements.demands, r.mean, r.rel_error_percent]
             for r in plan.reports(table, workers=workers)],
        ))
    return tables
