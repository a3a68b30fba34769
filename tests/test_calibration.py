import numpy as np
import pytest

from aptuple.calibration import (
    PatternFamily,
    UnreliableSampleError,
    calibrate,
    calibrate_all,
    family_presets,
    plan_calibration,
    reproduce_tables,
    symmetry_report,
)
from aptuple._primes import primes_up_to
from aptuple.census import count_patterns
from aptuple.patterns import Pattern, Requirements, _residue_counts
from aptuple.selberg import selberg_constant
from aptuple.sieve import OmegaTable

X7 = 10**7


def test_family_members():
    family = PatternFamily(Pattern((0, 2)), (1, 2, 4, 8))
    assert [p.offsets for p in family.members] == [
        (0, 2), (0, 4), (0, 8), (0, 16),
    ]


def test_family_rejects_new_primes():
    with pytest.raises(ValueError):
        PatternFamily(Pattern((0, 2)), (3,))
    with pytest.raises(ValueError):
        PatternFamily(Pattern((0, 6, 12)), (5,))
    PatternFamily(Pattern((0, 6, 12)), (2, 3, 6, 12))  # support {2, 3} is fine


@pytest.mark.parametrize("scales, message", [
    ((), "at least one scale"),
    ((0, 2), "scales must be >= 1"),
])
def test_family_rejects_missing_or_nonpositive_scales(scales, message):
    with pytest.raises(ValueError, match=message):
        PatternFamily(Pattern((0, 2)), scales)


def test_family_rejects_repeated_scales():
    # the same member twice would fake a zero spread
    with pytest.raises(ValueError, match="distinct"):
        PatternFamily(Pattern((0, 2)), (2, 2))
    with pytest.raises(ValueError, match="distinct"):
        PatternFamily(Pattern((0, 2, 6)), (1, 2, 4, 1))


def test_family_rejects_single_offset_base():
    # every scale of (0,) is (0,) again, so the spread would read 0
    with pytest.raises(ValueError, match="two offsets"):
        PatternFamily(Pattern((0,)), (1, 2, 4))
    with pytest.raises(ValueError, match="two offsets"):
        PatternFamily(Pattern((0,)), (1,))


def test_estimators_reject_workers_below_one(table_small):
    family = PatternFamily(Pattern((0, 2)), (1, 2))
    with pytest.raises(ValueError, match="workers"):
        calibrate(table_small, family, Requirements((1, 1)), 10**4, workers=0)
    with pytest.raises(ValueError, match="workers"):
        symmetry_report(table_small, Pattern((0, 2)), Requirements((1, 2)), 10**4, workers=-3)


def test_family_rejects_inadmissible_base():
    with pytest.raises(ValueError):
        PatternFamily(Pattern((0, 2, 4, 6, 8)), (1, 2))


def test_family_series_invariance():
    for family in family_presets().values():
        values = [selberg_constant(p).value for p in family.members]
        assert max(values) - min(values) < 1e-9


def test_family_members_share_every_residue_count():
    # equal nu_p at every prime is what lets one series value serve the family
    primes = primes_up_to(10**5)
    for family in family_presets().values():
        base = _residue_counts(family.base, primes)
        for member in family.members:
            assert np.array_equal(_residue_counts(member, primes), base), member


def test_worked_example(table_big):
    report = calibrate(
        table_big, family_presets()["pair-full"], Requirements((1, 2)), X7
    )
    assert abs(report.mean - 1.181042) < 1e-5
    assert abs(report.rel_error_percent - 0.119) < 0.01
    assert len(report.per_member) == 4
    assert all(mc.ratio > 0 for mc in report.per_member)
    assert all(mc.theoretical == report.per_member[0].theoretical for mc in report.per_member)


@pytest.mark.parametrize("parity", ["odd", "all"])
def test_calibrate_all_equals_repeated_calibrate(table_big, parity):
    family = family_presets()["triple-full"]
    vectors = [Requirements(d) for d in ((1, 1, 2), (1, 2, 2), (2, 2, 2), (2, 2, 3))]
    reports = calibrate_all(table_big, family, vectors, X7, parity=parity)
    assert reports == [calibrate(table_big, family, v, X7, parity=parity) for v in vectors]
    assert reports == plan_calibration(family, vectors, X7).reports(table_big, parity=parity)


def test_calibrate_all_rejects_any_unreliable_vector(table_small):
    family = PatternFamily(Pattern((0, 2)), (1, 2))
    with pytest.raises(UnreliableSampleError):
        calibrate_all(table_small, family, [Requirements((1, 1)), Requirements((9, 9))], 10_000)


def test_mean_invariant_under_member_order(table_big):
    req = Requirements((1, 2))
    a = calibrate(table_big, PatternFamily(Pattern((0, 2)), (1, 2, 4, 8)), req, X7)
    b = calibrate(table_big, PatternFamily(Pattern((0, 2)), (8, 4, 2, 1)), req, X7)
    assert a.mean == b.mean  # fsum makes the aggregation order-independent


def test_all_ones_ratio_approaches_one(table_big):
    family = family_presets()["pair-full"]
    req = Requirements((1, 1))
    at_1e5 = calibrate(table_big, family, req, 10**5).mean
    at_1e7 = calibrate(table_big, family, req, X7).mean
    assert abs(at_1e7 - 1.0) < abs(at_1e5 - 1.0)
    # finite-size level of the all-ones ratio, pinned for regression
    assert abs(at_1e7 - 1.15502) < 1e-4
    assert abs(at_1e5 - 1.23806) < 1e-4


def test_permutation_agreement_within_spread(table_big):
    family = family_presets()["pair-full"]
    a = calibrate(table_big, family, Requirements((1, 2)), X7)
    b = calibrate(table_big, family, Requirements((2, 1)), X7)
    assert abs(a.mean - b.mean) < 3 * (a.std_dev + b.std_dev)


@pytest.mark.parametrize("base, demands, x, message", [
    ((0, 2), [(1, 1)], 0, "need x >= 100"),
    ((0, 2), [(1, 1)], -5, "need x >= 100"),
    ((0, 2), [(1, 1), (1, 1, 1)], 1000, "requirements length 3"),
])
def test_calibrate_all_checks_arguments_before_any_work(table_small, monkeypatch,
                                                        base, demands, x, message):
    from aptuple import calibration

    def refuse(*args, **kwargs):
        raise AssertionError("a series or census ran")

    monkeypatch.setattr(calibration, "selberg_constant", refuse)
    monkeypatch.setattr(calibration, "count_patterns", refuse)
    family = PatternFamily(Pattern(base), (1, 2))
    with pytest.raises(ValueError, match=message) as info:
        calibrate_all(table_small, family, [Requirements(d) for d in demands], x)
    assert type(info.value) is ValueError


def test_unreliable_sample(table_small):
    family = family_presets()["pair-full"]
    with pytest.raises(UnreliableSampleError):
        calibrate(table_small, family, Requirements((1, 1)), 200)


def test_single_member_family_rejected(table_small):
    family = PatternFamily(Pattern((0, 2)), (1,))
    with pytest.raises(ValueError):
        calibrate(table_small, family, Requirements((1, 1)), 10_000)


def _barren_table() -> OmegaTable:
    """A table to 4000 in which every n >= 2 has four prime factors."""
    values = np.full(4001, 4, dtype=np.uint8)
    values[0] = values[1] = 0
    values.flags.writeable = False
    return OmegaTable(limit=4000, values=values)


def test_calibrate_all_rejects_a_member_that_counts_zero():
    # the theoretical count at 3000 passes, but no member has a tuple to divide
    family = PatternFamily(Pattern((0, 2)), (1, 2))
    with pytest.raises(UnreliableSampleError, match="returned zero"):
        calibrate_all(_barren_table(), family, [Requirements((1, 1))], 3000)


def test_symmetry_report_insufficient_data():
    # a table with no primes at all has no tuple in any ordering to divide by
    with pytest.raises(UnreliableSampleError):
        symmetry_report(_barren_table(), Pattern((0, 2)), Requirements((1, 2)), 3000)


def test_symmetry_report(table_big):
    report = symmetry_report(table_big, Pattern((0, 4)), Requirements((1, 2)), X7)
    assert report.counts == ((Requirements((1, 2)), 167037), (Requirements((2, 1)), 166831))
    assert report.max_spread < 0.03
    assert abs(report.max_spread - 0.001234) < 1e-4
    # exact-mode orderings count disjoint sets of n: chi2/dof ~ 1 is noise
    assert abs(report.chi2_per_dof - 0.1271) < 0.01
    wide = symmetry_report(table_big, Pattern((0, 4)), Requirements((2, 3)), X7)
    assert abs(wide.chi2_per_dof - 0.0067) < 0.01
    assert max(report.chi2_per_dof, wide.chi2_per_dof) < 3

    flat = symmetry_report(table_big, Pattern((0, 4)), Requirements((2, 2)), X7)
    assert len(flat.counts) == 1
    assert flat.max_spread == 0.0
    assert flat.chi2_per_dof == 0.0


@pytest.mark.parametrize("demands, spread, chi2", [
    ((1, 1, 2), 0.279498, 552.95),
    ((1, 2, 3), 0.461029, 2912.63),
])
def test_symmetry_report_triples_differ_beyond_noise(table_big, demands, spread, chi2):
    # pinned to 0.01 so a chi2 without the (orderings - 1) divisor fails
    report = symmetry_report(table_big, Pattern((0, 2, 6)), Requirements(demands), X7)
    assert abs(report.max_spread - spread) < 1e-6
    assert abs(report.chi2_per_dof - chi2) < 0.01
    assert report.chi2_per_dof > 100


@pytest.mark.parametrize("parity", ["odd", "all"])
def test_reflection_symmetry_of_raw_counts(table_big, parity):
    # {0,2,6} at (k1,k2,k3) mirrors {0,4,6} at (k3,k2,k1): H -> 6 - H
    vectors = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 2, 3)]
    demands = [Requirements(v) for v in vectors] + [Requirements(v[::-1]) for v in vectors]
    forward, mirrored = count_patterns(
        table_big, [Pattern((0, 2, 6)), Pattern((0, 4, 6))], demands, X7, parity=parity
    )
    for i, v in enumerate(vectors):
        a, b = forward[i], mirrored[len(vectors) + i]
        assert abs(a - b) / (a + b) ** 0.5 < 3, (v, a, b)


def test_reproduce_tables_small_scale(table_small):
    (header1, rows1), (header2, rows2), (header3, rows3) = reproduce_tables(table_small, 10_000)
    assert header1 == ["n", "selberg_constant", "closed_form"]
    assert header2 == ["k1", "k2", "correction_factor", "error_percent"]
    assert header3 == ["k1", "k2", "k3", "correction_factor", "error_percent"]
    ns = [n for n, _, _ in rows1]
    assert ns == [2, 6, 30, 210, 2310]
    values = [value for _, value, _ in rows1]
    assert all(b > a for a, b in zip(values, values[1:]))
    for _, value, closed_form in rows1:
        assert abs(value - closed_form) < 1e-5
    assert len(rows2) == 5
    assert len(rows3) == 6
    for header, rows in ((header2, rows2), (header3, rows3)):
        for *demands, correction, error_percent in rows:
            assert len(demands) == len(header) - 2
            assert correction > 0
            assert error_percent >= 0
