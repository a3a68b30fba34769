import numpy as np
import pytest

from aptuple.calibration import (
    InsufficientDataError,
    PatternFamily,
    UnreliableSampleError,
    calibrate,
    calibrate_all,
    estimate_correction_via_ratio,
    family_presets,
    reproduce_tables,
    symmetry_report,
)
from aptuple.patterns import Pattern, Requirements
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


def test_family_rejects_inadmissible_base():
    with pytest.raises(ValueError):
        PatternFamily(Pattern((0, 2, 4, 6, 8)), (1, 2))


def test_family_series_invariance():
    for family in family_presets().values():
        values = [selberg_constant(p).value for p in family.members]
        assert max(values) - min(values) < 1e-9


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


def test_unreliable_sample(table_small):
    family = family_presets()["pair-full"]
    with pytest.raises(UnreliableSampleError):
        calibrate(table_small, family, Requirements((1, 1)), 200)


def test_single_member_family_rejected(table_small):
    family = PatternFamily(Pattern((0, 2)), (1,))
    with pytest.raises(ValueError):
        calibrate(table_small, family, Requirements((1, 1)), 10_000)


def test_ratio_estimator_identity(table_small):
    # numerator and denominator censuses coincide for all-ones demands
    value = estimate_correction_via_ratio(
        table_small, Pattern((0, 2)), Requirements((1, 1)), 10_000
    )
    assert value == 1.0


def test_ratio_estimator_values(table_big):
    est_pair = estimate_correction_via_ratio(
        table_big, Pattern((0, 2)), Requirements((1, 2)), X7
    )
    assert abs(est_pair - 1.01639) < 1e-4
    est_triple = estimate_correction_via_ratio(
        table_big, Pattern((0, 2, 6)), Requirements((1, 1, 2)), X7
    )
    assert abs(est_triple - 0.86235) < 1e-4


def test_ratio_estimator_rejects_inadmissible(table_small):
    with pytest.raises(ValueError):
        estimate_correction_via_ratio(
            table_small, Pattern((0, 2, 4)), Requirements((1, 1, 1)), 10_000
        )


def test_ratio_estimator_insufficient_data():
    # a table with no primes at all gives a zero all-ones census
    values = np.full(4001, 4, dtype=np.uint8)
    values[0] = values[1] = 0
    values.flags.writeable = False
    barren = OmegaTable(limit=4000, values=values)
    with pytest.raises(InsufficientDataError):
        estimate_correction_via_ratio(
            barren, Pattern((0, 2)), Requirements((1, 2)), 3000
        )


def test_symmetry_report(table_big):
    report = symmetry_report(table_big, Pattern((0, 4)), Requirements((1, 2)), X7)
    assert len(report.estimates) == 2
    assert report.max_spread < 0.03
    assert abs(report.max_spread - 0.001234) < 1e-4

    flat = symmetry_report(table_big, Pattern((0, 4)), Requirements((2, 2)), X7)
    assert len(flat.estimates) == 1
    assert flat.max_spread == 0.0


def test_reproduce_tables_small_scale(table_small):
    report = reproduce_tables(table_small, 10_000)
    ns = [row.n for row in report.pair_constants]
    assert ns == [2, 6, 30, 210, 2310]
    values = [row.truncated for row in report.pair_constants]
    assert all(b > a for a, b in zip(values, values[1:]))
    for row in report.pair_constants:
        assert abs(row.truncated - row.closed_form) < 1e-5
    assert len(report.pair_corrections) == 5
    assert len(report.triple_corrections) == 6
    for row in report.pair_corrections + report.triple_corrections:
        assert row.correction > 0
        assert row.error_percent >= 0
