"""Acceptance suite: one test per criterion, one printed line per criterion.

Every published figure stays written here as a record. Where a figure is a
misprint, the test checks the value the paper's own method gives, names the
slip next to it, and keeps the stated tolerance; see README "Verification
status".

- Criterion 2: Table 1 prints N=2310 as 4.693, which is (64/9) * 0.66, the
  closed form with C2 rounded to 0.66. The rows N=6, 30 and 210 use the full
  C2, and (64/9) * C2 = 4.694484 is the reference.
- Criterion 7: Table 2 counts all n <= x (hence the reduced family without
  {0,2}, the outlier under all-n counting). Its row (2,2) = 1.8113 is a
  one-place transposition of 1.1813; the computed value is 1.18715 at 1e7
  and 1.18376 at 1e8, and no counting convention comes near 1.8113.
- Criterion 8: fails, unsettled. Under all-n counting at 1e7 the rows
  (1,1,2) and (2,2,2) reproduce (0.01%, 0.9%); (1,2,2) = 1.206 is missed by
  6% for either parity and family, and the rows with a 3 come within 2%
  together only near x = 3e7 with the base pattern dropped. Nothing in the
  repository fixes Table 3's x or family, so its values and tolerance stay
  as published.
- Criterion 10: the prediction is normalized by x/(log x)^2, as in the
  paper; that normalization is off by a factor of order 1 + 2/log x at
  finite x. The all-ones mean is therefore compared with the ratio
  r(x) = Li2(x) / (x/(log x)^2) of the Hardy-Littlewood integral
  Li2(x) = integral_2^x dt/(log t)^2 to the normalization.
"""

import json
import random
import time

import mpmath
import numpy as np
import pytest

import aptuple as ap
from aptuple import cli
from aptuple._primes import primes_up_to, trial_division_omega
from aptuple.calibration import calibrate, family_presets, symmetry_report
from aptuple.census import CensusQuery, count_tuples
from aptuple.patterns import (
    Pattern,
    Requirements,
    distance_gcd_prime_support,
    is_admissible,
    scale_pattern,
)
from aptuple.selberg import pair_constant_closed_form, selberg_constant

X7 = 10**7

PUBLISHED_PAIR_CONSTANTS = {2: 1.320, 6: 2.641, 30: 3.521, 210: 4.225, 2310: 4.693}
# The published 4.693 for N=2310 is (64/9) * 0.66 = 4.69333, the closed form
# 2*C2*prod_{p|N, p>2} (p-1)/(p-2) with C2 rounded to 0.66; the other rows use
# the full twin-prime constant, which gives (64/9) * C2 = 4.694484.
REFERENCE_PAIR_CONSTANTS = {
    **PUBLISHED_PAIR_CONSTANTS,
    2310: 64 / 9 * float(mpmath.twinprime),
}
PUBLISHED_PAIR_COUNTS = {2: 166650, 4: 167037, 8: 166374, 16: 167023}
PUBLISHED_TRIPLE_COUNTS = {1: 20480, 2: 20128, 4: 20413, 8: 20260}
VERIFIED_PAIR_COUNTS = {2: 166649, 4: 167037, 8: 166734, 16: 167023}
VERIFIED_TRIPLE_COUNTS = {1: 20480, 2: 20128, 4: 20413, 8: 20260}
PUBLISHED_TABLE2 = {
    (1, 2): 1.1823,
    (1, 3): 1.0127,
    (2, 2): 1.8113,
    (2, 3): 1.0186,
    (3, 3): 0.8901,
}
# The published (2,2) = 1.8113 transposes two digits of 1.1813. Every counting
# convention (Omega or omega, odd or all n, exact or at-most) misses it by
# far, the nearest being omega over all n at 1.7325. The all-n value barely
# moves with x (1.18715 at 1e7, 1.18376 at 1e8), and the published (2,3) and
# (3,3) rows imply C(2,2) ~ C(2,3)^2 / C(3,3) = 1.166.
REFERENCE_TABLE2 = {**PUBLISHED_TABLE2, (2, 2): 1.1813}
PUBLISHED_TABLE3 = {
    (1, 1, 2): 1.071,
    (1, 2, 2): 1.206,
    (2, 2, 2): 0.962,
    (2, 2, 3): 0.690,
    (2, 3, 3): 0.608,
    (3, 3, 3): 0.525,
}


def _criterion(number: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {status} - {description}")
    assert not failures, f"criterion {number}: " + " | ".join(failures)


def test_criterion_01_pair_constant_via_cli(capsys):
    failures = []
    started = time.perf_counter()
    code = cli.main(["selberg", "--pattern", "0,2", "--prime-limit", "1e6"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    value = json.loads(out)["value"]
    if code != 0:
        failures.append(f"exit code {code}")
    if abs(value - 1.3203236) >= 1e-6:
        failures.append(f"value {value} not within 1e-6 of 1.3203236")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    with capsys.disabled():
        _criterion(1, f"pair constant {value} in {elapsed:.2f}s", failures)


def test_criterion_02_table1_both_routes(capsys):
    failures = []
    for n, reference in REFERENCE_PAIR_CONSTANTS.items():
        truncated = selberg_constant(Pattern((0, n))).value
        closed = pair_constant_closed_form(n)
        if abs(truncated - closed) >= 1e-5:
            failures.append(f"N={n}: routes differ {truncated} vs {closed}")
        for label, value in (("truncated", truncated), ("closed", closed)):
            if abs(value - reference) >= 5e-4:
                failures.append(
                    f"N={n} {label} {value:.5f} not within 5e-4 of {reference:.5f}"
                )
    with capsys.disabled():
        _criterion(2, "primorial pair constants, both routes", failures)


def test_criterion_03_triple_constant(capsys):
    value = selberg_constant(Pattern((0, 2, 6))).value
    failures = []
    if abs(value - 2.858) >= 2e-3:
        failures.append(f"value {value} not within 2e-3 of 2.858")
    with capsys.disabled():
        _criterion(3, f"triple constant {value:.5f}", failures)


def test_criterion_04_admissibility(capsys):
    failures = []
    if not is_admissible(Pattern((0, 2, 6))).admissible:
        failures.append("{0,2,6} rejected")
    verdict = is_admissible(Pattern((0, 2, 4, 6, 8)))
    if verdict.admissible or verdict.witness != 5:
        failures.append(f"{{0,2,4,6,8}} verdict {verdict}")
    rng = random.Random(1234)
    for _ in range(1000):
        m = rng.randrange(1, 9)
        offsets = tuple(sorted({0} | {rng.randrange(1, 60) for _ in range(m - 1)}))
        pattern = Pattern(offsets)
        expected = True
        for p in primes_up_to(max(len(pattern), pattern.max_offset) + 1):
            if len({(-h) % int(p) for h in pattern.offsets}) == int(p):
                expected = False
                break
        if is_admissible(pattern).admissible != expected:
            failures.append(f"mismatch vs brute force for {pattern}")
            break
    with capsys.disabled():
        _criterion(4, "admissibility examples + 1000 random patterns", failures)


def test_criterion_05_census_golden_values(capsys):
    failures = []
    started = time.perf_counter()
    table = ap.build_omega_table(10_000_048)
    pair_counts = {}
    for n in PUBLISHED_PAIR_COUNTS:
        query = CensusQuery(Pattern((0, n)), Requirements((1, 2)), X7)
        pair_counts[n] = count_tuples(table, query).count
    triple_counts = {}
    for c in PUBLISHED_TRIPLE_COUNTS:
        query = CensusQuery(Pattern((0, 2 * c, 6 * c)), Requirements((1, 1, 2)), X7)
        triple_counts[c] = count_tuples(table, query).count
    elapsed = time.perf_counter() - started

    if pair_counts != VERIFIED_PAIR_COUNTS:
        failures.append(f"pair counts drifted: {pair_counts}")
    if triple_counts != VERIFIED_TRIPLE_COUNTS:
        failures.append(f"triple counts drifted: {triple_counts}")
    if elapsed >= 30.0:
        failures.append(f"sieve+census took {elapsed:.1f}s, budget 30s")

    # No single convention cell reproduces all published counts; the
    # resolved convention (odd n <= x, exact factor counts) matches all
    # four triples and the N=4,16 pairs. Deviations, both explained by
    # transcription artifacts in the source: N=2 published 166650 is the
    # all-parity count (includes the even tuple (2,4)); N=8 published
    # 166374 transposes the digits of the true 166734, whose ratio
    # 166734/141203.5 = 1.1808 is what the published mean 1.1817 and
    # error 0.12% are built from.
    deviations = [
        f"N={n}: counted {pair_counts[n]}, published {PUBLISHED_PAIR_COUNTS[n]}"
        for n in pair_counts
        if pair_counts[n] != PUBLISHED_PAIR_COUNTS[n]
    ]
    with capsys.disabled():
        print(f"           census deviation report: {deviations if deviations else 'none'}")
        _criterion(
            5,
            f"golden censuses in {elapsed:.1f}s (6/8 published values matched, "
            "2 documented deviations)",
            failures,
        )


def test_criterion_06_worked_example(capsys, table_big):
    report = calibrate(table_big, family_presets()["pair-full"], Requirements((1, 2)), X7)
    failures = []
    if abs(report.mean - 1.1817) > 0.003:
        failures.append(f"mean {report.mean:.5f} not within 0.003 of 1.1817")
    if abs(report.rel_error_percent - 0.12) > 0.05:
        failures.append(f"error {report.rel_error_percent:.3f}% not near 0.12%")
    with capsys.disabled():
        _criterion(
            6,
            f"pair calibration mean {report.mean:.4f}, error {report.rel_error_percent:.2f}%",
            failures,
        )


def test_criterion_07_table2(capsys, table_big):
    failures = []
    deviations = []
    family = family_presets()["pair-reduced"]
    for demands, reference in REFERENCE_TABLE2.items():
        report = calibrate(table_big, family, Requirements(demands), X7, parity="all")
        rel = abs(report.mean - reference) / reference
        if rel >= 0.02:
            failures.append(
                f"{demands}: computed {report.mean:.4f} vs reference {reference} "
                f"({100 * rel:.1f}% off)"
            )
        # Counting odd n only, as the census goldens of criterion 5 do, leaves
        # the k >= 2 rows far off: (2,3) by 16%, (3,3) by 36%.
        odd = calibrate(table_big, family, Requirements(demands), X7).mean
        deviations.append(f"{demands}: odd n {odd:.4f} vs {reference}")
    with capsys.disabled():
        print(f"           odd-n deviation report: {deviations}")
        _criterion(7, "pair correction table (all n) vs published values", failures)


def test_criterion_08_table3(capsys, table_big):
    failures = []
    family = family_presets()["triple-full"]
    for demands, published in PUBLISHED_TABLE3.items():
        report = calibrate(table_big, family, Requirements(demands), X7)
        rel = abs(report.mean - published) / published
        if rel >= 0.02:
            failures.append(
                f"{demands}: computed {report.mean:.4f} vs published {published} "
                f"({100 * rel:.1f}% off)"
            )
    with capsys.disabled():
        _criterion(8, "triple correction table vs published values", failures)


def test_criterion_09_scaling_invariance(capsys):
    failures = []
    rng = random.Random(42)
    checked = 0
    while checked < 100:
        unit = rng.choice([2, 4, 6, 12, 30])
        size = rng.randrange(2, 5)
        offsets = tuple(sorted({0} | {unit * rng.randrange(1, 9) for _ in range(size)}))
        pattern = Pattern(offsets)
        support = sorted(distance_gcd_prime_support(pattern))
        c = 1
        for p in support:
            c *= p ** rng.randrange(0, 3)
        base = selberg_constant(pattern).value
        scaled = selberg_constant(scale_pattern(pattern, c)).value
        if abs(base - scaled) >= 1e-9:
            failures.append(f"{pattern} * {c}: {base} vs {scaled}")
        checked += 1
    with capsys.disabled():
        _criterion(9, "scaling invariance over 100 randomized pairs", failures)


def test_criterion_10_all_ones_consistency(capsys, table_big):
    report = calibrate(table_big, family_presets()["pair-full"], Requirements((1, 1)), X7)
    # Hardy-Littlewood predicts S * integral_2^x dt/(log t)^2 pairs; the
    # prediction here uses x/(log x)^2, so C(1,1) = 1 means mean = r(x).
    li2 = mpmath.quad(lambda t: 1 / mpmath.log(t) ** 2, [2, X7])
    r = float(li2 / (X7 / mpmath.log(X7) ** 2))
    ratio = report.mean / r
    failures = []
    if abs(ratio - 1.0) > 0.05:
        failures.append(
            f"all-ones mean {report.mean:.5f} / r(x) {r:.5f} = {ratio:.5f} "
            f"not within 5% of 1.0"
        )
    with capsys.disabled():
        _criterion(
            10,
            f"all-ones consistency mean {report.mean:.4f} / r(x) {r:.4f} = {ratio:.4f}",
            failures,
        )


def test_criterion_11_permutation_symmetry(capsys, table_big):
    failures = []
    for demands in ((1, 2), (2, 3)):
        report = symmetry_report(table_big, Pattern((0, 4)), Requirements(demands), X7)
        if report.max_spread >= 0.03:
            failures.append(f"{demands}: spread {report.max_spread:.4f}")
    with capsys.disabled():
        _criterion(11, "correction symmetry under demand permutations", failures)


def test_criterion_12_mode_of_count_distribution(capsys):
    failures = []
    started = time.perf_counter()
    table = ap.build_omega_table(10**8)
    hist = ap.k_histogram(table, 10**8)
    elapsed = time.perf_counter() - started
    mode = int(np.argmax(hist[1:]) + 1)
    if mode != 3:
        failures.append(f"mode {mode} != 3")
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.0f}s, budget 120s")
    with capsys.disabled():
        _criterion(12, f"factor-count mode {mode} at 1e8 in {elapsed:.1f}s", failures)


def test_criterion_13_oracle_equivalence(capsys, table_small):
    failures = []
    for n in range(10_001):
        if table_small.values[n] != trial_division_omega(n):
            failures.append(f"omega({n}) mismatch")
            break
    for offsets, demands in (((0, 2), (1, 2)), ((0, 2, 6), (1, 1, 2)), ((0,), (2,))):
        for parity in ("odd", "all"):
            for mode in ("exact", "atmost"):
                query = CensusQuery(Pattern(offsets), Requirements(demands), 10_000,
                                    parity=parity, mode=mode)
                got = count_tuples(table_small, query).count
                step = 2 if parity == "odd" else 1
                want = 0
                for n in range(1, 10_001, step):
                    ok = True
                    for h, k in zip(offsets, demands):
                        w = trial_division_omega(n + h)
                        if (mode == "exact" and w != k) or (
                            mode == "atmost" and not 1 <= w <= k
                        ):
                            ok = False
                            break
                    want += ok
                if got != want:
                    failures.append(f"census {offsets} {demands} {parity} {mode}: {got} != {want}")
    with capsys.disabled():
        _criterion(13, "sieve and census match trial division at 1e4", failures)
