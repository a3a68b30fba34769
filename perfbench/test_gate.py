"""Tests of the benchmark's output gate; run with `python3 -m pytest perfbench`."""

import csv
import io
import json
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
from run import QUERY_CLASSES, query_passes, tail  # noqa: E402


def count_argv(pattern, k, x, parity="odd", mode="exact", csv_out=False):
    argv = ["count", "--pattern", pattern, "--k", k, "--x", x, "--cache", "c"]
    if parity != "odd":
        argv += ["--parity", parity]
    if mode != "exact":
        argv += ["--mode", mode]
    return argv + (["--csv"] if csv_out else [])


def count_output(pattern, k, x, parity, mode, count, csv_out=False, **extra):
    doc = {"pattern": pattern, "k": k, "x": x, "parity": parity, "mode": mode,
           "count": count, "elapsed": 0.25, **extra}
    if not csv_out:
        return json.dumps(doc, indent=2)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(doc.keys())
    writer.writerow(doc.values())
    return buf.getvalue()


@pytest.mark.parametrize("csv_out", [False, True])
@pytest.mark.parametrize("key", sorted(gate.COUNTS, key=str))
def test_count_gate_accepts_reference_and_flags_off_by_one(key, csv_out):
    pattern, k, x, parity, mode = key
    argv = count_argv(pattern, k, str(x), parity, mode, csv_out)
    want = gate.COUNTS[key]
    gate.check(argv, count_output(pattern, k, x, parity, mode, want, csv_out))
    for wrong in (want - 1, want + 1):
        with pytest.raises(gate.GateError):
            gate.check(argv, count_output(pattern, k, x, parity, mode, wrong, csv_out))


def test_keys_added_later_are_ignored():
    argv = count_argv("0", "1", "1e8", "all")
    out = count_output("0", "1", 10**8, "all", "exact", gate.PI_1E8,
                       cache={"path": "c/omega.bin", "rebuilt": False},
                       timings={"load": 0.3, "census": 0.03})
    gate.check(argv, out)


def test_published_defective_counts_are_not_references():
    # 166650 and 166374 are the published pair counts with transcription defects.
    for n, published in ((2, 166650), (8, 166374)):
        argv = count_argv(f"0,{n}", "1,2", "1e7")
        with pytest.raises(gate.GateError):
            gate.check(argv, count_output(f"0,{n}", "1,2", 10**7, "odd", "exact", published))


def test_query_without_reference_fails():
    argv = count_argv("0,2", "1,2", "2e7")
    with pytest.raises(gate.GateError):
        gate.check(argv, count_output("0,2", "1,2", 2 * 10**7, "odd", "exact", 1))


def test_failed_exit_output_is_unreadable():
    with pytest.raises(gate.GateError):
        gate.check(count_argv("0", "1", "1e8", "all"), "")


def test_agree7():
    assert gate.agree7(1.181042, 1.1810423)
    assert gate.agree7(1.181043, 1.1810423)
    assert not gate.agree7(1.181044, 1.1810423)
    assert gate.agree7(1133653.0, 1133652.6)
    assert not gate.agree7(float("nan"), 1.0)


def calibrate_output(counts, csv_out=False, **extra):
    theory = gate._family_theory((0, 2), (1, 2), 10**7)
    members = [{"pattern": f"0,{n}", "actual": c, "theoretical": theory, "ratio": c / theory}
               for n, c in counts.items()]
    values = list(counts.values())
    mean = statistics.fmean(values) / theory
    rel = 100.0 * statistics.stdev(values) / statistics.fmean(values)
    if csv_out:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["pattern", "actual", "theoretical", "ratio", "mean", "std_dev",
                         "rel_error_percent"])
        for m in members:
            writer.writerow([m["pattern"], m["actual"], f"{theory:.7g}", f"{m['ratio']:.7g}",
                             f"{mean:.7g}", 0.0, f"{rel:.7g}"])
        return buf.getvalue()
    return json.dumps({"base": "0,2", "members": members, "mean": float(f"{mean:.7g}"),
                       "rel_error_percent": rel, **extra})


@pytest.mark.parametrize("csv_out", [False, True])
def test_calibrate_gate(csv_out):
    argv = ["calibrate", "--base", "0,2", "--scales", "1,2,4,8", "--k", "1,2", "--x", "1e7"]
    argv += ["--csv"] if csv_out else []
    gate.check(argv, calibrate_output(gate.PAIR_COUNTS_1E7, csv_out))
    off = {**gate.PAIR_COUNTS_1E7, 8: gate.PAIR_COUNTS_1E7[8] + 1}
    with pytest.raises(gate.GateError):
        gate.check(argv, calibrate_output(off, csv_out))


def test_calibrate_reference_mean_matches_verified_value():
    out = json.loads(calibrate_output(gate.PAIR_COUNTS_1E7))
    assert gate.agree7(out["mean"], gate.PAIR_FULL_MEAN_1E7)


def test_selberg_gate_ignores_wide_tail_bound():
    p = 1000003
    argv = ["selberg", "--pattern", f"0,{2 * p}"]
    truncated = 2 * gate.C2  # the factor of p lies beyond the prime limit
    out = {"pattern": f"0,{2 * p}", "prime_limit": 999983, "value": truncated,
           "tail_bound": 3.8e-7, "admissible": True}
    gate.check(argv, json.dumps(out))
    out["value"] = truncated + 2e-5
    with pytest.raises(gate.GateError):
        gate.check(argv, json.dumps(out))


def test_selberg_five_tuple_against_euler_product():
    argv = ["selberg", "--pattern", "0,2,6,8,12", "--prime-limit", "1e4"]
    value = gate.singular_series((0, 2, 6, 8, 12), 10**4)
    out = {"value": float(f"{value:.7g}"), "admissible": True}
    gate.check(argv, json.dumps(out))
    out["value"] = value * (1 + 3e-6)
    with pytest.raises(gate.GateError):
        gate.check(argv, json.dumps(out))


def write_tables(tmp_path: Path, table1_delta=0.0, table2_count_delta=0):
    def write(name, header, rows):
        with open(tmp_path / name, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        return str(tmp_path / name)

    t1 = [[n, f"{gate.pair_closed_form(n) + table1_delta:.7g}", f"{gate.pair_closed_form(n):.7g}"]
          for n in gate.TABLE1_SEPARATIONS]

    def derived(counts, base, demands):
        theory = gate._family_theory(base, demands, 10**7)
        mean = statistics.fmean(counts)
        return [f"{mean / theory:.7g}", f"{100 * statistics.stdev(counts) / mean:.7g}"]

    pair = [gate.PAIR_COUNTS_1E7[n] for n in (4, 8, 16)]
    pair[0] += table2_count_delta
    t2 = [[*d, *(derived(pair, (0, 2), d) if d == (1, 2) else ["1.0", "0.1"])]
          for d in gate.TABLE2_DEMANDS]
    triple = list(gate.TRIPLE_COUNTS_1E7.values())
    t3 = [[*d, *(derived(triple, (0, 2, 6), d) if d == (1, 1, 2) else ["1.0", "0.1"])]
          for d in gate.TABLE3_DEMANDS]
    files = [write("table1.csv", ["n", "selberg_constant", "closed_form"], t1),
             write("table2.csv", ["k1", "k2", "correction_factor", "error_percent"], t2),
             write("table3.csv", ["k1", "k2", "k3", "correction_factor", "error_percent"], t3)]
    return json.dumps({"x": 10**7, "out": str(tmp_path), "files": files})


def test_tables_gate(tmp_path):
    argv = ["tables", "--x", "1e7", "--out", str(tmp_path)]
    gate.check(argv, write_tables(tmp_path))
    with pytest.raises(gate.GateError):
        gate.check(argv, write_tables(tmp_path, table1_delta=2e-5))
    # one census count off by one moves the derived Table-2 row
    with pytest.raises(gate.GateError):
        gate.check(argv, write_tables(tmp_path, table2_count_delta=1))


def test_table1_reference_is_not_the_published_value():
    # published 4.693 for N = 2310 is a known defect; the closed form is 4.694484
    assert abs(gate.pair_closed_form(2310) - 4.693) > 1e-3


def test_every_pool_entry_has_a_reference():
    refs = {("count", key) for key in gate.COUNTS}
    for entries in QUERY_CLASSES:
        for argv in entries:
            if argv[0] == "count":
                flag = dict(zip(argv[1::2], argv[2::2]))
                key = (flag["--pattern"], flag["--k"], int(float(flag["--x"])),
                       flag.get("--parity", "odd"), flag.get("--mode", "exact"))
                assert ("count", key) in refs
            else:
                assert argv[0] in gate.CHECKS


def test_query_passes_are_seeded_and_cover_every_class():
    first = [next(query_passes(7)) for _ in range(2)]
    assert first[0] == first[1]
    assert next(query_passes(7)) != next(query_passes(8))
    assert len(first[0]) == len(QUERY_CLASSES)


def test_tail_has_ten_ops_beyond_it():
    values = [float(i) for i in range(40)]
    value, pct = tail(values)
    assert value == 29.0 and sum(v > value for v in values) == 10 and pct == 75.0
    assert tail([1.0, 2.0, 3.0]) == (2.0, 50.0)
