import csv
import hashlib
import io
import json
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import aptuple as ap
from aptuple import cli, sieve
from aptuple._primes import primes_up_to
from aptuple.sieve import LIMIT_BOUND, load_table


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_admissible_rejection(capsys):
    code, out, _ = run_cli(capsys, "admissible", "--pattern", "0,2,4,6,8")
    assert code == 0
    doc = json.loads(out)
    assert doc["admissible"] is False
    assert doc["witness"] == 5


def test_admissible_acceptance(capsys):
    code, out, _ = run_cli(capsys, "admissible", "--pattern", "0,2,6")
    assert code == 0
    doc = json.loads(out)
    assert doc["admissible"] is True
    assert doc["witness"] is None
    assert doc["nu"] == {"2": 1, "3": 2}


def test_selberg_value(capsys):
    code, out, _ = run_cli(capsys, "selberg", "--pattern", "0,2", "--prime-limit", "1e6")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - 1.3203236) < 1e-6
    assert doc["admissible"] is True
    assert doc["tail_bound"] > 0
    assert doc["prime_limit"] == 10**6  # echoes the flag, which has no effect


def primes_above_500(m: int) -> str:
    """The m smallest primes above 500: an admissible pattern for m <= 501."""
    return ",".join(map(str, [p for p in primes_up_to(5000) if p > 500][:m]))


@pytest.mark.parametrize("argv", [
    # length 420 puts the series at e^738, past the double range
    ["selberg", "--pattern", primes_above_500(420)],
    ["predict", "--pattern", primes_above_500(420), "--k", ",".join(["1"] * 420), "--x", "1e9"],
])
def test_series_past_the_double_range_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and "length 420" in doc["message"]


def test_predict(capsys):
    code, out, _ = run_cli(
        capsys, "predict", "--pattern", "0,2", "--k", "1,2", "--x", "1e7"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - 141282.6) < 1.0
    assert doc["k"] == "1,2"
    assert abs(doc["loglog_product"] - 2.779943) < 1e-5
    code, out, _ = run_cli(
        capsys, "predict", "--pattern", "0,2", "--k", "1,2", "--x", "1e7", "--correction", "2"
    )
    assert code == 0
    doubled = json.loads(out)
    assert doubled["correction"] == 2.0
    assert doubled["value"] == pytest.approx(2 * doc["value"], rel=1e-6)  # both at 7 digits


def test_sieve_writes_table(capsys, tmp_path):
    out_path = tmp_path / "t.bin"
    code, out, _ = run_cli(capsys, "sieve", "--limit", "5000", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["limit"] == 5000
    assert load_table(out_path).limit == 5000
    assert set(doc["timings"]) == {"build_s", "save_s"}
    assert all(t >= 0 for t in doc["timings"].values())


def test_count_uses_and_reuses_cache(capsys, tmp_path):
    cache = tmp_path / "cache"
    args = ["count", "--pattern", "0,2", "--k", "1,1", "--x", "1000", "--cache", str(cache)]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    doc1 = json.loads(out1)
    assert doc1["count"] == 35  # twin pairs to 1000
    table_path = cache / "omega.bin"
    assert table_path.exists()
    assert load_table(table_path).limit == 1024  # 1002 rounded up to a multiple of 64

    stamp = table_path.stat().st_mtime_ns
    code, out2, _ = run_cli(capsys, *args)
    assert code == 0
    assert table_path.stat().st_mtime_ns == stamp  # warm cache, no rebuild
    doc2 = json.loads(out2)
    doc1.pop("elapsed"), doc2.pop("elapsed")
    cache1, cache2 = doc1.pop("cache"), doc2.pop("cache")
    assert (cache1["rebuilt"], cache2["rebuilt"]) == (True, False)
    assert doc1 == doc2


def test_count_rebuilds_for_larger_x(capsys, tmp_path):
    cache = tmp_path / "cache"
    run_cli(capsys, "count", "--pattern", "0,2", "--k", "1,1", "--x", "1000", "--cache", str(cache))
    code, out, _ = run_cli(
        capsys, "count", "--pattern", "0,2", "--k", "1,1", "--x", "3000", "--cache", str(cache)
    )
    assert code == 0
    assert load_table(cache / "omega.bin").limit == 3072


def test_count_csv(capsys, tmp_path):
    cache = tmp_path / "cache"
    code, out, _ = run_cli(
        capsys, "count", "--pattern", "0,2", "--k", "1,1", "--x", "1000",
        "--cache", str(cache), "--csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:6] == ["pattern", "k", "x", "parity", "mode", "count"]
    assert rows[1][5] == "35"
    assert len(rows) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--pattern", "0,2", "--k", "1,1", "--x", "1000"],
        ["calibrate", "--base", "0,2", "--scales", "1,2", "--k", "1,1", "--x", "1e4"],
        ["tables", "--x", "1e4"],
    ],
)
def test_json_reports_cache(capsys, tmp_path, argv):
    cache = tmp_path / "cache"
    if argv[0] == "tables":
        argv = argv + ["--out", str(tmp_path / "tables")]
    argv = argv + ["--cache", str(cache)]
    blocks = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        blocks.append(json.loads(out)["cache"])
    cold, warm = blocks
    limit = load_table(cache / "omega.bin").limit
    for block, rebuilt in ((cold, True), (warm, False)):
        assert block["path"] == str(cache / "omega.bin")
        assert block["limit"] == limit
        assert block["rebuilt"] is rebuilt
        assert block["load_s"] >= 0


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--pattern", "0,2", "--k", "1,1", "--x", "1024"],
        ["calibrate", "--base", "0,2", "--scales", "1,2", "--k", "1,1", "--x", "4096"],
        ["tables", "--x", "8192"],
    ],
)
def test_cold_cache_covers_the_widest_offset(capsys, tmp_path, argv):
    # x is a power of two, so only the widest offset makes the rebuild round up past it
    if argv[0] == "tables":
        argv = argv + ["--out", str(tmp_path / "tables")]
    code, out, err = run_cli(capsys, *argv, "--cache", str(tmp_path / "cache"))
    assert code == 0, err
    x = int(argv[argv.index("--x") + 1])
    limit = load_table(tmp_path / "cache" / "omega.bin").limit
    expected = {1024: 1152, 4096: 4608, 8192: 9216}[x]
    assert json.loads(out)["cache"]["limit"] == limit == expected


def test_count_csv_has_no_cache_column(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "count", "--pattern", "0,2", "--k", "1,1", "--x", "1000",
        "--cache", str(tmp_path / "cache"), "--csv",
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "pattern,k,x,parity,mode,count,elapsed"


def test_cache_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "envcache"))
    code, out, _ = run_cli(capsys, "count", "--pattern", "0,2", "--k", "1,1", "--x", "500")
    assert code == 0
    assert (tmp_path / "envcache" / "omega.bin").exists()


def test_calibrate_json(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "calibrate", "--base", "0,2", "--scales", "1,2", "--k", "1,1",
        "--x", "1e4", "--cache", str(tmp_path / "cache"),
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["members"]) == 2
    assert doc["members"][0]["actual"] == 205  # twin pairs to 1e4
    assert doc["mean"] > 1.0
    assert doc["rel_error_percent"] >= 0


def test_calibrate_csv(capsys, tmp_path):
    argv = ["calibrate", "--base", "0,2", "--scales", "1,2,4", "--k", "1,1", "--x", "1e4",
            "--cache", str(tmp_path / "cache")]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    code, out, _ = run_cli(capsys, *argv, "--csv")
    assert code == 0
    header, *rows = list(csv.reader(io.StringIO(out)))
    summary = ["mean", "std_dev", "rel_error_percent"]
    assert header == ["pattern", "actual", "theoretical", "ratio", *summary]
    assert [row[0] for row in rows] == [m["pattern"] for m in doc["members"]]
    assert [int(row[1]) for row in rows] == [m["actual"] for m in doc["members"]]
    for row in rows:
        assert [float(v) for v in row[4:]] == [doc[key] for key in summary]


def test_tables_command(capsys, tmp_path):
    out_dir = tmp_path / "tables"
    code, out, _ = run_cli(
        capsys, "tables", "--x", "1e4", "--out", str(out_dir),
        "--cache", str(tmp_path / "cache"),
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["files"]) == 3
    with open(out_dir / "table1.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "selberg_constant", "closed_form"]
    assert [r[0] for r in rows[1:]] == ["2", "6", "30", "210", "2310"]
    assert abs(float(rows[1][2]) - 1.3203236) < 1e-6
    with open(out_dir / "table2.csv") as fh:
        rows2 = list(csv.reader(fh))
    assert rows2 == [
        ["k1", "k2", "correction_factor", "error_percent"],
        ["1", "2", "1.233682", "1.994895"],
        ["1", "3", "0.9557374", "2.046969"],
        ["2", "2", "0.9852784", "3.082323"],
        ["2", "3", "0.5858019", "3.130361"],
        ["3", "3", "0.2594298", "3.059329"],
    ]
    with open(out_dir / "table3.csv") as fh:
        rows3 = list(csv.reader(fh))
    assert rows3[0] == ["k1", "k2", "k3", "correction_factor", "error_percent"]
    assert len(rows3) == 7


# sha256 of table1.csv..table3.csv at x = 1e7, as the CLI writes them
TABLE_DIGESTS = [
    "06ad0e6946296cc8a74b280a8d0fa08b061ffe96733751b9e490dc3b21959434",
    "58d8385d768b33e8524952fab85a6985e690b9d1c23f2521f102a3d9597e32ea",
    "9ce86f89228c23a905cd5ae7612abdb610f893843bc4ed84ad3164d8c4eb6bc4",
]


def test_tables_csv_bytes_at_1e7(table_big):
    digests = []
    for header, rows in ap.reproduce_tables(table_big, 10**7):
        fh = io.StringIO()
        cli._write_csv(fh, header, rows)
        digests.append(hashlib.sha256(fh.getvalue().encode()).hexdigest())
    assert digests == TABLE_DIGESTS


def test_runtime_error_exit_code(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "count", "--pattern", "0,2", "--k", "1,2,3", "--x", "1000",
        "--cache", str(tmp_path / "cache"),
    )
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "ValueError"
    assert "length" in doc["message"]


def test_malformed_pattern_exit_code(capsys):
    code, _, err = run_cli(capsys, "admissible", "--pattern", "zero,two")
    assert code == 1
    assert json.loads(err)["error"] == "ValueError"


def test_usage_error_exit_code(capsys, tmp_path):
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["count", "--pattern", "0,2"])  # missing --k/--x
    assert info.value.code == 2
    # non-finite bounds are usage errors, not tracebacks
    for command in ("count", "predict"):
        for bound in ("inf", "1e400", "nan", "1.5"):
            with pytest.raises(SystemExit) as info:
                cli.main([command, "--pattern", "0,2", "--k", "1,1", "--x", bound])
            assert info.value.code == 2
    # a non-finite correction would print NaN, which is not JSON
    for correction in ("nan", "inf", "-inf"):
        with pytest.raises(SystemExit) as info:
            cli.main(["predict", "--pattern", "0,2", "--k", "1,1", "--x", "1e6",
                      "--correction", correction])
        assert info.value.code == 2
    for size in ("1", "0", "-4", "inf"):
        with pytest.raises(SystemExit) as info:
            cli.main(["sieve", "--limit", "100", "--segment-size", size, "--out", str(tmp_path / "t.bin")])
        assert info.value.code == 2
    assert not (tmp_path / "t.bin").exists()
    with pytest.raises(SystemExit) as info:
        cli.main(["selberg", "--pattern", "0,2", "--json"])  # the no-op flag is gone
    assert info.value.code == 2
    # a thread count below 1 is refused even when a warm cache needs no build
    count = ["count", "--pattern", "0,2", "--k", "1,1", "--x", "1000", "--cache", str(tmp_path)]
    assert run_cli(capsys, *count)[0] == 0
    for workers in ("0", "-1"):
        with pytest.raises(SystemExit) as info:
            cli.main([*count, "--workers", workers])
        assert info.value.code == 2


def test_float_formatting_seven_digits(capsys):
    code, out, _ = run_cli(capsys, "selberg", "--pattern", "0,2,6")
    assert code == 0
    value = json.loads(out)["value"]
    assert value == float(f"{value:.7g}")


def _record_builds(monkeypatch) -> list:
    """Replace the table writer by one that records the limit and writes a small table."""
    built = []

    def record(limit, path, **kwargs):
        built.append(limit)
        ap.save_table(ap.build_omega_table(1000), path)
        return 0.0

    monkeypatch.setattr(sieve, "write_omega_table", record)
    return built


@pytest.mark.parametrize("min_limit, limit", [
    (1000, 1024), (2**33, 2**33), (2**33 + 1, 9_663_676_416), (10**10, 10_737_418_240),
    (LIMIT_BOUND - 1, LIMIT_BOUND - 1),
])
def test_rebuild_rounds_up_within_the_sieve_bound(tmp_path, monkeypatch, min_limit, limit):
    built = _record_builds(monkeypatch)
    _, path, rebuilt = cli.ensure_table(min_limit, tmp_path)
    assert built == [limit] and rebuilt and path == tmp_path / "omega.bin"


@pytest.mark.parametrize("min_limit, cached_limit, limit", [
    (1, 0, 2), (3, 0, 3),
    (1002, 0, 1024), (1026, 0, 1152),
    (3002, 1024, 3072), (1100, 1024, 2048),
    (10_000_048, 0, 10_485_760), (100_000_006, 0, 100_663_296),
    (10**10, 0, 10_737_418_240), (2**33, 0, 2**33),
    (2**33 + 1, 2**33, LIMIT_BOUND - 1), (LIMIT_BOUND - 1, 0, LIMIT_BOUND - 1),
])
def test_cache_limit(min_limit, cached_limit, limit):
    assert cli._cache_limit(min_limit, cached_limit) == limit


@given(st.integers(min_value=1, max_value=LIMIT_BOUND - 1))
def test_cache_limit_is_less_than_an_eighth_long(need):
    limit = cli._cache_limit(need)
    assert need <= limit < LIMIT_BOUND
    if need >= 8:
        assert 8 * (limit - need) < need


def test_count_to_1_on_a_cold_cache_builds_a_table_of_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "count", "--pattern", "0", "--k", "1", "--x", "1",
                             "--cache", str(tmp_path))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["count"] == 0 and doc["cache"]["limit"] == 2


@pytest.mark.parametrize("raw, error", [
    (b"garbage", "CacheFormatError"),
    (sieve._header(100) + bytes(11), "CacheCorruptionError"),
])
def test_unreadable_cache_exits_1_and_is_left_as_it_is(capsys, tmp_path, monkeypatch, raw, error):
    built = _record_builds(monkeypatch)
    path = tmp_path / "omega.bin"
    path.write_bytes(raw)
    code, out, err = run_cli(capsys, "count", "--pattern", "0,2", "--k", "1,1", "--x", "1000",
                             "--cache", str(tmp_path))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == error
    assert built == [] and list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == raw


def test_count_past_2_33_builds_below_the_bound(capsys, tmp_path, monkeypatch):
    built = _record_builds(monkeypatch)
    code, _, err = run_cli(capsys, "count", "--pattern", "0,2", "--k", "1,1", "--x", "1e10",
                           "--cache", str(tmp_path))
    assert built == [10_737_418_240]
    # the recorded build wrote a table of 1000, too short for the count
    assert code == 1 and json.loads(err)["error"] == "TableBoundError"


def test_rebuild_past_the_bound_fails_before_writing(tmp_path):
    with pytest.raises(ValueError, match="2\\*\\*34"):
        cli.ensure_table(LIMIT_BOUND, tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["count", "--pattern", "0,2", "--k", "1,1"],
    ["calibrate", "--base", "0,2", "--scales", "1,2", "--k", "1,1"],
    ["tables", "--out", "out"],
])
def test_past_the_bound_leaves_no_directory(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--x", "1e11", "--cache", "cache")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and "2**34" in doc["message"]
    assert list(tmp_path.iterdir()) == []


def test_sieve_out_makes_its_directory(capsys, tmp_path):
    path = tmp_path / "new" / "dir" / "t.bin"
    code, _, _ = run_cli(capsys, "sieve", "--limit", "1000", "--out", str(path))
    assert code == 0 and load_table(path).limit == 1000


def test_sieve_on_a_full_disk_exits_1_and_leaves_nothing(capsys, tmp_path, monkeypatch):
    full = SimpleNamespace(f_bavail=4096, f_frsize=4096)
    monkeypatch.setattr(sieve.os, "statvfs", lambda path: full)
    out = tmp_path / "out"
    out.mkdir()
    code, stdout, err = run_cli(capsys, "sieve", "--limit", "1e8", "--out", str(out / "t.bin"))
    assert code == 1 and stdout == ""
    doc = json.loads(err)
    assert doc["error"] == "OSError"
    assert "100000014" in doc["message"] and str(4096 * 4096) in doc["message"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sieve_streams_the_saved_bytes(capsys, tmp_path, workers):
    path = tmp_path / "t.bin"
    code, out, _ = run_cli(capsys, "sieve", "--limit", "123457", "--segment-size", "1000",
                           "--workers", workers, "--out", str(path))
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"limit", "path", "bytes", "elapsed", "timings"}
    assert doc["bytes"] == path.stat().st_size == 123457 + 14
    ap.save_table(ap.build_omega_table(123457), tmp_path / "saved.bin")
    assert path.read_bytes() == (tmp_path / "saved.bin").read_bytes()


@pytest.mark.parametrize("argv", [
    ["selberg", "--pattern", "0,2"],
    ["predict", "--pattern", "0,2", "--k", "1,1", "--x", "1e6"],
    ["calibrate", "--base", "0,2", "--scales", "1,2", "--k", "1,1", "--x", "1e4", "--cache", "cache"],
    ["tables", "--x", "1e4", "--cache", "cache", "--out", "out"],
])
def test_huge_prime_limit_is_accepted_and_sieves_no_prime_past_1000(capsys, tmp_path,
                                                                       monkeypatch, argv):
    from aptuple import selberg

    calls = []

    def record(n):
        calls.append(n)
        return primes_up_to(n)

    monkeypatch.setattr(selberg, "primes_up_to", record)
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv, "--prime-limit", "1e10")
    assert code == 0, err
    assert calls and max(calls) <= 1000, calls


def test_calibrate_rejects_single_offset_base(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "calibrate", "--base", "0", "--scales", "1,2,4", "--k", "2",
        "--x", "1e5", "--cache", str(tmp_path / "cache"),
    )
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and "two offsets" in doc["message"]
    assert not (tmp_path / "cache").exists()


def test_calibrate_rejects_repeated_scales(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "calibrate", "--base", "0,2", "--scales", "2,2", "--k", "1,1",
        "--x", "1e4", "--cache", str(tmp_path / "cache"),
    )
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and "distinct" in doc["message"]


@pytest.mark.parametrize("argv, message", [
    (["calibrate", "--base", "0,2", "--scales", "1,2", "--k", "1,1", "--x", "0"], "need x >= 100"),
    (["calibrate", "--base", "0,2", "--scales", "1,2", "--k", "1,1", "--x", "-5"], "need x >= 100"),
    (["tables", "--x", "0", "--out", "out"], "need x >= 100"),
    (["tables", "--x", "-5", "--out", "out"], "need x >= 100"),
    (["calibrate", "--base", primes_above_500(501), "--scales", "1,2",
      "--k", ",".join(["1"] * 501), "--x", "1e4"], "pattern length 501 exceeds the bound 500"),
    (["calibrate", "--base", "0,2,4", "--scales", "1,2", "--k", "1,1,1", "--x", "1e4"],
     "base pattern 0,2,4 is inadmissible"),
    (["calibrate", "--base", "0,2", "--scales", "1,3", "--k", "1,1", "--x", "1e4"],
     "scale 3 introduces primes [3]"),
    (["calibrate", "--base", "0,2", "--scales", "0,2", "--k", "1,1", "--x", "1e4"],
     "scales must be >= 1"),
    # once misreported as a theoretical count below 50, after the cache was built
    (["calibrate", "--base", "0,2", "--scales", "1,2", "--k", "1,1,1", "--x", "1000"],
     "requirements length 3"),
    # once the bare message of int(), naming neither the flag nor its text
    (["calibrate", "--base", "0,2", "--scales", "1,x", "--k", "1,1", "--x", "1e4"],
     "bad --scales '1,x': invalid literal for int() with base 10: 'x'"),
    # each of these once built the cache before it failed
    (["calibrate", "--base", "0,2", "--scales", "1,2", "--k", "1,21", "--x", "1000"],
     "factor-count demand 21 beyond supported range 20"),
    (["calibrate", "--base", "0,2", "--scales", "2", "--k", "1,1", "--x", "1e4"],
     "need at least two family members"),
    (["calibrate", "--base", "0,2", "--scales", "1,2", "--k", "5,5", "--x", "1000"],
     "theoretical count 9.3 below 50"),
    (["tables", "--x", "1000", "--out", "out"], "theoretical count 16.8 below 50"),
    (["calibrate", "--base", "0,2", "--scales", "1,2", "--k", "1,x", "--x", "1e4"],
     "bad requirements '1,x'"),
])
def test_calibrate_and_tables_reject_arguments_before_the_cache(capsys, tmp_path, monkeypatch,
                                                                argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--cache", "cache")
    assert code == 1 and out == ""
    doc = json.loads(err)
    error = "UnreliableSampleError" if message.startswith("theoretical count") else "ValueError"
    assert doc["error"] == error and message in doc["message"]
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("argv, most", [
    # five pair constants for Table 1, then one base series per family
    (["tables", "--x", "1e4", "--out", "out"], 7),
    (["calibrate", "--base", "0,2", "--scales", "1,2,4,8", "--k", "1,2", "--x", "1e4"], 1),
])
def test_each_family_series_is_evaluated_once_per_op(capsys, tmp_path, monkeypatch, argv, most):
    # the plan made before the cache is the plan scanned, so no series is summed twice
    from aptuple import calibration

    series = []
    evaluate = calibration.selberg_constant

    def counted(*args, **kwargs):
        series.append(args[0])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(calibration, "selberg_constant", counted)
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv, "--cache", "cache")
    assert code == 0, err
    assert 1 <= len(series) <= most, series
