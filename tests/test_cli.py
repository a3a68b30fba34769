import csv
import io
import json

import pytest

from aptuple import cli
from aptuple.sieve import load_table


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


def test_predict(capsys):
    code, out, _ = run_cli(
        capsys, "predict", "--pattern", "0,2", "--k", "1,2", "--x", "1e7"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - 141282.6) < 1.0
    assert doc["k"] == "1,2"
    assert abs(doc["loglog_product"] - 2.779943) < 1e-5


def test_sieve_writes_table(capsys, tmp_path):
    out_path = tmp_path / "t.bin"
    code, out, _ = run_cli(capsys, "sieve", "--limit", "5000", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["limit"] == 5000
    assert load_table(out_path).limit == 5000


def test_count_uses_and_reuses_cache(capsys, tmp_path):
    cache = tmp_path / "cache"
    args = ["count", "--pattern", "0,2", "--k", "1,1", "--x", "1000", "--cache", str(cache)]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    doc1 = json.loads(out1)
    assert doc1["count"] == 35  # twin pairs to 1000
    table_path = cache / "omega.bin"
    assert table_path.exists()
    assert load_table(table_path).limit == 1024  # next power of two above 1002

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
    assert load_table(cache / "omega.bin").limit == 4096


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
    with open(out_dir / "table3.csv") as fh:
        rows3 = list(csv.reader(fh))
    assert rows3[0] == ["k1", "k2", "k3", "correction_factor", "error_percent"]
    assert len(rows3) == 7


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


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["count", "--pattern", "0,2"])  # missing --k/--x
    assert info.value.code == 2
    # non-finite bounds are usage errors, not tracebacks
    for command in ("count", "predict"):
        for bound in ("inf", "1e400", "nan"):
            with pytest.raises(SystemExit) as info:
                cli.main([command, "--pattern", "0,2", "--k", "1,1", "--x", bound])
            assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["selberg", "--pattern", "0,2", "--json"])  # the no-op flag is gone
    assert info.value.code == 2


def test_float_formatting_seven_digits(capsys):
    code, out, _ = run_cli(capsys, "selberg", "--pattern", "0,2,6")
    assert code == 0
    value = json.loads(out)["value"]
    assert value == float(f"{value:.7g}")
