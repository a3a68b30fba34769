"""Start-up contract, each case in a fresh interpreter.

`import aptuple` loads nothing and changes nothing; a CLI command loads only
the layers it runs, and the light ones load no numpy; CLI processes skip the
OpenBLAS thread pool unless the user asked for one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aptuple
from aptuple._primes import primes_up_to

SRC = Path(aptuple.__file__).resolve().parents[1]

# Every name the package exported when its __init__ imported each module,
# and the names added since, less the ones deleted since.
EXPORTED = (
    "predicted_tuple_count",
    "CalibrationReport", "PatternFamily", "calibrate", "calibrate_all",
    "family_presets", "reproduce_tables", "symmetry_report",
    "CensusQuery", "CensusResult", "count_patterns", "count_tuples",
    "k_histogram",
    "AdmissibilityVerdict", "Pattern", "Requirements", "distance_gcd_prime_support",
    "is_admissible", "scale_pattern",
    "TWIN_PRIME_C2", "SelbergResult", "pair_constant_closed_form",
    "selberg_constant",
    "OmegaTable", "build_omega_table", "load_table", "save_table", "write_omega_table",
)


def fresh(code: str, **env) -> dict:
    """Run code in a new interpreter without OPENBLAS_NUM_THREADS; its stdout is JSON."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(PYTHONPATH=str(SRC), **env)
    done = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_nothing():
    got = fresh(
        "import json, os, sys\n"
        "import aptuple\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules,\n"
        "    'blas': os.environ.get('OPENBLAS_NUM_THREADS'),\n"
        "    'modules': sorted(m for m in sys.modules if m.startswith('aptuple.'))}))\n"
    )
    assert got == {"numpy": False, "blas": None, "modules": []}


def test_every_exported_name_resolves():
    got = fresh(
        "import json\n"
        "import aptuple\n"
        f"exec('from aptuple import {', '.join(EXPORTED)}')\n"
        f"same = [n for n in {list(EXPORTED)!r} if getattr(aptuple, n) is globals()[n]]\n"
        "try:\n"
        "    aptuple.no_such_name\n"
        "    unknown = None\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "print(json.dumps({'same': sorted(same), 'all': sorted(aptuple.__all__),\n"
        "    'dir': sorted(set(same) & set(dir(aptuple))), 'unknown': unknown,\n"
        "    'version': aptuple.__version__}))\n"
    )
    assert got["same"] == got["all"] == got["dir"] == sorted(EXPORTED)
    assert got["unknown"] == "module 'aptuple' has no attribute 'no_such_name'"
    assert got["version"] == "0.1.0"


@pytest.mark.parametrize("argv", [
    ["selberg", "--pattern", "0,2,6,8,12", "--prime-limit", "1e5"],
    ["predict", "--pattern", "0,2", "--k", "1,2", "--x", "1e7"],
    ["admissible", "--pattern", "0,2,4,6,8"],
])
def test_command_loads_only_its_layers(argv):
    got = fresh(
        "import contextlib, io, json, sys\n"
        "from aptuple import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
    )
    assert got["code"] == 0
    assert "aptuple.patterns" in got["modules"]
    assert ("aptuple.selberg" in got["modules"]) == (argv[0] != "admissible")
    assert "aptuple.census" not in got["modules"]
    assert "aptuple.calibration" not in got["modules"]
    assert "aptuple.sieve" not in got["modules"]
    assert "numpy" not in got["modules"]


@pytest.mark.parametrize("preset, want", [(None, "1"), ("4", "4")])
def test_cli_sets_blas_threads_only_by_default(preset, want, tmp_path):
    # the setting precedes numpy, which only a command that needs it imports
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    argv = ["count", "--pattern", "0,2", "--k", "1,1", "--x", "1000", "--cache", str(tmp_path)]
    got = fresh(
        "import contextlib, io, json, os, sys\n"
        "def state():\n"
        "    return {'blas': os.environ.get('OPENBLAS_NUM_THREADS'),\n"
        "            'numpy': 'numpy' in sys.modules}\n"
        "from aptuple import cli\n"
        "imported = state()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(json.dumps({'imported': imported, 'code': code, 'counted': state()}))\n",
        **env,
    )
    assert got == {"imported": {"blas": want, "numpy": False}, "code": 0,
                   "counted": {"blas": want, "numpy": True}}


@pytest.mark.parametrize("argv, error, message", [
    # the 420 primes above 500 put the series at e^738, past the double range
    (["selberg", "--pattern", ",".join(map(str, [p for p in primes_up_to(5000) if p > 500][:420]))],
     "ValueError", "length 420"),
    (["count", "--pattern", "0,2", "--k", "1,1", "--x", "1000"], "CacheFormatError", "omega.bin"),
])
def test_errors_exit_1_with_or_without_the_sieve_loaded(tmp_path, argv, error, message):
    (tmp_path / "omega.bin").write_bytes(b"garbage")
    got = fresh(
        "import contextlib, io, json, sys\n"
        "from aptuple import cli\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        f"    code = cli.main({argv!r})\n"
        "print(json.dumps({'code': code, 'out': out.getvalue(), 'err': json.loads(err.getvalue()),\n"
        "    'sieve': 'aptuple.sieve' in sys.modules}))\n",
        APTUPLE_CACHE=str(tmp_path),
    )
    assert got["code"] == 1 and got["out"] == ""
    assert got["err"]["error"] == error and message in got["err"]["message"]
    assert got["sieve"] == (argv[0] == "count")


def test_single_worker_sieve_starts_no_pool(tmp_path):
    # the sieve runs on one thread whatever --workers says
    for workers in ("1", "2"):
        argv = ["sieve", "--limit", "1e5", "--workers", workers, "--out", str(tmp_path / "t.bin")]
        got = fresh(
            "import contextlib, io, json, sys\n"
            "from aptuple import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main({argv!r})\n"
            "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
        )
        assert got["code"] == 0, workers
        assert "concurrent.futures" not in got["modules"], workers
