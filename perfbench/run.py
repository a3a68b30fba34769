"""aptuple benchmark: run the CLI as a user would, check every output, report metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tables-1e7 --seed 1 --seconds 20 --trace 0

With --trace 0 each operation is one `python -m aptuple.cli` process on a
private cache directory, driven by a closed loop with one client, so at
most one child runs at a time. The end-to-end metrics are printed as the
last line of stdout, as one JSON object.

With --trace 1 the same operations run in this process through
``aptuple.cli.main``, once untraced and once with every public function of
the layer modules wrapped in a span recorder (see spans.py), followed by a
fixed set of probes that touch every layer. The per-layer metrics come from
the traced pass; the difference between the two passes is the tracing
overhead.

Workloads (all closed loop, 1 client):
  tables-1e7     repeated warm-cache `aptuple tables --x 1e7`; census-bound,
                 the 2^24-entry table fits in L3.
  sieve-1e8      cold `aptuple sieve --limit 1e8 --workers 1` into an empty
                 cache; all sieve build plus a 100 MB save.
  query-mix-1e8  seeded passes of single queries against a warm 2^27-entry
                 cache, larger than L3; every process pays the import and a
                 table load, so it stresses cli and sieve.load_table.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402

# Set up at least this many times, and until this much set-up time has been
# spent, so that the median of a cheap set-up (sieve-1e8) rests on enough runs.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 5.0
CHECKOUT = Path.cwd()
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".perfbench"

# ---------------------------------------------------------------------------
# Workloads. An op is the argv after `aptuple`; "{cache}" and "{out}" are
# filled in with the run's private directories.


def _count(pattern, k, x, parity="odd", mode="exact"):
    argv = ["count", "--pattern", pattern, "--k", k, "--x", x, "--cache", "{cache}"]
    if parity != "odd":
        argv += ["--parity", parity]
    if mode != "exact":
        argv += ["--mode", mode]
    return argv


TABLES_OP = ["tables", "--x", "1e7", "--out", "{out}", "--cache", "{cache}"]
SIEVE_OP = ["sieve", "--limit", "1e8", "--workers", "1", "--cache", "{cache}"]
SIEVE_WARMUP = ["sieve", "--limit", "1e6", "--workers", "1", "--cache", "{cache}"]
PI_OP = _count("0", "1", "1e8", "all")
# query-mix sets up with two workers, so its setup_s moves with sieve.w2_efficiency.
QUERY_SETUP = PI_OP + ["--workers", "2"]
# Counts that re-read the table a sieve op wrote: pi, semiprimes, twin pairs.
SIEVE_CHECKS = (PI_OP, _count("0", "2", "1e8", "all"), _count("0,2", "1,1", "99999998", "all"))

# One pass of query-mix takes one entry from each class; the entries of a
# class do the same work (same parity, positions and x), so every pass costs
# the same whichever entries the seed picks. Every entry has a reference.
QUERY_CLASSES = (
    [_count("0,2", "1,2", "1e8"), _count("0,4", "2,3", "1e8")],
    [_count("0,2,6", "1,1,2", "1e8")],
    [_count("0,2,6", "2,2,2", "1e8", "all", "atmost")],
    [PI_OP, _count("0", "2", "1e8", "all")],
    [_count("0,2", "1,1", "99999998", "all")],
    [["calibrate", "--base", "0,2", "--scales", "1,2,4,8", "--k", "1,2", "--x", "1e7",
      "--cache", "{cache}"]],
    [["selberg", "--pattern", f"0,{2 * p}"] for p in (1000003, 1000033, 1000037, 1000039)],
    [["selberg", "--pattern", h, "--prime-limit", "1e7"] for h in ("0,2,6,8,12", "0,4,6,10,12")],
    [["predict", "--pattern", "0,2", "--k", k, "--x", "1e8"] for k in ("1,2", "2,1")],
)
CSV_CAPABLE = ("count", "calibrate")


def query_passes(seed: int):
    rng = random.Random(seed)
    while True:
        unit = []
        for entries in QUERY_CLASSES:
            argv = list(rng.choice(entries))
            if argv[0] in CSV_CAPABLE and rng.random() < 0.5:
                argv.append("--csv")
            unit.append(argv)
        rng.shuffle(unit)
        yield unit


def repeat(unit):
    def units(seed: int):
        while True:
            yield [list(argv) for argv in unit]
    return units


@dataclass(frozen=True)
class Workload:
    setup: list[str]
    units: object  # seed -> iterator of lists of argv
    empty_before_op: bool = False  # each op starts from an empty cache
    followups: tuple = ()  # untimed checks run after each op


WORKLOADS = {
    "tables-1e7": Workload(TABLES_OP, repeat([TABLES_OP])),
    "sieve-1e8": Workload(SIEVE_WARMUP, repeat([SIEVE_OP]), empty_before_op=True,
                          followups=SIEVE_CHECKS),
    "query-mix-1e8": Workload(QUERY_SETUP, query_passes),
}

# ---------------------------------------------------------------------------
# Running one op


@dataclass
class Tally:
    """Latencies and failures of one phase."""

    latencies: list[float] = field(default_factory=list)
    unit_times: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, argv, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"aptuple {' '.join(argv)}: {message}")


def fill(argv: list[str], dirs: dict) -> list[str]:
    return [a.format(**dirs) for a in argv]


class SubprocessRunner:
    """One `python -m aptuple.cli` child per op; peak RSS from wait4."""

    def __init__(self, scratch: Path):
        self.env = dict(os.environ, PYTHONPATH=str(SRC), APTUPLE_CACHE=str(scratch / "default"))
        self.out_path = scratch / "stdout"
        self.err_path = scratch / "stderr"

    def __call__(self, argv):
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            started = time.perf_counter()
            child = subprocess.Popen([sys.executable, "-m", "aptuple.cli", *argv],
                                     stdout=out, stderr=err, env=self.env, cwd=CHECKOUT)
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            seconds = time.perf_counter() - started
        # wait4 reaped the child; tell Popen so it does not try again
        child.returncode = os.waitstatus_to_exitcode(status)
        stdout = self.out_path.read_text()
        message = self.err_path.read_text().strip()[-300:]
        return seconds, child.returncode, stdout, message, usage.ru_maxrss / 1024.0


class InProcessRunner:
    """Calls aptuple.cli.main; looked up per call so installed wrappers are used."""

    def __call__(self, argv):
        cli = sys.modules["aptuple.cli"]
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # the CLI lets this escape; count it as a failed op
                code = 1
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        seconds = time.perf_counter() - started
        return seconds, code, out.getvalue(), err.getvalue().strip()[-300:], 0.0


def execute(runner, argv, tally: Tally, followups=(), dirs=None, checks_hook=None):
    """Run one op and its follow-up checks; returns the op's latency."""
    tally.attempted += 1
    seconds, code, out, message, rss = runner(argv)
    tally.peak_rss_mb = max(tally.peak_rss_mb, rss)
    try:
        if code != 0:
            raise gate.GateError(f"exit {code}: {message}")
        gate.check(argv, out)
        with checks_hook() if checks_hook else contextlib.nullcontext():
            for check_argv in followups:
                check_argv = fill(check_argv, dirs)
                _, code, out, message, _ = runner(check_argv)
                if code != 0:
                    raise gate.GateError(f"check {' '.join(check_argv)} exit {code}: {message}")
                gate.check(check_argv, out)
    except gate.GateError as exc:
        tally.fail(argv, str(exc))
    return seconds


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# Phases


def set_up(workload: Workload, runner, scratch: Path, tally: Tally) -> list[float]:
    """Bring an empty cache to the state the timed phase reads; time each attempt."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        dirs = {"cache": str(fresh(scratch / "cache")), "out": str(scratch / "out")}
        seconds = execute(runner, fill(workload.setup, dirs), tally)
        started = time.perf_counter()
        if workload.empty_before_op:
            fresh(scratch / "cache")
        times.append(seconds + time.perf_counter() - started)
    return times


def timed_phase(workload, runner, scratch, tally, units, seconds=None, wrap_op=None,
                checks_hook=None):
    """Closed loop: run whole units until `seconds` have passed (or `units` runs out).

    Returns the argv of every unit run, so the traced pass can replay them.
    """
    dirs = {"cache": str(scratch / "cache"), "out": str(scratch / "out")}
    done = []
    started = time.perf_counter()
    for unit in units:
        if seconds is not None and time.perf_counter() - started >= seconds:
            break
        unit_time = 0.0
        for argv in unit:
            with wrap_op() if wrap_op else contextlib.nullcontext():
                if workload.empty_before_op:
                    fresh(scratch / "cache")
                latency = execute(runner, fill(argv, dirs), tally, workload.followups, dirs,
                                  checks_hook)
            tally.latencies.append(latency)
            unit_time += latency
        tally.unit_times.append(unit_time)
        done.append(unit)
    return done


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten ops beyond it, not below the median.

    Returns (value, percentile). With fewer than 21 ops no rank above the
    median has ten ops beyond it, and the median is returned.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 11, (n - 1) // 2)
    if rank == (n - 1) // 2:
        return statistics.median(ordered), 50.0
    return ordered[rank], 100.0 * (rank + 1) / n


def environment() -> dict:
    l3 = "unknown"
    index3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    if index3.exists():
        l3 = index3.read_text().strip()
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "l3": l3, "machine": platform.machine()}


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def run_untraced(name: str, seed: int, seconds: float, scratch: Path) -> tuple[dict, Tally]:
    workload = WORKLOADS[name]
    runner = SubprocessRunner(scratch)
    setup_tally = Tally()
    setup_times = set_up(workload, runner, scratch, setup_tally)
    tally = Tally()
    timed_phase(workload, runner, scratch, tally, workload.units(seed), seconds)
    tail_value, tail_pct = tail(tally.latencies)
    print("# ops " + json.dumps({
        "workload": name, "ops": len(tally.latencies), "units": len(tally.unit_times),
        "op_tail_percentile": tail_pct, "setup_runs": setup_times,
        "failed_share": tally.failed / max(tally.attempted, 1),
        "attempted": tally.attempted, "latencies": tally.latencies,
        "errors": setup_tally.errors + tally.errors}))
    tally.attempted += setup_tally.attempted
    tally.failed += setup_tally.failed
    tally.errors = setup_tally.errors + tally.errors
    return {
        "wall_s": metric(statistics.median(tally.unit_times), "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(tally.peak_rss_mb, "MB"),
        "op_p50_s": metric(statistics.median(tally.latencies), "s"),
        "op_tail_s": metric(tail_value, "s"),
    }, tally


# ---------------------------------------------------------------------------
# Traced run


# The 1e8 builds go 2 entries past 1e8 so the census probes can read n + 2 at n = 1e8.
X8 = 10**8 + 2
MATRIX = ((10**7, 1), (10**7, 2), (X8, 1), (X8, 2))


def build_matrix(tally: Tally):
    """Untimed-by-trace builds at 1e7 and 1e8 with 1 and 2 workers; keeps the 1e8 table."""
    sieve = sys.modules["aptuple.sieve"]
    times, tables = {}, {}
    for limit, workers in MATRIX:
        tally.attempted += 1
        started = time.perf_counter()
        table = sieve.build_omega_table(limit, workers=workers)
        times[(limit, workers)] = time.perf_counter() - started
        if workers == 1:
            tables[limit] = table
        elif not np.array_equal(table.values, tables[limit].values):
            tally.fail(["build", str(limit), str(workers)], "differs from the 1-worker table")
        del table
    return times, tables[X8]


def probes(table, scratch: Path, runner, tally: Tally, root):
    """Fixed calls into every layer, each checked; returns the trace id of each census probe."""
    census = sys.modules["aptuple.census"]
    patterns = sys.modules["aptuple.patterns"]
    selberg = sys.modules["aptuple.selberg"]
    calibration = sys.modules["aptuple.calibration"]
    sieve = sys.modules["aptuple.sieve"]
    traces = {}

    def probe(label, fn, want, same=lambda got, want: got == want):
        tally.attempted += 1
        with root() as trace_id:
            try:
                got = fn()
            except Exception as exc:  # a probe that raises is a failed op, not a crash
                tally.fail([label], f"{type(exc).__name__}: {exc}")
                return
        traces[label] = trace_id
        if not same(got, want):
            tally.fail([label], f"got {got}, want {want}")

    def census_count(offsets, demands, x, parity):
        query = census.CensusQuery(patterns.Pattern(offsets), patterns.Requirements(demands),
                                   x, parity=parity)
        return census.count_tuples(table, query).count

    probe("census.odd", lambda: census_count((0, 2), (1, 2), 10**8, "odd"),
          gate.COUNTS[("0,2", "1,2", 10**8, "odd", "exact")])
    probe("census.all", lambda: census_count((0, 2), (1, 1), 10**8 - 2, "all"), gate.TWINS_1E8)
    probe("selberg", lambda: selberg.selberg_constant(patterns.Pattern((0, 2)), 10**6).value,
          gate.S_PAIR, gate.agree7)
    probe("calibration",
          lambda: calibration.calibrate(table, calibration.family_presets()["pair-full"],
                                        patterns.Requirements((1, 2)), 10**7).mean,
          gate.PAIR_FULL_MEAN_1E7, gate.agree7)
    cache = fresh(scratch / "probe-cache")
    probe("save", lambda: sieve.save_table(table, cache / "omega.bin"), None)
    with root():
        execute(runner, fill(PI_OP, {"cache": str(cache)}), tally)
    return traces


class NoTracer:
    """Stands in for the tracer in the untraced pass."""

    paused = False

    @contextlib.contextmanager
    def root(self):
        yield 0


def section(name, seed, seconds, scratch, table, runner, tracer, replay=None):
    """Set up once, run the timed phase (or replay it), then the probes. Returns wall, units, probe traces."""
    workload = WORKLOADS[name]
    tally = Tally()

    @contextlib.contextmanager
    def paused():
        tracer.paused = True
        try:
            yield
        finally:
            tracer.paused = False

    started = time.perf_counter()
    with tracer.root():
        fresh(scratch / "cache")
    dirs = {"cache": str(scratch / "cache"), "out": str(scratch / "out")}
    with tracer.root():
        execute(runner, fill(workload.setup, dirs), tally)
        if workload.empty_before_op:
            fresh(scratch / "cache")
    units = timed_phase(workload, runner, scratch, tally,
                        iter(replay) if replay is not None else workload.units(seed),
                        None if replay is not None else seconds,
                        wrap_op=tracer.root, checks_hook=paused)
    traces = probes(table, scratch, runner, tally, tracer.root)
    return time.perf_counter() - started, units, traces, tally


def import_seconds(repeats: int = 3) -> float:
    """What every CLI op pays before any work: a fresh interpreter importing aptuple.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import aptuple.cli"], env=env, cwd=CHECKOUT,
                       check=True)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def memory_probes(scratch: Path, runner, tally: Tally):
    """The probes again, after a 1e8 build, with tracemalloc on: per-layer peaks.

    Peaks are taken here rather than in the timed traced pass because
    tracemalloc slows allocation-heavy pure-Python code (the per-prime loop
    of wide singular series) by more than an order of magnitude.
    """
    import tracemalloc

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracemalloc.start()
    try:
        with tracer.root():
            table = sys.modules["aptuple.sieve"].build_omega_table(X8)
        probes(table, scratch, runner, tally, tracer.root)
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    return tracer


def run_traced(name: str, seed: int, seconds: float, scratch: Path) -> tuple[dict, Tally]:
    from spans import LAYERS, Tracer

    import_s = import_seconds()
    for layer in LAYERS:
        importlib.import_module(f"aptuple.{layer}")

    tally = Tally()
    matrix, table = build_matrix(tally)
    runner = InProcessRunner()
    wall_u, units, _, tally_u = section(name, seed, seconds, scratch, table, runner, NoTracer())

    tracer = Tracer()
    tracer.install()
    try:
        wall_t, _, probe_traces, tally_t = section(name, seed, seconds, scratch, table, runner,
                                                   tracer, replay=units)
    finally:
        tracer.uninstall()
    del table
    memory = memory_probes(scratch, runner, tally)
    for part in (tally_u, tally_t):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.errors += part.errors

    metrics = layer_metrics(tracer, memory, probe_traces)
    metrics.update({
        "cli.import_s": metric(import_s, "s"),
        "sieve.build_w1_s_1e7": metric(matrix[(10**7, 1)], "s"),
        "sieve.build_w2_s_1e7": metric(matrix[(10**7, 2)], "s"),
        "sieve.w2_efficiency_1e7": metric(matrix[(10**7, 1)] / (2 * matrix[(10**7, 2)]), "ratio"),
        "sieve.build_w1_s": metric(matrix[(X8, 1)], "s"),
        "sieve.build_w2_s": metric(matrix[(X8, 2)], "s"),
        "sieve.w2_efficiency": metric(matrix[(X8, 1)] / (2 * matrix[(X8, 2)]), "ratio"),
    })
    self_total = float(tracer.self_times().sum())
    metrics.update({
        "trace.untraced_wall_s": metric(wall_u, "s"),
        "trace.traced_wall_s": metric(wall_t, "s"),
        "trace.overhead_s": metric(wall_t - wall_u, "s"),
        "trace.accounted_share": metric(self_total / wall_t, "ratio"),
        "trace.spans": metric(tracer.count, "count"),
    })
    path = WORK / f"trace-{name}-seed{seed}.jsonl"
    tracer.write(path)
    print("# trace " + json.dumps({"workload": name, "spans_file": str(path.relative_to(CHECKOUT)),
                                   "layer_self_s": {k: v["value"] for k, v in metrics.items()
                                                    if k.endswith(".self_s")},
                                   "errors": tally.errors}))
    return metrics, tally


def layer_metrics(tracer, memory, probe_traces: dict) -> dict:
    """Per-layer metrics: times and counts from the traced pass, peaks from the memory pass."""
    from spans import LAYERS, ROOT

    n = tracer.count
    self_s = tracer.self_times()
    dur = tracer.end[:n] - tracer.start[:n]
    layers = np.array([tracer.layer_of(i) for i in tracer.name[:n]])
    mem_layers = np.array([memory.layer_of(i) for i in memory.name[: memory.count]])
    out = {}
    for name in LAYERS + (ROOT,):
        mask = layers == name
        out[f"{name}.calls"] = metric(mask.sum(), "count")
        out[f"{name}.self_s"] = metric(self_s[mask].sum(), "s")
        if name != ROOT:
            peaks = memory.peak[: memory.count][mem_layers == name]
            out[f"{name}.peak_mb"] = metric(peaks.max(initial=0.0) / 1e6, "MB")

    def total(qualname):
        idx = tracer.spans_of(qualname)
        return dur[idx].sum(), tracer.work[idx].sum(), idx

    def peak_mb(qualname):
        return memory.peak[memory.spans_of(qualname)].max(initial=0.0) / 1e6

    build_s, entries, _ = total("sieve.build_omega_table")
    save_s, save_bytes, _ = total("sieve.save_table")
    load_s, load_bytes, _ = total("sieve.load_table")
    ensure_s, rebuilds, _ = total("cli.ensure_table")
    census_s, scanned, census_idx = total("census.count_tuples")
    residues_s, _, residues_idx = total("patterns.residues_mod_p")
    build_peak, save_peak, load_peak = (peak_mb(f"sieve.{f}")
                                        for f in ("build_omega_table", "save_table", "load_table"))
    selberg_idx = tracer.spans_of("selberg.selberg_constant")

    def ns_per_entry(trace_id):
        idx = census_idx[tracer.trace[census_idx] == trace_id]
        return 1e9 * dur[idx].sum() / max(tracer.work[idx].sum(), 1.0)

    out.update({
        "cli.ensure_table_s": metric(ensure_s, "s"),
        "cli.rebuilds": metric(rebuilds, "count"),
        "sieve.build_s": metric(build_s, "s"),
        "sieve.build_entries": metric(entries, "count"),
        "sieve.build_ns_per_entry": metric(1e9 * build_s / max(entries, 1.0), "ns"),
        "sieve.build_peak_mb": metric(build_peak, "MB"),
        "sieve.save_s": metric(save_s, "s"),
        "sieve.save_bytes": metric(save_bytes, "B"),
        "sieve.save_peak_mb": metric(save_peak, "MB"),
        "sieve.load_s": metric(load_s, "s"),
        "sieve.load_bytes": metric(load_bytes, "B"),
        "sieve.load_peak_mb": metric(load_peak, "MB"),
        "census.entries_scanned": metric(scanned, "count"),
        "census.ns_per_entry": metric(1e9 * census_s / max(scanned, 1.0), "ns"),
        "census.odd_ns_per_entry": metric(ns_per_entry(probe_traces.get("census.odd", -1)), "ns"),
        "census.all_ns_per_entry": metric(ns_per_entry(probe_traces.get("census.all", -1)), "ns"),
        "selberg.max_call_s": metric(dur[selberg_idx].max(initial=0.0), "s"),
        "patterns.residues_calls": metric(len(residues_idx), "count"),
        "patterns.residues_s": metric(residues_s, "s"),
    })
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "aptuple" / "cli.py").is_file():
        print(f"perfbench: no aptuple sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("# env " + json.dumps(environment()))
    scratch = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        fresh(scratch)
        if args.trace:
            metrics, tally = run_traced(args.workload, args.seed, args.seconds, scratch)
        else:
            metrics, tally = run_untraced(args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for error in tally.errors:
        print(f"# FAILED {error}")
    bad = [k for k, v in metrics.items() if not math.isfinite(v["value"])]
    print(json.dumps({"correct": tally.failed == 0 and not bad, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
