"""Run the benchmark once per seed and report each end-to-end metric's spread.

The spread is the distance between the first and third quartiles of the
per-run values, as a share of their median; a metric is steady when its
spread stays below a third of its bound in BENCHMARK.json. With --sets 2 the
whole sweep runs twice, and each later set's median must not be worse than
the first set's by more than the bound.

    python3 perfbench/steadiness.py --seeds 1-10 --sets 2 --out perfbench/steadiness.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import environment  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def sweep(spec: dict, workload: str, seed_list: list[int]) -> dict[str, list[float]]:
    """Per-metric values of one run per seed; exits if any run reports incorrect output."""
    values: dict[str, list[float]] = {}
    for seed in seed_list:
        result = subprocess.run(
            [*spec["command"], "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True)
        doc = json.loads(result.stdout.strip().splitlines()[-1])
        if not doc["correct"] or doc["failed"]:
            sys.exit(f"{workload} seed {seed}: incorrect output")
        for name, m in doc["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    record = {"environment": environment(), "run_seconds": spec["run_seconds"],
              "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in workloads:
        rows: dict[str, dict] = {}
        for index in range(args.sets):
            started = time.perf_counter()
            values = sweep(spec, workload, args.seeds)
            for name, vals in values.items():
                bound = metrics[name]["bound"]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                median = statistics.median(vals)
                spread = (q3 - q1) / median
                row = rows.setdefault(name, {"bound": bound, "sets": []})
                first = row["sets"][0]["median"] if row["sets"] else median
                drift = (median - first) / first
                if metrics[name]["better"] == "higher":
                    drift = -drift
                ok = (name == "setup_s" or spread < bound / 3) and drift <= bound
                steady &= ok
                row["sets"].append({"median": median, "spread": spread, "drift": drift,
                                    "steady": ok, "values": vals})
                print(f"{workload:14s} set {index + 1} {name:12s} median {median:10.4f}"
                      f"  spread {spread:.4f}  drift {drift:+.4f}  bound {bound}"
                      f"  {'ok' if ok else 'WIDE'}", flush=True)
            rows.setdefault("elapsed_s", []).append(time.perf_counter() - started)
        record["workloads"][workload] = rows
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
