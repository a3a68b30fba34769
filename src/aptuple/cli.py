"""Command-line front end: one subcommand per operation, JSON or CSV out.

Exit codes: 0 success, 1 runtime failure (bounds, cache format, memory)
with an error JSON on stderr, 2 usage errors from the argument parser.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

# aptuple never calls BLAS, so a CLI process has no use for the OpenBLAS
# thread pool that numpy starts on import. This must run before the first
# import of numpy, which a command's own imports make; setdefault leaves a
# value the user set in force.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Each command imports the layers it runs, so `admissible`, `selberg` and
# `predict` load neither numpy nor the sieve, census or calibration code.
if TYPE_CHECKING:
    from .sieve import OmegaTable

CACHE_ENV = "APTUPLE_CACHE"
CACHE_FILENAME = "omega.bin"
FLOAT_DIGITS = 7


def _round_floats(obj):
    """Clamp every float to 7 significant digits for stable, readable output."""
    if isinstance(obj, float):
        return float(f"{obj:.{FLOAT_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit_json(doc: dict) -> None:
    json.dump(_round_floats(doc), sys.stdout, indent=2)
    sys.stdout.write("\n")


def _write_csv(fh, header: list[str], rows: list[list]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(_round_floats(list(row)))


def _parse_bound(text: str) -> int:
    """Accept plain integers or scientific notation like 1e7."""
    try:
        return int(text)
    except ValueError:
        pass
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite bound")
    rounded = int(round(value))
    if abs(value - rounded) > 1e-6 * max(1.0, abs(value)):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integral bound")
    return rounded


def _parse_workers(text: str) -> int:
    """A thread count, at least 1."""
    workers = int(text)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"need workers >= 1, got {workers}")
    return workers


def _parse_segment_size(text: str) -> int:
    """A sieve segment size, at least 2."""
    size = _parse_bound(text)
    if size < 2:
        raise argparse.ArgumentTypeError(f"need segment size >= 2, got {size}")
    return size


def _parse_finite(text: str) -> float:
    """A finite float; nan and inf would print as invalid JSON."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def default_cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "aptuple"


def _cache_limit(min_limit: int, cached_limit: int = 0) -> int:
    """The limit of the table a rebuild writes when min_limit is needed.

    The need is at least 2 and, when a shorter table of cached_limit is
    cached, at least twice that, so stepping x upward rebuilds O(log x)
    times. It is rounded up to a multiple of 2^(bit_length - 4): the table
    has at most four significant bits and is less than 1/8 longer than the
    need. The result is capped at LIMIT_BOUND - 1 but never below min_limit,
    so a min_limit past the bound still reaches the sieve's own error.
    """
    from .sieve import LIMIT_BOUND

    need = max(2, min_limit, 2 * cached_limit)
    grain = 1 << max(0, need.bit_length() - 4)
    return max(min_limit, min(-(-need // grain) * grain, LIMIT_BOUND - 1))


def _cache_file(cache_dir: str | Path | None) -> Path:
    """The table file in cache_dir (None: default_cache_dir())."""
    directory = default_cache_dir() if cache_dir is None else Path(cache_dir)
    return directory / CACHE_FILENAME


def ensure_table(
    min_limit: int, cache_dir: str | Path | None
) -> tuple[OmegaTable, Path, bool]:
    """Load the cached table if it covers min_limit, else rebuild and persist.

    A cache_dir of None means default_cache_dir(). A rebuild is sized by
    _cache_limit: less than 12.5% past min_limit on a cold cache (1e7 + 48
    builds 10,485,760 entries, 1e8 + 6 builds 100,663,296 and 1e10 builds
    10,737,418,240), at least double a shorter cached table, and never past
    the largest limit the sieve accepts. A cached file that does not load
    raises its cache error and is left as it is. A rebuild streams the
    table into the cache file and then maps it, so it never holds the
    table in memory.
    """
    from .sieve import load_table, write_omega_table

    path = _cache_file(cache_dir)
    cached_limit = 0
    if path.exists():
        table = load_table(path)
        if table.limit >= min_limit:
            return table, path, False
        cached_limit = table.limit
    write_omega_table(_cache_limit(min_limit, cached_limit), path)
    return load_table(path), path, True


def _cmd_sieve(args) -> int:
    from .sieve import DEFAULT_SEGMENT_SIZE, HEADER_SIZE, write_omega_table

    path = Path(args.out) if args.out else _cache_file(args.cache)
    segment_size = args.segment_size or DEFAULT_SEGMENT_SIZE
    started = time.perf_counter()
    rename_s = write_omega_table(args.limit, path, segment_size=segment_size)
    elapsed = time.perf_counter() - started
    _emit_json(
        {
            "limit": args.limit,
            "path": str(path),
            "bytes": HEADER_SIZE + args.limit + 1,  # header, then Omega(n) for 0 <= n <= limit
            "elapsed": elapsed,
            "timings": {"build_s": elapsed - rename_s, "save_s": rename_s},
        }
    )
    return 0


def _cmd_admissible(args) -> int:
    from .patterns import Pattern, is_admissible

    pattern = Pattern.parse(args.pattern)
    verdict = is_admissible(pattern)
    _emit_json(
        {
            "pattern": str(pattern),
            "admissible": verdict.admissible,
            "witness": verdict.witness,
            "nu": {str(p): nu for p, nu in sorted(verdict.nu_values.items())},
        }
    )
    return 0


def _cmd_selberg(args) -> int:
    from .patterns import Pattern, is_admissible
    from .selberg import selberg_constant

    pattern = Pattern.parse(args.pattern)
    result = selberg_constant(pattern)
    verdict = is_admissible(pattern)
    _emit_json(
        {
            "pattern": str(pattern),
            "prime_limit": args.prime_limit,
            "value": result.value,
            "tail_bound": result.tail_bound,
            "admissible": result.admissible,
            "nu_per_small_prime": {str(p): nu for p, nu in sorted(verdict.nu_values.items())},
        }
    )
    return 0


def _cmd_predict(args) -> int:
    from .asymptotics import loglog_power_product, predicted_tuple_count
    from .patterns import Pattern, Requirements, _check_length
    from .selberg import selberg_constant

    pattern = Pattern.parse(args.pattern)
    requirements = Requirements.parse(args.k)
    _check_length(pattern, requirements)
    series = selberg_constant(pattern).value
    x = float(args.x)
    value = predicted_tuple_count(series, requirements, x, correction=args.correction)
    m = len(pattern)
    _emit_json(
        {
            "pattern": str(pattern),
            "k": str(requirements),
            "x": x,
            "correction": args.correction,
            "series": series,
            "log_power_term": x / math.log(x) ** m,
            "loglog_product": loglog_power_product(requirements, x),
            "value": value,
        }
    )
    return 0


def _require_table(args, x: int, patterns) -> tuple[OmegaTable, dict]:
    """The cached table a census of patterns up to x reads, and the JSON `cache` block.

    load_s is the time spent bringing the table in: mapping the cached
    file, or, when rebuilt is true, sieving and saving a new one first.
    """
    from .census import _needed_limit

    min_limit = _needed_limit(x, patterns)
    started = time.perf_counter()
    table, path, rebuilt = ensure_table(min_limit, args.cache)
    load_s = time.perf_counter() - started
    return table, {"path": str(path), "limit": table.limit, "rebuilt": rebuilt, "load_s": load_s}


def _cmd_count(args) -> int:
    from .census import CensusQuery, count_tuples
    from .patterns import Pattern, Requirements

    pattern = Pattern.parse(args.pattern)
    requirements = Requirements.parse(args.k)
    query = CensusQuery(pattern, requirements, args.x, parity=args.parity, mode=args.mode)
    table, cache = _require_table(args, args.x, [pattern])
    result = count_tuples(table, query, workers=args.workers)
    doc = {
        "pattern": str(pattern),
        "k": str(requirements),
        "x": args.x,
        "parity": args.parity,
        "mode": args.mode,
        "count": result.count,
        "elapsed": result.elapsed,
    }
    if args.csv:
        _write_csv(sys.stdout, list(doc.keys()), [list(doc.values())])
    else:
        _emit_json({**doc, "cache": cache})
    return 0


def _cmd_calibrate(args) -> int:
    from .calibration import PatternFamily, plan_calibration
    from .patterns import Pattern, Requirements

    base = Pattern.parse(args.base)
    try:
        scales = tuple(int(part) for part in args.scales.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --scales {args.scales!r}: {exc}") from exc
    family = PatternFamily(base, scales)
    requirements = Requirements.parse(args.k)
    plan = plan_calibration(family, [requirements], args.x)  # before the table
    table, cache = _require_table(args, args.x, family.members)
    [report] = plan.reports(table, args.parity, args.mode, args.workers)
    members = [
        {
            "pattern": str(mc.pattern),
            "actual": mc.actual,
            "theoretical": mc.theoretical,
            "ratio": mc.ratio,
        }
        for mc in report.per_member
    ]
    if args.csv:
        header = ["pattern", "actual", "theoretical", "ratio", "mean", "std_dev", "rel_error_percent"]
        rows = [
            [m["pattern"], m["actual"], m["theoretical"], m["ratio"],
             report.mean, report.std_dev, report.rel_error_percent]
            for m in members
        ]
        _write_csv(sys.stdout, header, rows)
    else:
        _emit_json(
            {
                "base": str(base),
                "scales": list(scales),
                "k": str(requirements),
                "x": args.x,
                "members": members,
                "mean": report.mean,
                "std_dev": report.std_dev,
                "rel_error_percent": report.rel_error_percent,
                "cache": cache,
            }
        )
    return 0


def _cmd_tables(args) -> int:
    from .calibration import _tables, table_plans

    plans = table_plans(args.x)  # before the table
    table, cache = _require_table(args, args.x, [m for plan in plans for m in plan.family.members])
    tables = _tables(table, plans, args.workers)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [out_dir / f"table{i}.csv" for i in range(1, len(tables) + 1)]
    for path, (header, rows) in zip(files, tables):
        with open(path, "w", newline="") as fh:
            _write_csv(fh, header, rows)
    _emit_json({"x": args.x, "out": str(out_dir), "files": [str(path) for path in files],
                "cache": cache})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aptuple",
        description="Almost-prime tuple counts, singular-series constants, and calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cache_flags(p):
        p.add_argument("--cache", default=None, help=f"cache directory (default ${CACHE_ENV} or ~/.cache/aptuple)")
        p.add_argument("--workers", type=_parse_workers, default=1,
                       help="threads for census scans; no effect on sieve, which runs on one thread")

    p = sub.add_parser("sieve", help="build and persist a factor-count table")
    p.add_argument("--limit", type=_parse_bound, required=True)
    p.add_argument("--segment-size", type=_parse_segment_size, default=None,
                   help="numbers per sieve segment (default: 2^21)")
    p.add_argument("--out", default=None, help="explicit output path (default: cache)")
    add_cache_flags(p)
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("admissible", help="residue-coverage admissibility check")
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("selberg", help="singular-series value with its error bound")
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_selberg)

    p = sub.add_parser("predict", help="theoretical tuple count")
    p.add_argument("--pattern", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--x", type=_parse_bound, required=True)
    p.add_argument("--correction", type=_parse_finite, default=1.0)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("count", help="census a tuple pattern against the table")
    p.add_argument("--pattern", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--x", type=_parse_bound, required=True)
    p.add_argument("--mode", choices=["exact", "atmost"], default="exact")
    p.add_argument("--parity", choices=["odd", "all"], default="odd")
    p.add_argument("--csv", action="store_true")
    add_cache_flags(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("calibrate", help="correction factor over a scaled family")
    p.add_argument("--base", required=True)
    p.add_argument("--scales", required=True, help="comma-separated scale factors, e.g. 2,4,8")
    p.add_argument("--k", required=True)
    p.add_argument("--x", type=_parse_bound, required=True)
    p.add_argument("--mode", choices=["exact", "atmost"], default="exact")
    p.add_argument("--parity", choices=["odd", "all"], default="odd")
    p.add_argument("--csv", action="store_true")
    add_cache_flags(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("tables", help="write the three summary tables as CSV")
    p.add_argument("--x", type=_parse_bound, default=10**7)
    p.add_argument("--out", required=True)
    add_cache_flags(p)
    p.set_defaults(func=_cmd_tables)

    for name in ("selberg", "predict", "calibrate", "tables"):
        sub.choices[name].add_argument("--prime-limit", type=_parse_bound, default=10**6,
                                       help="no effect: the series is exact; kept for old scripts")
    return parser


def _cache_errors() -> tuple[type[Exception], ...]:
    """The sieve's cache errors when it is loaded; only a loaded sieve can raise them."""
    sieve = sys.modules.get("aptuple.sieve")
    return (sieve.CacheFormatError, sieve.CacheCorruptionError) if sieve else ()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, *_cache_errors()) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
