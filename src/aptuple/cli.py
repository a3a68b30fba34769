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

from .calibration import (
    TABLE_FAMILIES,
    PatternFamily,
    calibrate,
    family_presets,
    reproduce_tables,
)
from .census import CensusQuery, count_tuples
from .patterns import Pattern, Requirements, is_admissible
from .selberg import selberg_constant
from .asymptotics import loglog_power_product, predicted_tuple_count
from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    CacheCorruptionError,
    CacheFormatError,
    OmegaTable,
    build_omega_table,
    load_table,
    save_table,
)

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


def _emit_csv(header: list[str], rows: list[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
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


def default_cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "aptuple"


def _next_power_of_two(n: int) -> int:
    return 1 << max(1, (n - 1).bit_length())


def ensure_table(
    min_limit: int, cache_dir: Path, workers: int = 1
) -> tuple[OmegaTable, Path, bool]:
    """Load the cached table if it covers min_limit, else rebuild and persist.

    Rebuilds round the limit up to the next power of two so subsequent
    queries at nearby bounds reuse the same file.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / CACHE_FILENAME
    if path.exists():
        table = load_table(path)
        if table.limit >= min_limit:
            return table, path, False
    table = build_omega_table(_next_power_of_two(min_limit), workers=workers)
    save_table(table, path)
    return table, path, True


def _cmd_sieve(args) -> int:
    started = time.perf_counter()
    table = build_omega_table(args.limit, segment_size=args.segment_size, workers=args.workers)
    if args.out:
        path = Path(args.out)
    else:
        cache = default_cache_dir() if args.cache is None else Path(args.cache)
        cache.mkdir(parents=True, exist_ok=True)
        path = cache / CACHE_FILENAME
    save_table(table, path)
    _emit_json(
        {
            "limit": table.limit,
            "path": str(path),
            "bytes": table.limit + 14,
            "elapsed": time.perf_counter() - started,
        }
    )
    return 0


def _cmd_admissible(args) -> int:
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
    pattern = Pattern.parse(args.pattern)
    result = selberg_constant(pattern, args.prime_limit)
    verdict = is_admissible(pattern)
    _emit_json(
        {
            "pattern": str(pattern),
            "prime_limit": result.prime_limit,
            "value": result.value,
            "tail_bound": result.tail_bound,
            "admissible": result.admissible,
            "nu_per_small_prime": {str(p): nu for p, nu in sorted(verdict.nu_values.items())},
        }
    )
    return 0


def _cmd_predict(args) -> int:
    pattern = Pattern.parse(args.pattern)
    requirements = Requirements.parse(args.k)
    if len(pattern) != len(requirements):
        raise ValueError(
            f"pattern length {len(pattern)} != requirements length {len(requirements)}"
        )
    series = selberg_constant(pattern, args.prime_limit).value
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


def _require_table(args, min_limit: int) -> tuple[OmegaTable, dict]:
    """The cached table covering min_limit, and the JSON `cache` block.

    load_s is the time spent bringing the table in: mapping the cached
    file, or, when rebuilt is true, sieving and saving a new one first.
    """
    cache = default_cache_dir() if args.cache is None else Path(args.cache)
    started = time.perf_counter()
    table, path, rebuilt = ensure_table(min_limit, cache, workers=args.workers)
    load_s = time.perf_counter() - started
    return table, {"path": str(path), "limit": table.limit, "rebuilt": rebuilt, "load_s": load_s}


def _cmd_count(args) -> int:
    pattern = Pattern.parse(args.pattern)
    requirements = Requirements.parse(args.k)
    query = CensusQuery(pattern, requirements, args.x, parity=args.parity, mode=args.mode)
    table, cache = _require_table(args, args.x + pattern.max_offset)
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
        _emit_csv(list(doc.keys()), [list(doc.values())])
    else:
        _emit_json({**doc, "cache": cache})
    return 0


def _cmd_calibrate(args) -> int:
    base = Pattern.parse(args.base)
    scales = tuple(int(part) for part in args.scales.split(","))
    family = PatternFamily(base, scales)
    requirements = Requirements.parse(args.k)
    max_offset = max(member.max_offset for member in family.members)
    table, cache = _require_table(args, args.x + max_offset)
    report = calibrate(
        table, family, requirements, args.x,
        prime_limit=args.prime_limit, parity=args.parity, mode=args.mode,
        workers=args.workers,
    )
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
        _emit_csv(header, rows)
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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    presets = family_presets()
    margin = max(
        member.offsets[-1] for name in TABLE_FAMILIES for member in presets[name].members
    )
    table, cache = _require_table(args, args.x + margin)
    report = reproduce_tables(table, args.x, prime_limit=args.prime_limit, workers=args.workers)

    def write_csv(name: str, header: list[str], rows: list[list]) -> Path:
        path = out_dir / name
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(_round_floats(list(row)))
        return path

    files = [
        write_csv(
            "table1.csv",
            ["n", "selberg_constant", "closed_form"],
            [[r.n, r.truncated, r.closed_form] for r in report.pair_constants],
        ),
        write_csv(
            "table2.csv",
            ["k1", "k2", "correction_factor", "error_percent"],
            [[*r.requirements.demands, r.correction, r.error_percent] for r in report.pair_corrections],
        ),
        write_csv(
            "table3.csv",
            ["k1", "k2", "k3", "correction_factor", "error_percent"],
            [[*r.requirements.demands, r.correction, r.error_percent] for r in report.triple_corrections],
        ),
    ]
    _emit_json(
        {"x": args.x, "out": str(out_dir), "files": [str(p) for p in files], "cache": cache}
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aptuple",
        description="Almost-prime tuple counts, singular-series constants, and calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cache_flags(p):
        p.add_argument("--cache", default=None, help=f"cache directory (default ${CACHE_ENV} or ~/.cache/aptuple)")
        p.add_argument("--workers", type=int, default=1, help="threads for sieving and census scans")

    p = sub.add_parser("sieve", help="build and persist a factor-count table")
    p.add_argument("--limit", type=_parse_bound, required=True)
    p.add_argument("--segment-size", type=_parse_bound, default=DEFAULT_SEGMENT_SIZE)
    p.add_argument("--out", default=None, help="explicit output path (default: cache)")
    add_cache_flags(p)
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("admissible", help="residue-coverage admissibility check")
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("selberg", help="truncated singular-series value")
    p.add_argument("--pattern", required=True)
    p.add_argument("--prime-limit", type=_parse_bound, default=10**6)
    p.set_defaults(func=_cmd_selberg)

    p = sub.add_parser("predict", help="theoretical tuple count")
    p.add_argument("--pattern", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--x", type=_parse_bound, required=True)
    p.add_argument("--correction", type=float, default=1.0)
    p.add_argument("--prime-limit", type=_parse_bound, default=10**6)
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
    p.add_argument("--prime-limit", type=_parse_bound, default=10**6)
    p.add_argument("--mode", choices=["exact", "atmost"], default="exact")
    p.add_argument("--parity", choices=["odd", "all"], default="odd")
    p.add_argument("--csv", action="store_true")
    add_cache_flags(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("tables", help="write the three summary tables as CSV")
    p.add_argument("--x", type=_parse_bound, default=10**7)
    p.add_argument("--out", required=True)
    p.add_argument("--prime-limit", type=_parse_bound, default=10**6)
    add_cache_flags(p)
    p.set_defaults(func=_cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, CacheFormatError, CacheCorruptionError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
