"""Verified-output gate: reference values and the checks that compare CLI output to them.

Every reference here is an exact count known independently of the program
(pi(1e8), the semiprime and twin-prime totals, the 1e7 census counts the
acceptance suite calls verified), a count recorded from the seed commit, a
value given to 7 digits (S({0,2}), the pair-family mean), or a value this
module recomputes itself from a closed form or an Euler product. The module
imports numpy only, never the program under test.

Deliberately not gated:
  * the published reference values of the acceptance suite (the
    ``PUBLISHED_*`` tables, e.g. the pair counts 166650 and 166374, the
    Table-1 constant 4.693, and the published Tables 2 and 3); they carry
    known transcription defects;
  * ``tail_bound`` of wide patterns such as {0, 2p} with p above the prime
    limit; the bound omits the first-order factor of p and is known not to
    hold there.

Output is parsed by key, so keys a later version adds are ignored. Floats
are compared at the 7 significant digits the CLI prints.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from pathlib import Path

import numpy as np

C2 = 0.66016181584686957  # twin-prime constant prod_{p>2} (1 - 1/(p-1)^2)

PI_1E8 = 5761455
SEMIPRIMES_1E8 = 17427258
TWINS_1E8 = 440312  # n <= 1e8 - 2 with n and n + 2 both prime

# Odd n <= 1e7, exact mode: {0, N} with K = (1, 2), and {0, 2c, 6c} with K = (1, 1, 2).
PAIR_COUNTS_1E7 = {2: 166649, 4: 167037, 8: 166734, 16: 167023}
TRIPLE_COUNTS_1E7 = {1: 20480, 2: 20128, 4: 20413, 8: 20260}
PAIR_FULL_MEAN_1E7 = 1.181042
S_PAIR = 1.3203236  # S({0, 2}) = 2 * C2

# Census counts keyed by (pattern, k, x, parity, mode).
COUNTS = {
    ("0", "1", 10**8, "all", "exact"): PI_1E8,
    ("0", "2", 10**8, "all", "exact"): SEMIPRIMES_1E8,
    ("0,2", "1,1", 10**8 - 2, "all", "exact"): TWINS_1E8,
    # recorded from the seed commit
    ("0,2", "1,2", 10**8, "odd", "exact"): 1322266,
    ("0,2,6", "1,1,2", 10**8, "odd", "exact"): 140400,
    ("0,2,6", "2,2,2", 10**8, "all", "atmost"): 2821653,
    ("0,4", "2,3", 10**8, "odd", "exact"): 4274942,
    **{("0," + str(n), "1,2", 10**7, "odd", "exact"): c for n, c in PAIR_COUNTS_1E7.items()},
    **{(f"0,{2 * c},{6 * c}", "1,1,2", 10**7, "odd", "exact"): v
       for c, v in TRIPLE_COUNTS_1E7.items()},
}

TABLE1_SEPARATIONS = (2, 6, 30, 210, 2310)
TABLE2_DEMANDS = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
TABLE3_DEMANDS = ((1, 1, 2), (1, 2, 2), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3))
PRIME_LIMIT = 10**6


class GateError(AssertionError):
    """An output missed its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def unit7(want: float) -> float:
    """One unit in the 7th significant digit of want."""
    if want == 0:
        return 1e-300
    return 10.0 ** (math.floor(math.log10(abs(want))) - 6)


def agree7(got: float, want: float) -> bool:
    """got matches want at 7 significant digits, allowing one unit for rounding."""
    return math.isfinite(got) and abs(got - want) <= unit7(want) * 1.0000001


def _check7(label: str, got, want: float) -> None:
    _require(agree7(float(got), want), f"{label}: got {got}, want {want:.7g}")


# ---------------------------------------------------------------------------
# Independent references


_PRIMES: dict[int, np.ndarray] = {}


def primes_upto(n: int) -> np.ndarray:
    if n not in _PRIMES:
        flags = np.ones(n + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(n) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        _PRIMES[n] = np.flatnonzero(flags)
    return _PRIMES[n]


def pair_closed_form(n: int) -> float:
    """S({0, N}) = 2 C2 prod_{p | N, p > 2} (p - 1)/(p - 2)."""
    value, rest, p = 2.0 * C2, n, 2
    while p * p <= rest:
        if rest % p == 0:
            if p > 2:
                value *= (p - 1) / (p - 2)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 2:
        value *= (rest - 1) / (rest - 2)
    return value


def singular_series(offsets: tuple[int, ...], prime_limit: int) -> float:
    """prod_{p <= prime_limit} (1 - nu_p/p) (1 - 1/p)^(-m), summed in log space."""
    m = len(offsets)
    primes = primes_upto(prime_limit).astype(np.float64)
    nu = np.full(len(primes), float(m))
    for i, p in enumerate(primes):
        if p > max(offsets) + m:
            break
        nu[i] = len({(-h) % int(p) for h in offsets})
    return math.exp(math.fsum(np.log1p(-nu / primes) - m * np.log1p(-1.0 / primes)))


def predicted(series: float, demands: tuple[int, ...], x: float) -> float:
    """S * x / (log x)^m * prod_i (log log x)^(k_i - 1) / (k_i - 1)!."""
    loglog = math.log(math.log(x))
    value = series * x / math.log(x) ** len(demands)
    for k in demands:
        value *= loglog ** (k - 1) / math.factorial(k - 1)
    return value


def _family_theory(base: tuple[int, ...], demands: tuple[int, ...], x: int) -> float:
    return predicted(singular_series(base, PRIME_LIMIT), demands, x)


# ---------------------------------------------------------------------------
# Output parsing


def parse_json(text: str) -> dict:
    doc = json.loads(text)
    _require(isinstance(doc, dict), "output is not a JSON object")
    return doc


def parse_csv(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    _require(bool(rows), "CSV output has no rows")
    return rows


def _flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _bound(text: str) -> int:
    return int(float(text))


# ---------------------------------------------------------------------------
# Checks, one per subcommand. Each takes the argv it ran and its stdout.


def check_count(argv: list[str], out: str) -> None:
    pattern, k = _flag(argv, "--pattern"), _flag(argv, "--k")
    x = _bound(_flag(argv, "--x"))
    parity, mode = _flag(argv, "--parity", "odd"), _flag(argv, "--mode", "exact")
    doc = parse_csv(out)[0] if "--csv" in argv else parse_json(out)
    for key, want in (("pattern", pattern), ("k", k), ("parity", parity), ("mode", mode)):
        _require(str(doc[key]) == want, f"count {key}: got {doc[key]!r}, want {want!r}")
    _require(int(doc["x"]) == x, f"count x: got {doc['x']}, want {x}")
    want = COUNTS.get((pattern, k, x, parity, mode))
    _require(want is not None, f"count {pattern} K={k} x={x} {parity} {mode}: no reference")
    got = int(doc["count"])
    _require(got == want, f"count {pattern} K={k} x={x} {parity} {mode}: got {got}, want {want}")


def check_calibrate(argv: list[str], out: str) -> None:
    """Pair family {0, 2c}, K = (1, 2), x = 1e7: member counts, ratios and mean."""
    base, scales = _flag(argv, "--base"), _flag(argv, "--scales")
    _require((base, _flag(argv, "--k"), _bound(_flag(argv, "--x"))) == ("0,2", "1,2", 10**7),
             "calibrate: no reference for these arguments")
    x = 10**7
    theory = _family_theory((0, 2), (1, 2), x)
    if "--csv" in argv:
        members = parse_csv(out)
        summary = members[0]
    else:
        summary = parse_json(out)
        members = summary["members"]
    want_patterns = [f"0,{2 * int(c)}" for c in scales.split(",")]
    _require([str(m["pattern"]) for m in members] == want_patterns,
             f"calibrate members: got {[m['pattern'] for m in members]}")
    counts = []
    for m in members:
        n = int(str(m["pattern"]).split(",")[1])
        got = int(m["actual"])
        _require(got == PAIR_COUNTS_1E7[n], f"calibrate {{0,{n}}}: got {got}, want {PAIR_COUNTS_1E7[n]}")
        _check7(f"calibrate {{0,{n}}} theoretical", m["theoretical"], theory)
        _check7(f"calibrate {{0,{n}}} ratio", m["ratio"], got / theory)
        counts.append(got)
    mean = statistics.fmean(counts) / theory
    if scales == "1,2,4,8":
        _check7("calibrate mean vs verified 1.181042", summary["mean"], PAIR_FULL_MEAN_1E7)
    _check7("calibrate mean", summary["mean"], mean)
    _check7("calibrate rel_error_percent", summary["rel_error_percent"],
            100.0 * statistics.stdev(counts) / statistics.fmean(counts))


def check_selberg(argv: list[str], out: str) -> None:
    """Pairs against the closed form within 1e-5; other patterns against the Euler product."""
    doc = parse_json(out)
    offsets = tuple(int(h) for h in _flag(argv, "--pattern").split(","))
    prime_limit = _bound(_flag(argv, "--prime-limit", str(PRIME_LIMIT)))
    _require(doc["admissible"] is True, "selberg: admissible pattern reported inadmissible")
    value = float(doc["value"])
    if offsets == (0, 2):
        _check7("S({0,2})", value, S_PAIR)
    if len(offsets) == 2:
        want = pair_closed_form(offsets[1])
        _require(abs(value - want) <= 1e-5, f"S({offsets}): got {value}, closed form {want:.7g}")
    else:
        _check7(f"S({offsets}) at prime limit {prime_limit}", value,
                singular_series(offsets, prime_limit))


def check_predict(argv: list[str], out: str) -> None:
    doc = parse_json(out)
    offsets = tuple(int(h) for h in _flag(argv, "--pattern").split(","))
    demands = tuple(int(k) for k in _flag(argv, "--k").split(","))
    x = float(_flag(argv, "--x"))
    _require(offsets == (0, 2), "predict: no reference for this pattern")
    _check7("predict series", doc["series"], S_PAIR)
    _check7("predict value", doc["value"], predicted(S_PAIR, demands, x))


def check_sieve(argv: list[str], out: str) -> None:
    doc = parse_json(out)
    limit = _bound(_flag(argv, "--limit"))
    _require(int(doc["limit"]) == limit, f"sieve limit: got {doc['limit']}, want {limit}")
    path = Path(doc["path"])
    _require(path.is_file() and path.stat().st_size > limit, f"sieve: table file {path} missing or short")


def check_tables(argv: list[str], out: str) -> None:
    """Table 1 against the closed form; Tables 2-3 by shape, plus rows derived from verified counts."""
    doc = parse_json(out)
    x = _bound(_flag(argv, "--x"))
    _require(int(doc["x"]) == x == 10**7, f"tables x: got {doc['x']}")
    files = {Path(f).name: Path(f) for f in doc["files"]}
    t1 = parse_csv(files["table1.csv"].read_text())
    _require([int(r["n"]) for r in t1] == list(TABLE1_SEPARATIONS), "table1: wrong separations")
    for r in t1:
        want = pair_closed_form(int(r["n"]))
        for col in ("selberg_constant", "closed_form"):
            _require(abs(float(r[col]) - want) <= 1e-5,
                     f"table1 N={r['n']} {col}: got {r[col]}, closed form {want:.7g}")

    def rows(name, demands, kcols):
        table = parse_csv(files[name].read_text())
        got = [tuple(int(r[c]) for c in kcols) for r in table]
        _require(got == list(demands), f"{name}: rows {got}")
        for r in table:
            for col in ("correction_factor", "error_percent"):
                v = float(r[col])
                _require(math.isfinite(v) and v >= 0, f"{name} {col}: {v}")
        return {d: r for d, r in zip(demands, table)}

    def derived(name, row, counts, base, demands):
        theory = _family_theory(base, demands, x)
        _check7(f"{name} {demands} correction", row["correction_factor"],
                statistics.fmean(counts) / theory)
        _check7(f"{name} {demands} error_percent", row["error_percent"],
                100.0 * statistics.stdev(counts) / statistics.fmean(counts))

    t2 = rows("table2.csv", TABLE2_DEMANDS, ("k1", "k2"))
    derived("table2", t2[(1, 2)], [PAIR_COUNTS_1E7[n] for n in (4, 8, 16)], (0, 2), (1, 2))
    t3 = rows("table3.csv", TABLE3_DEMANDS, ("k1", "k2", "k3"))
    derived("table3", t3[(1, 1, 2)], list(TRIPLE_COUNTS_1E7.values()), (0, 2, 6), (1, 1, 2))


CHECKS = {
    "count": check_count,
    "calibrate": check_calibrate,
    "selberg": check_selberg,
    "predict": check_predict,
    "sieve": check_sieve,
    "tables": check_tables,
}


def check(argv: list[str], out: str) -> None:
    """Raise GateError unless the output of `aptuple <argv>` matches its references."""
    try:
        CHECKS[argv[0]](argv, out)
    except (KeyError, ValueError, TypeError, IndexError, OSError) as exc:
        raise GateError(f"{argv[0]}: unreadable output ({type(exc).__name__}: {exc})") from exc
