"""Almost-prime tuple toolkit.

Builds factor-count tables by segmented sieving, checks tuple-pattern
admissibility, evaluates singular-series constants, censuses almost-prime
tuples, and calibrates the correction factors of the generalized
tuple-density conjecture.

Importing the package loads nothing else: each exported name imports its
module on first use (PEP 562), so a process pays only for the layers it
touches.
"""

import importlib

_EXPORTS = {
    "asymptotics": ("predicted_tuple_count",),
    "calibration": (
        "CalibrationReport",
        "PatternFamily",
        "calibrate",
        "calibrate_all",
        "family_presets",
        "reproduce_tables",
        "symmetry_report",
    ),
    "census": (
        "CensusQuery",
        "CensusResult",
        "count_patterns",
        "count_tuples",
        "k_histogram",
    ),
    "patterns": (
        "AdmissibilityVerdict",
        "Pattern",
        "Requirements",
        "distance_gcd_prime_support",
        "is_admissible",
        "scale_pattern",
    ),
    "selberg": (
        "TWIN_PRIME_C2",
        "SelbergResult",
        "pair_constant_closed_form",
        "selberg_constant",
    ),
    "sieve": ("OmegaTable", "build_omega_table", "load_table", "save_table", "write_omega_table"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
