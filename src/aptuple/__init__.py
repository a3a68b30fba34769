"""Almost-prime tuple toolkit.

Builds factor-count tables by segmented sieving, checks tuple-pattern
admissibility, evaluates singular-series constants, censuses almost-prime
tuples, and calibrates the correction factors of the generalized
tuple-density conjecture.
"""

from .asymptotics import (
    EULER_GAMMA,
    LANDAU_C1,
    LANDAU_C2,
    almost_prime_count_asymptotic,
    predicted_tuple_count,
    successor_ratio,
)
from .calibration import (
    CalibrationReport,
    PatternFamily,
    calibrate,
    calibrate_all,
    estimate_correction_via_ratio,
    family_presets,
    reproduce_tables,
    symmetry_report,
)
from .census import CensusQuery, CensusResult, count_demands, count_tuples, k_histogram
from .patterns import (
    AdmissibilityVerdict,
    Pattern,
    Requirements,
    distance_gcd_prime_support,
    is_admissible,
    primorial,
    residues_mod_p,
    scale_pattern,
)
from .selberg import (
    TWIN_PRIME_C2,
    SelbergResult,
    pair_constant_closed_form,
    primorial_pattern_table,
    selberg_constant,
    triple_constant_closed_form,
)
from .sieve import (
    OmegaTable,
    build_omega_table,
    load_table,
    save_table,
)

__version__ = "0.1.0"
