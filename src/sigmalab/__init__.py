"""sigmalab: exact arithmetic statistics of the sum-of-divisors function.

The package computes, with integer or controlled floating-point
arithmetic throughout:

* censuses of sigma(n) in coprime residue classes mod q, with filters
  on the largest prime factors of n (`census`, `twisted_partial_sum`);
* character averages over shifted and quadratic arguments, their
  closed forms, and the extremal quarter bound over the eighteen
  exceptional conductors (`rho_exact`, `eta_factored`, `verify_s_set`);
* main terms for sums of multiplicative weights over rough numbers,
  with the Gamma-factor machinery they need (`exact_twisted_sum`,
  `lsd_main_term`, `g_one_euler_product`, `convergence_scan`);
* point counts of the polynomial congruences that explain
  over-represented classes, plus end-to-end witness constructions
  (`v_count`, `lift_count_mod_ell_squared`, `curve_point_count`,
  `overrep_witness_even`, `overrep_witness_sqfree`).

Everything is deterministic: segment workers never change output bytes.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateCensusError,
    EvenModulusWarning,
    GammaPoleError,
    OutOfRangeError,
    ResourceBudgetError,
    UnsupportedModulusError,
)
from .factor import (
    DEFAULT_MEMORY_BUDGET,
    DEFAULT_SEGMENT_LENGTH,
    Factorization,
    FactorSieve,
    TwoAdicSquareForm,
    kth_largest_prime_factor,
    odd_part_is_square_array,
    psi_smooth_count,
    rough_count,
    sigma_mod,
    two_adic_square_form,
)
from .characters import (
    DirichletCharacter,
    Generator,
    Modulus,
    RootOfUnityValue,
    UnitGroupBasis,
    build_modulus,
    character_with_conductor_count,
    enumerate_characters,
)
from .charsums import (
    EXCEPTIONAL_CONDUCTORS,
    SIGMA_AT_PRIME,
    SIGMA_AT_PRIME_SQUARE,
    CharacterAverageRow,
    PolynomialSpec,
    SSetReport,
    SSetRow,
    WeilBoundReport,
    alpha_F,
    eta_brute,
    eta_factored,
    eta_power_sum,
    eta_table,
    quadratic_root_count,
    rho_brute,
    rho_closed_form,
    rho_exact,
    rho_power_sum,
    rho_table,
    s_chi_ell,
    s_chi_ell_closed_form,
    verify_s_set,
    weil_clz_check,
)
from .lsd import (
    EULER_GAMMA,
    GOneResult,
    TwistedSumParams,
    TwistedSumResult,
    complex_gamma,
    convergence_scan,
    exact_twisted_sum,
    g_one_euler_product,
    lsd_main_term,
    reciprocal_gamma,
    rough_omega_histogram,
)
from .census import (
    CensusFilter,
    CensusReport,
    ClassCounts,
    census,
    discrepancy,
    iter_sigma_segments,
    prime_reciprocal_sum,
    proof_threshold_y,
    proof_threshold_z,
    rough_count_estimate,
    twisted_partial_sum,
)
from .varieties import (
    CurveCount,
    OverrepWitnessReport,
    SolutionCount,
    curve_point_count,
    lift_count_mod_ell_squared,
    overrep_witness_even,
    overrep_witness_sqfree,
    v_count,
)

__all__ = [
    "__version__",
    # errors
    "DegenerateCensusError",
    "EvenModulusWarning",
    "GammaPoleError",
    "OutOfRangeError",
    "ResourceBudgetError",
    "UnsupportedModulusError",
    # factorization engine
    "DEFAULT_MEMORY_BUDGET",
    "DEFAULT_SEGMENT_LENGTH",
    "Factorization",
    "FactorSieve",
    "TwoAdicSquareForm",
    "kth_largest_prime_factor",
    "odd_part_is_square_array",
    "psi_smooth_count",
    "rough_count",
    "sigma_mod",
    "two_adic_square_form",
    # unit groups and characters
    "DirichletCharacter",
    "Generator",
    "Modulus",
    "RootOfUnityValue",
    "UnitGroupBasis",
    "build_modulus",
    "character_with_conductor_count",
    "enumerate_characters",
    # character averages
    "EXCEPTIONAL_CONDUCTORS",
    "SIGMA_AT_PRIME",
    "SIGMA_AT_PRIME_SQUARE",
    "CharacterAverageRow",
    "PolynomialSpec",
    "SSetReport",
    "SSetRow",
    "WeilBoundReport",
    "alpha_F",
    "eta_brute",
    "eta_factored",
    "eta_power_sum",
    "eta_table",
    "quadratic_root_count",
    "rho_brute",
    "rho_closed_form",
    "rho_exact",
    "rho_power_sum",
    "rho_table",
    "s_chi_ell",
    "s_chi_ell_closed_form",
    "verify_s_set",
    "weil_clz_check",
    # rough-number main terms
    "EULER_GAMMA",
    "GOneResult",
    "TwistedSumParams",
    "TwistedSumResult",
    "complex_gamma",
    "convergence_scan",
    "exact_twisted_sum",
    "g_one_euler_product",
    "lsd_main_term",
    "reciprocal_gamma",
    "rough_omega_histogram",
    # censuses
    "CensusFilter",
    "CensusReport",
    "ClassCounts",
    "census",
    "discrepancy",
    "iter_sigma_segments",
    "prime_reciprocal_sum",
    "proof_threshold_y",
    "proof_threshold_z",
    "rough_count_estimate",
    "twisted_partial_sum",
    # congruence point counts
    "CurveCount",
    "OverrepWitnessReport",
    "SolutionCount",
    "curve_point_count",
    "lift_count_mod_ell_squared",
    "overrep_witness_even",
    "overrep_witness_sqfree",
    "v_count",
]
