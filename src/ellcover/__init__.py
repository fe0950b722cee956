"""Prime-order cyclic covers of the projective line over finite fields, in
the regime where the base field contains no nontrivial root of unity of the
cover order: construction, exact point counts with brute-force cross-checks,
character generating series, and fixed-genus point-count statistics."""

from .errors import (
    BudgetExceeded,
    CharacteristicDividesEll,
    CrossCheckMismatch,
    CtxMismatch,
    DegenerateZeroPolynomial,
    EllcoverError,
    EmptyStratum,
    InvalidTuple,
    KummerRegime,
    NotASubfield,
    NotPrime,
    NotPrimePower,
    OrderMismatch,
    SupportMismatch,
    TooLarge,
    TrivialCharacter,
    UnexpectedRoot,
    ZeroInput,
    ZeroPolynomial,
)
from .gf import (
    CharClass,
    FieldCtx,
    FieldElem,
    embed_elem,
    frobenius,
    lth_power_class,
    make_field,
    subfield_table,
)
from .fqpoly import (
    Factorization,
    Poly,
    embed,
    factor,
    irreducible,
    monic_polys,
    necklace_count,
    poly_frobenius,
    primes_with_degree,
)
from .coverparam import (
    CoverParams,
    Regime,
    StableFactorization,
    TwistedModel,
    admissible_D,
    class_vector,
    count_tuples,
    enumerate_tuples,
    genus_of,
    is_n_divisible,
    make_regime,
    power_orbit,
    prime_classes,
    sample_params,
    split_prime,
    stable_factorization,
    twisted_model,
    validate_params,
)
from .charsum import (
    INFINITY,
    chi_class,
    fiber_count,
    fiber_count_oracle,
    fiber_profile,
    model_value,
    point_count,
    point_count_oracle,
    projective_points,
)
from .lseries import (
    CharW,
    CycloInt,
    base_prime_lines,
    count_constrained,
    g_series,
    growth_check,
    l_polynomial,
    root_magnitudes,
)
from .ensemble import (
    Distribution,
    DistributionReport,
    exhaustive_distribution,
    monte_carlo_distribution,
    theoretical_distribution,
    tv_distance,
)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "CharClass", "CharW", "CharacteristicDividesEll",
    "CheckResult", "CoverParams", "CrossCheckMismatch", "CtxMismatch",
    "CycloInt", "DegenerateZeroPolynomial", "Distribution",
    "DistributionReport", "EllcoverError", "EmptyStratum", "Factorization",
    "FieldCtx", "FieldElem", "INFINITY", "InvalidTuple", "KummerRegime",
    "NotASubfield", "NotPrime", "NotPrimePower", "OrderMismatch", "Poly",
    "Regime", "StableFactorization", "SupportMismatch", "TooLarge",
    "TrivialCharacter", "TwistedModel", "UnexpectedRoot", "ZeroInput",
    "ZeroPolynomial", "admissible_D", "base_prime_lines", "chi_class", "class_vector",
    "count_constrained", "count_tuples", "embed", "embed_elem",
    "enumerate_tuples", "exhaustive_distribution", "factor", "fiber_count",
    "fiber_count_oracle",
    "fiber_profile", "frobenius", "g_series", "genus_of", "growth_check",
    "irreducible", "is_n_divisible", "l_polynomial", "lth_power_class",
    "make_field", "make_regime", "model_value", "monic_polys",
    "monte_carlo_distribution", "necklace_count", "point_count",
    "point_count_oracle", "poly_frobenius", "power_orbit",
    "prime_classes", "primes_with_degree", "projective_points",
    "root_magnitudes", "run_checks", "sample_params", "split_prime",
    "stable_factorization", "subfield_table", "theoretical_distribution", "tv_distance",
    "twisted_model", "validate_params",
]
