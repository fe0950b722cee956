"""Prime-order cyclic covers of the projective line over finite fields, in
the regime where the base field contains no nontrivial root of unity of the
cover order: construction, exact point counts with brute-force cross-checks,
character generating series, and fixed-genus point-count statistics."""

from types import ModuleType as _ModuleType

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
    check_cover,
    chi_class,
    fiber_count,
    fiber_count_oracle,
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

# every public name imported above, and nothing else
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
