"""Numerical laboratory for memory-one strategies in the repeated prisoner's dilemma.

The package computes the long-run behaviour of the four-state chain induced
by a pair of memory-one strategies, decomposes Press-Dyson vectors over
payoff bases (the classical {1, s1, s2} family and its monomial and
exponential extensions), evaluates the payoff-moment relations those
decompositions enforce, and cross-validates everything with seeded
round-by-round simulation.
"""

from .game import (
    DEFAULT_PAYOFFS,
    JointState,
    MemoryOneStrategy,
    PayoffMatrix,
    PayoffVector,
    cooperation_probs,
    named_strategy,
    ones_vector,
    parse_strategy,
    payoff_vector,
    pointwise_product,
    transform_exp,
    transform_power,
    transition_matrices,
    transition_matrix,
)
from .markov import (
    ChainStructure,
    LimitBatch,
    LimitResult,
    as_distribution,
    cesaro_limit,
    cesaro_limits,
    classify,
    evolve,
    perturbed_stationary,
    point_mass,
    stationary_exact,
    uniform_distribution,
)
from .moments import (
    PayoffDistribution,
    cross_moment,
    distribution_stacks_equal,
    distributions_equal,
    feature_averages,
    mgf,
    mgf_features,
    moment,
    moment_features,
    payoff_distribution,
    payoff_distributions,
    relation_value,
)
from .montecarlo import (
    PRNG_ID,
    ComparisonReport,
    SimulationConfig,
    SimulationReport,
    derive_seed,
    empirical_vs_exact,
    simulate,
)
from .pressdyson import (
    BasisSpec,
    DecompositionResult,
    IdentityCheck,
    PressDysonVector,
    akin_residual,
    decompose,
    format_label,
    monomial_vector,
    press_dyson,
    tft_exponential_identity,
    tft_power_identity,
    wsls_coefficients,
)

__version__ = "0.1.0"

#: Frequently used strategies, ready made.
TFT = named_strategy("tft")
WSLS = named_strategy("wsls")
ALL_C = named_strategy("all_c")
ALL_D = named_strategy("all_d")

__all__ = [
    "__version__",
    "TFT",
    "WSLS",
    "ALL_C",
    "ALL_D",
    "DEFAULT_PAYOFFS",
    "JointState",
    "MemoryOneStrategy",
    "PayoffMatrix",
    "PayoffVector",
    "cooperation_probs",
    "named_strategy",
    "ones_vector",
    "parse_strategy",
    "payoff_vector",
    "pointwise_product",
    "transform_exp",
    "transform_power",
    "transition_matrix",
    "transition_matrices",
    "ChainStructure",
    "LimitBatch",
    "LimitResult",
    "as_distribution",
    "cesaro_limit",
    "cesaro_limits",
    "classify",
    "evolve",
    "perturbed_stationary",
    "point_mass",
    "stationary_exact",
    "uniform_distribution",
    "PayoffDistribution",
    "cross_moment",
    "distribution_stacks_equal",
    "distributions_equal",
    "feature_averages",
    "mgf",
    "mgf_features",
    "moment",
    "moment_features",
    "payoff_distribution",
    "payoff_distributions",
    "relation_value",
    "PRNG_ID",
    "ComparisonReport",
    "SimulationConfig",
    "SimulationReport",
    "derive_seed",
    "empirical_vs_exact",
    "simulate",
    "BasisSpec",
    "DecompositionResult",
    "IdentityCheck",
    "PressDysonVector",
    "akin_residual",
    "decompose",
    "format_label",
    "monomial_vector",
    "press_dyson",
    "tft_exponential_identity",
    "tft_power_identity",
    "wsls_coefficients",
]
