"""Boundary laws for integer-valued gradient models on regular trees.

The package decides, for a transfer operator Q = exp(-beta U) on the
d-regular tree, whether a localized height measure exists (certified
fixed point of the boundary-law operator on a truncated window) and
whether q-periodic delocalized gradient measures exist (fixed points on
height classes), and quantifies both through norms, good-set membership,
exact path-increment laws, reproducible sampling, and period recovery.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    NotSummableError,
    NumericalError,
    OutsideGoodSetError,
    TailUndeclaredError,
    TreeGibbsError,
)
from .potentials import (
    DoubleSumReport,
    FuzzyOperator,
    NormReport,
    Potential,
    TailModel,
    check_double_sum,
    custom,
    fuzzy_Q,
    hurwitz_zeta,
    load_potential,
    log_potential,
    norm_pair,
    p_norm,
    potential_from_json,
    sos,
)
from .goodset import (
    GoodSetQuery,
    MembershipVerdict,
    ScanReport,
    ScanRow,
    beta_threshold,
    binary_delta_boundary,
    binary_delta_boundary_radical,
    large_degree_scan,
    lipschitz_constant,
    membership,
    norm_membership,
    smallest_epsilon,
)
from .boundary_law import (
    BoundaryLaw,
    SolveConfig,
    SolveReport,
    apply_T,
    apply_T_periodic,
    localization_bounds,
    periodic_solve,
    single_site_marginal,
    solve_fixed_point,
    truncation_radius,
)
from .ggm import (
    FuzzyChain,
    IncrementLaw,
    fuzzy_chain,
    ggm_edge_marginal,
    increment_law,
    increment_laws,
    star_marginal,
)
from .pathsim import (
    PathDistribution,
    RecoveryReport,
    recover_period,
    sample_path,
    sample_wn,
    wn_ggm_exact,
    wn_localized_exact,
)

__all__ = [
    "__version__",
    "TreeGibbsError", "ConfigError", "TailUndeclaredError",
    "NotSummableError", "NumericalError", "OutsideGoodSetError",
    "Potential", "TailModel", "NormReport", "FuzzyOperator",
    "DoubleSumReport", "sos", "log_potential", "custom",
    "potential_from_json", "load_potential", "p_norm", "norm_pair",
    "fuzzy_Q", "hurwitz_zeta", "check_double_sum",
    "GoodSetQuery", "MembershipVerdict", "ScanRow", "ScanReport",
    "smallest_epsilon", "lipschitz_constant", "membership",
    "norm_membership",
    "binary_delta_boundary", "binary_delta_boundary_radical",
    "beta_threshold", "large_degree_scan",
    "BoundaryLaw", "SolveConfig", "SolveReport", "apply_T",
    "apply_T_periodic", "truncation_radius", "solve_fixed_point",
    "periodic_solve", "localization_bounds", "single_site_marginal",
    "FuzzyChain", "IncrementLaw", "fuzzy_chain", "increment_law",
    "increment_laws", "ggm_edge_marginal", "star_marginal",
    "PathDistribution", "RecoveryReport", "wn_localized_exact",
    "wn_ggm_exact", "sample_path", "sample_wn", "recover_period",
]
