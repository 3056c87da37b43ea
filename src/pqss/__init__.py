"""Bivariate Schurer-Stancu operators on (p,q)-integers.

Layers: pq_core (bracket arithmetic), operators (weights, nodes, tensor
evaluation), moments (closed forms vs brute-force oracle), catalog (test
functions with exact metadata), analysis (moduli and error bounds),
convergence (Korovkin tables over parameter families), cli (pqss command).
"""

from .analysis import (
    BoundResult,
    LipschitzSpec,
    MembershipError,
    MetadataError,
    ModulusValue,
    auxiliary_apply,
    k_functional_upper,
    lipschitz_bound,
    lipschitz_violations,
    local_smoothness_report,
    second_modulus,
    total_modulus,
    total_modulus_bound,
    total_modulus_bound_grid,
)
from .catalog import TestFunction, build_catalog, grid_modulus_estimate, verify_metadata
from .convergence import (
    AxisShape,
    ConvergenceTable,
    KorovkinTable,
    SequenceSpec,
    convergence_table,
    empirical_order,
    korovkin_suite,
    one_minus_c_over_n,
    tabulated_sequence,
)
from .moments import (
    MomentEntry,
    MomentReport,
    VerifyResult,
    central_moment_closed,
    delta,
    literal_first_moment_factor,
    moment_closed,
    moment_oracle,
    standard_sweep,
    verify_moments,
)
from .operators import (
    AxisConfig,
    BivariateOperator,
    apply_bivariate,
    apply_on_grid,
    apply_univariate,
    nodes,
    reduce_operator,
    weight_vector,
)
from .pq_core import (
    PQPair,
    log_rising_product,
    pq_binomial,
    pq_factorial,
    pq_integer,
    rising_product,
)

__version__ = "0.1.0"
