"""Bivariate Schurer-Stancu operators on (p,q)-integers.

Layers: pq_core (bracket arithmetic), operators (weights, nodes, tensor
evaluation), moments (closed forms vs brute-force oracle), catalog (test
functions with exact metadata), analysis (moduli and error bounds),
convergence (Korovkin tables over parameter families), cli (pqss command).
"""

from .analysis import (
    LipschitzSpec,
    MembershipError,
    MetadataError,
    auxiliary_apply,
    error_grid,
    k_functional_upper,
    lipschitz_bound,
    lipschitz_violations,
    total_modulus_bound_grid,
)
from .catalog import TestFunction, build_catalog, grid_modulus_estimate, verify_metadata
from .convergence import (
    AxisShape,
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
    central_moment,
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
    nodes,
    reduce_operator,
    weight_vector,
)
from .pq_core import PQPair, pq_integer

__version__ = "0.1.0"
