"""Exact residue-class analysis of the Collatz map.

The third iterate of the map acts as an affine branch per residue mod 8; this
package computes its preimages on classes mod 8^m, the invariant probability
measure on those classes, the induced exact stochastic matrices and their
stationary distributions, class-wise contraction bounds, and large empirical
trajectory sweeps that compare visit frequencies against the theory.
"""

from .congruence import (
    ClassUnion,
    CongruenceClass,
    forward_split,
    preimage_class,
    preimage_targets,
    solve_linear_congruence,
)
from .contraction import (
    ContractionReport,
    birkhoff_alpha,
    bound_factors,
    bounded_geometric_mean,
    build_report,
    domination_scan,
    orbit_log_average,
    raw_geometric_mean,
)
from .empirical import (
    ComparisonTable,
    SweepConfig,
    TrajectoryStats,
    compare_to_theory,
    run_trajectory,
    sweep,
)
from .errors import CapacityError, ConsistencyError, TrajectoryCapError
from .maps import collatz_step, fixed_points_upto, third_iterate
from .markov import (
    TransitionMatrix,
    build_matrix,
    check_ergodicity,
    emit_chain_graph,
    matrix_power,
    stationary_distribution,
)
from .measure import check_invariance, measure_class, measure_integer, measure_union, nu

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ClassUnion",
    "ComparisonTable",
    "CongruenceClass",
    "ConsistencyError",
    "ContractionReport",
    "SweepConfig",
    "TrajectoryCapError",
    "TrajectoryStats",
    "TransitionMatrix",
    "birkhoff_alpha",
    "bound_factors",
    "bounded_geometric_mean",
    "build_matrix",
    "build_report",
    "check_ergodicity",
    "check_invariance",
    "collatz_step",
    "compare_to_theory",
    "domination_scan",
    "emit_chain_graph",
    "fixed_points_upto",
    "forward_split",
    "matrix_power",
    "measure_class",
    "measure_integer",
    "measure_union",
    "nu",
    "orbit_log_average",
    "preimage_class",
    "preimage_targets",
    "raw_geometric_mean",
    "run_trajectory",
    "solve_linear_congruence",
    "stationary_distribution",
    "sweep",
    "third_iterate",
]
