"""Exact residue-class analysis of the Collatz map.

The third iterate of the map acts as an affine branch per residue mod 8; this
package computes its preimages on classes mod 8^m, the invariant probability
measure on those classes, the induced exact stochastic matrices and their
stationary distributions, class-wise contraction bounds, and large empirical
trajectory sweeps that compare visit frequencies against the theory.

The public names load lazily (PEP 562): importing the package loads no
submodule and no numpy, and the first access to a name imports the submodule
that defines it.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.
_SUBMODULE = {
    "CapacityError": "errors",
    "ClassUnion": "congruence",
    "ComparisonTable": "empirical",
    "CongruenceClass": "congruence",
    "ConsistencyError": "errors",
    "ContractionReport": "contraction",
    "SweepConfig": "empirical",
    "TrajectoryCapError": "errors",
    "TrajectoryStats": "empirical",
    "TransitionMatrix": "markov",
    "WorkerError": "errors",
    "birkhoff_alpha": "contraction",
    "bound_factors": "contraction",
    "bounded_geometric_mean": "contraction",
    "build_matrix": "markov",
    "build_report": "contraction",
    "check_ergodicity": "markov",
    "check_invariance": "measure",
    "collatz_step": "maps",
    "compare_to_theory": "empirical",
    "domination_scan": "contraction",
    "emit_chain_graph": "markov",
    "fixed_points_upto": "maps",
    "forward_split": "congruence",
    "matrix_power": "markov",
    "measure_class": "measure",
    "measure_integer": "measure",
    "measure_union": "measure",
    "nu": "measure",
    "orbit_log_average": "contraction",
    "preimage_class": "congruence",
    "preimage_targets": "congruence",
    "raw_geometric_mean": "contraction",
    "run_trajectory": "empirical",
    "solve_linear_congruence": "congruence",
    "stationary_distribution": "markov",
    "sweep": "empirical",
    "third_iterate": "maps",
}
_SUBMODULES = frozenset(_SUBMODULE.values())

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name in _SUBMODULES:  # "import collatzmc; collatzmc.markov.build_matrix(2)"
        return importlib.import_module(f".{name}", __name__)
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
