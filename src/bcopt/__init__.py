"""Budget-constrained matching and matroid-intersection optimization.

Selects a maximum-profit feasible set under a hard budget, where feasibility
is either a graph matching or a two-matroid intersection.  The solver prunes
the search to a small representative set of high-profit elements, enumerates
its feasible subsets, and extends each with a low-profit patching subroutine;
an exact brute-force oracle and exhaustive checkers back every guarantee on
desk-scale instances.
"""

from .core import (
    BCError,
    BCInstance,
    CapExceededError,
    Element,
    Epsilon,
    GuardExceededError,
    InfeasibleSetError,
    InvalidParameterError,
    Solution,
    UnknownElementError,
    ValidationReport,
    is_solution,
    preprocess_discard,
    validate_instance,
)
from .constraints import Matching, MatroidIntersection
from .matroids import (
    GraphicMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
)
from .classes import ClassLayout, class_index, class_partition, q_of, small_profit_pool
from .exchange import exset_matching, exset_matroid_intersection
from .lagrange import approx_opt, non_profitable_solver
from .repset import RepresentativeSet, rep_set
from .solver import SolveConfig, residual_instance, solve
from .oracle import brute_force_opt, profitable_set, weak_exchange_extend

__all__ = [
    "BCError",
    "BCInstance",
    "CapExceededError",
    "ClassLayout",
    "Element",
    "Epsilon",
    "GraphicMatroid",
    "GuardExceededError",
    "InfeasibleSetError",
    "InvalidParameterError",
    "Matching",
    "MatroidIntersection",
    "MatroidOracle",
    "PartitionMatroid",
    "RepresentativeSet",
    "SolveConfig",
    "Solution",
    "UniformMatroid",
    "UnknownElementError",
    "ValidationReport",
    "approx_opt",
    "brute_force_opt",
    "class_index",
    "class_partition",
    "exset_matching",
    "exset_matroid_intersection",
    "is_solution",
    "non_profitable_solver",
    "preprocess_discard",
    "profitable_set",
    "q_of",
    "rep_set",
    "residual_instance",
    "small_profit_pool",
    "solve",
    "validate_instance",
    "weak_exchange_extend",
]
