"""Exact maximum weight independent set on graphs that contain neither a
triangle nor two vertex-disjoint, mutually non-adjacent induced four-vertex
paths.

Public surface: the ``Graph`` bitset container, the top-level ``solve`` and
``solve_with_cover`` drivers, class recognition with witnesses, the
constrained solvers forcing a path's vertex pairs, instance generators and
the brute-force oracle, and the error family the CLI maps to exit codes.
"""

from .bipartite import cb_weight_mask, solve_cb_components
from .constrained import solve_containing_ac, solve_containing_bd
from .errors import (
    ClassViolation,
    GuardError,
    InputError,
    ParseError,
    StructureViolation,
)
from .graph import Graph, SolveResult, bits, certified_result, mask_of
from .recognition import (
    InducedP4,
    MembershipVerdict,
    NeighborhoodPartition,
    enumerate_induced_p4,
    find_induced_p4,
    find_triangle,
    is_class_member,
    neighborhood_partition,
)
from .solver import CoverFamily, solve, solve_with_cover
from .testkit import enumerate_maximal_is, gen_instance, oracle_wis

__all__ = [
    "Graph",
    "SolveResult",
    "bits",
    "mask_of",
    "certified_result",
    "solve",
    "solve_with_cover",
    "CoverFamily",
    "solve_containing_ac",
    "solve_containing_bd",
    "solve_cb_components",
    "cb_weight_mask",
    "InducedP4",
    "MembershipVerdict",
    "NeighborhoodPartition",
    "is_class_member",
    "find_triangle",
    "find_induced_p4",
    "enumerate_induced_p4",
    "neighborhood_partition",
    "oracle_wis",
    "enumerate_maximal_is",
    "gen_instance",
    "InputError",
    "ParseError",
    "GuardError",
    "ClassViolation",
    "StructureViolation",
]
