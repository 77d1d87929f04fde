"""FDX core: FD types, pair transform, structure learning, discovery."""

from .fd import FD, fd_edges, merge_by_rhs, minimal_cover
from .transform import pair_difference_transform, uniform_pair_transform
from .structure import StructureEstimate, learn_structure
from .fdx import FDX, FDXResult, generate_fds
from .incremental import IncrementalFDX
from .stability import StabilityResult, stability_selection
from .softlogic import (
    equation2_satisfaction,
    fd_linear_response,
    soft_and,
    soft_conjunction,
    soft_not,
    soft_or,
)

__all__ = [
    "IncrementalFDX",
    "StabilityResult",
    "stability_selection",
    "equation2_satisfaction",
    "fd_linear_response",
    "soft_and",
    "soft_conjunction",
    "soft_not",
    "soft_or",
    "FD",
    "fd_edges",
    "merge_by_rhs",
    "minimal_cover",
    "pair_difference_transform",
    "uniform_pair_transform",
    "StructureEstimate",
    "learn_structure",
    "FDX",
    "FDXResult",
    "generate_fds",
]
