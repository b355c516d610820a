"""Exact combinatorics of rank-n paving matroids and the matroids obtained by
merging groups of their dependent hyperplanes: construction, component
listing, and exact component counting for the grid and line families."""

from .bitset import as_mask, bits_tuple, mask_of
from .core import check_circuit_axioms, check_circuit_list
from .counting import (
    ForbiddenProfiles,
    TruncatedEGF,
    admissible_partition_count,
    forbidden_sizes,
    grid_component_codes,
    grid_component_count,
    grid_excluded_count,
    grid_forbidden,
    line_component_codes,
    line_component_count,
    partition_count_series,
)
from .decomposition import (
    ComponentReport,
    DecompositionResult,
    decompose_grid,
    decompose_lines,
)
from .errors import MatroidError
from .families import (
    GridLayout,
    LineArrangement,
    MinorGenerator,
    ci_hypergraph,
    ci_ideal_generators,
    grid_matroid,
    line_matroid,
)
from .paving import (
    PavingMatroid,
    paving_from_hyperplanes,
)
from .quasi import (
    ExtensionStep,
    QuasiRep,
    TameDecomposition,
    decompose_to_tame,
    quasi_rep,
    small_circuits,
)

__version__ = "0.1.0"
