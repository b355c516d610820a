"""Exact combinatorics of rank-n paving matroids and the matroids obtained by
merging groups of their dependent hyperplanes: construction, component
listing, and exact component counting for the grid and line families."""

from .bitset import as_mask, bits_tuple, mask_of
from .core import (
    Matroid,
    check_circuit_axioms,
    matroid_from_circuits,
    uniform,
)
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
    vector_partitions,
)
from .decomposition import (
    ComponentReport,
    DecompositionResult,
    decompose_grid,
    decompose_lines,
    is_grid_component_partition,
    is_line_component_partition,
    merged_rep,
)
from .errors import MatroidError
from .families import (
    GridLayout,
    LineArrangement,
    MinorGenerator,
    ci_hypergraph,
    ci_ideal_generators,
    ci_matroid,
    grid_matroid,
    line_matroid,
)
from .paving import (
    PavingMatroid,
    is_tame,
    paving_from_hyperplanes,
)
from .quasi import (
    ExtensionStep,
    QuasiRep,
    TameDecomposition,
    decompose_to_tame,
    paving_to_matroid,
    quasi_matroid,
    quasi_rep,
    small_circuits,
)

__version__ = "0.1.0"
