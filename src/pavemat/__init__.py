"""Exact combinatorics of rank-n paving matroids and the matroids obtained by
merging groups of their dependent hyperplanes: construction, component
listing, and exact component counting for the grid and line families."""

from .bitset import as_mask, bits_tuple, mask_of
from .core import (
    DependencyVerdict,
    Matroid,
    check_circuit_axioms,
    dependency_leq,
    is_uniform,
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
    HyperplanePartition,
    Liftability,
    LiftabilityVerdict,
    decompose_grid,
    decompose_lines,
    is_component_partition,
    is_grid_component_partition,
    is_line_component_partition,
    liftability_oracle,
    merged_matroid,
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
    CoreReduction,
    NilpotentChain,
    PavingMatroid,
    degree_one_core,
    degrees,
    hyperplane_submatroid,
    hyperplanes_through,
    is_nilpotent,
    is_tame,
    nilpotent_chain,
    paving_from_hyperplanes,
)
from .quasi import (
    ExtensionStep,
    QuasiRep,
    TameDecomposition,
    decompose_to_tame,
    pairwise_intersection_flats,
    paving_to_matroid,
    principal_extension,
    quasi_deletion,
    quasi_matroid,
    quasi_rep,
    replay_extensions,
    small_circuits,
)

__version__ = "0.1.0"
