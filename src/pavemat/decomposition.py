"""Partitions of the dependent hyperplanes and the matroids they merge into.

Merging each block of a hyperplane partition into one hypergraph member and
applying the three-type construction yields a matroid above the base in the
dependency order. The partitions whose merged matroids appear as components
of the grid and line families admit closed-form tests on their block
profiles, and the listing walks exactly the partition codes that pass them
(counting.grid_component_codes, line_component_codes).
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .bitset import sort_key
from .counting import grid_component_codes, line_component_codes
from .errors import EnumerationBudgetExceeded, InvariantViolated
from .families import GridLayout, LineArrangement
from .quasi import CircuitProfile, QuasiRep, circuit_key, circuit_profile, count_by_size

GRID_ENUM_BUDGET = 14  # max k+l for full component listings
LINE_ENUM_BUDGET = 12  # max n for full component listings


class Classification(NamedTuple):
    """How a component compares to known shapes: uniform(r, d), equal to the
    base matroid, or other (with its circuit-size histogram when computed)."""

    kind: str
    uniform_params: Optional[tuple[int, int]] = None
    histogram: Optional[dict[int, int]] = None


class ComponentReport(NamedTuple):
    """One listed component: its partition, as blocks of hyperplane indices
    in first-element order, its shape (the sorted (rows, columns) profiles
    of its blocks), the merged representation and what circuit_profile reads
    off it (circuit counts, key, rank)."""

    blocks: tuple[tuple[int, ...], ...]
    shape: tuple[tuple[int, int], ...]
    rep: QuasiRep
    profile: CircuitProfile
    classification: Classification


class DecompositionResult(NamedTuple):
    """A family's listing: component_count components, and a generator that
    builds one report per component, in listing order, as it is read. The
    generator can be read only once."""

    family: str
    params: dict
    hyperplane_labels: tuple[str, ...]
    hyperplane_masks: tuple[int, ...]
    component_count: int
    components: Iterator[ComponentReport]


def _classify(d: int, level: int, profile: CircuitProfile, base_key: tuple) -> Classification:
    """uniform(rank, d) when the small circuits, counted by size, are all
    (rank+1)-subsets of the ground set, or none at all when the rank is the
    level; else equals-base when the key is the base's; else other."""
    rank = profile.rank
    small = {size: count for size, count in ((level - 1, profile.type1), (level, profile.type2)) if count}
    full = 0 if rank == level else comb(d, rank + 1)
    if small == ({rank + 1: full} if full else {}):
        return Classification("uniform", uniform_params=(rank, d))
    if profile.key == base_key:
        return Classification("equals-base")
    hist = count_by_size(level, profile)
    hist[level + 1] = profile.type3
    return Classification("other", histogram=hist)


def _read_code(
    code: Sequence[int], hyp_masks: Sequence[int], rows: int
) -> tuple[list[list[int]], list[int], tuple[tuple[int, int], ...]]:
    """In one pass over an RGS code (code[0] = 0, each entry at most one
    above the largest before it): the blocks of its partition, the positions
    holding each value in order of first appearance; each block's union of
    hyperplanes; and the code's shape, the sorted (x, y) profiles of its
    blocks, x of their positions below rows and y the rest."""
    blocks: list[list[int]] = []
    members: list[int] = []
    below: list[int] = []
    for i, c in enumerate(code):
        if c == len(blocks):
            blocks.append([i])
            members.append(hyp_masks[i])
            below.append(1 if i < rows else 0)
        else:
            blocks[c].append(i)
            members[c] |= hyp_masks[i]
            if i < rows:
                below[c] += 1
    return blocks, members, tuple(sorted([(x, len(block) - x) for x, block in zip(below, blocks)]))


def _decompose(
    hyp_masks: tuple[int, ...], rows: int, d: int, codes: Iterable[Sequence[int]]
) -> Iterator[ComponentReport]:
    """One report per partition code, in the order given, each built as it
    is read. Components are told apart by their circuit_key, which agrees
    exactly when the small circuits do; a key met twice raises
    InvariantViolated. Both families are paving matroids of rank 3, so every
    hypergraph is read at level 3.

    The first `rows` hyperplanes are the rows (or every line) and the rest
    the columns. Permuting the lines, or the rows and the columns separately,
    permutes the ground set and fixes the base. Two codes of one shape (the
    sorted (rows, columns) profiles of their blocks) are carried onto each
    other by such a permutation, and so are their merged representations. So
    a component's circuit counts, rank and classification depend only on its
    shape, and circuit_profile runs once per shape; only the key is computed
    for every component.
    """
    level = 3
    base_key = circuit_key(QuasiRep(d, level, tuple(sorted(hyp_masks, key=sort_key))))
    seen_keys: set[tuple] = set()
    by_shape: dict[tuple, tuple[CircuitProfile, Classification]] = {}
    for code in codes:
        blocks, members, shape = _read_code(code, hyp_masks, rows)
        rep = QuasiRep(d, level, tuple(sorted(members, key=sort_key)))
        first = by_shape.get(shape)
        if first is None:
            profile = circuit_profile(rep)
            first = by_shape[shape] = (profile, _classify(d, level, profile, base_key))
        else:
            profile = first[0]._replace(key=circuit_key(rep))
        if profile.key in seen_keys:
            raise InvariantViolated(f"partition {tuple(code)} merges to a matroid already listed")
        seen_keys.add(profile.key)
        yield ComponentReport(
            blocks=tuple(map(tuple, blocks)), shape=shape, rep=rep, profile=profile, classification=first[1]
        )


def decompose_grid(k: int, l: int, *, budget: int = GRID_ENUM_BUDGET) -> DecompositionResult:
    """Components of the k x l grid (k, l >= 3, k + l within the budget):
    one merged matroid per partition code grid_component_codes yields, in
    RGS-lex order. The count comes from a first walk of the codes, the
    reports from a second."""
    codes = grid_component_codes(k, l)  # checks k, l >= 3 before the budget; lazy
    if k + l > budget:
        raise EnumerationBudgetExceeded("grid hyperplane count", k + l, budget)
    count = sum(1 for _ in codes)
    layout = GridLayout(k, l)
    labels = tuple(f"R{i + 1}" for i in range(k)) + tuple(f"C{j + 1}" for j in range(l))
    hyp_masks = layout.row_masks() + layout.col_masks()
    reports = _decompose(hyp_masks, k, k * l, grid_component_codes(k, l))
    return DecompositionResult("grid", {"k": k, "l": l}, labels, hyp_masks, count, reports)


def decompose_lines(n: int, *, budget: int = LINE_ENUM_BUDGET) -> DecompositionResult:
    """Components of the n-line arrangement (n >= 4, within the budget), in
    RGS-lex order, counted as decompose_grid counts them."""
    codes = line_component_codes(n)  # checks n >= 4 before the budget; lazy
    if n > budget:
        raise EnumerationBudgetExceeded("line count", n, budget)
    count = sum(1 for _ in codes)
    arr = LineArrangement(n)
    labels = tuple(f"L{i + 1}" for i in range(n))
    hyp_masks = arr.line_masks()
    reports = _decompose(hyp_masks, n, arr.point_count, line_component_codes(n))
    return DecompositionResult("lines", {"n": n}, labels, hyp_masks, count, reports)
