"""Concrete families: the k x l grid matroids, the n-line arrangement matroids,
and the determinantal hypergraph they specialize.

Grid cells are numbered column-major: cell(i, j) = j*k + i internally
(0-based), matching the usual 1-based matrix numbering (j-1)*k + i externally.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .bitset import bit_list, canonical_masks, subsets_of_size
from .errors import BadParams, DegenerateGround, EnumerationBudgetExceeded, TooFewLines
from .paving import PavingMatroid, paving_from_hyperplanes

# ci_ideal_generators refuses to list more generators than this; the largest
# allowed CSV export (grid 20x20, s = t = n = 3) takes about 0.8 s on a 2-core
# Xeon VM.
GENERATOR_BUDGET = 50_000


class GridLayout(NamedTuple):
    """Index bookkeeping for a k x l grid of cells."""

    k: int
    l: int

    def cell(self, i: int, j: int) -> int:
        return j * self.k + i

    def row_mask(self, i: int) -> int:
        m = 0
        for j in range(self.l):
            m |= 1 << self.cell(i, j)
        return m

    def col_mask(self, j: int) -> int:
        m = 0
        for i in range(self.k):
            m |= 1 << self.cell(i, j)
        return m

    def row_masks(self) -> tuple[int, ...]:
        return tuple(self.row_mask(i) for i in range(self.k))

    def col_masks(self) -> tuple[int, ...]:
        return tuple(self.col_mask(j) for j in range(self.l))


def ci_hypergraph(k: int, l: int, s: int, t: int) -> tuple[int, ...]:
    """All t-subsets of each row and s-subsets of each column, deduplicated and
    in canonical order."""
    if not (1 <= s <= k) or not (1 <= t <= l):
        raise BadParams(f"need 1 <= s <= k and 1 <= t <= l, got s={s}, k={k}, t={t}, l={l}")
    grid = GridLayout(k, l)
    out: set[int] = set()
    for row in grid.row_masks():
        out.update(subsets_of_size(row, t))
    for col in grid.col_masks():
        out.update(subsets_of_size(col, s))
    return canonical_masks(out)


def grid_matroid(k: int, l: int) -> PavingMatroid:
    """Rank-3 paving matroid on the k x l grid whose hyperplanes are the rows
    and columns with at least 3 cells. Tame by construction: a cell lies in
    one row and one column only."""
    if k < 1 or l < 1:
        raise BadParams(f"grid needs k, l >= 1, got {k}, {l}")
    if k * l < 4:
        raise DegenerateGround(
            f"{k}x{l} grid has only {k * l} cells; rank-3 structure needs at least 4"
        )
    grid = GridLayout(k, l)
    hyps = []
    if l >= 3:
        hyps.extend(grid.row_masks())
    if k >= 3:
        hyps.extend(grid.col_masks())
    return paving_from_hyperplanes(k * l, 3, hyps)


class LineArrangement(NamedTuple):
    """n lines in general position with their pairwise meeting points; the
    points are the unordered index pairs, ranked lexicographically."""

    n: int

    def point_index(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        if i == j or j >= self.n:
            raise BadParams(f"need two distinct line indices below {self.n}")
        # points (0,1), (0,2), ..., (0,n-1), (1,2), ... in lex order
        return i * self.n - i * (i + 1) // 2 + (j - i - 1)

    def line_mask(self, i: int) -> int:
        m = 0
        for j in range(self.n):
            if j != i:
                m |= 1 << self.point_index(i, j)
        return m

    def line_masks(self) -> tuple[int, ...]:
        return tuple(self.line_mask(i) for i in range(self.n))

    @property
    def point_count(self) -> int:
        return self.n * (self.n - 1) // 2


def line_matroid(n: int) -> PavingMatroid:
    """Rank-3 paving matroid of n general-position lines on their C(n,2)
    meeting points; every point lies on exactly two lines."""
    if n < 4:
        raise TooFewLines(f"need at least 4 lines, got {n}")
    arr = LineArrangement(n)
    return paving_from_hyperplanes(arr.point_count, 3, arr.line_masks())


class MinorGenerator(NamedTuple):
    """Row set A and column set B (0-based) of one determinantal generator."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]


def ci_ideal_generators(k: int, l: int, s: int, t: int, n: int) -> list[MinorGenerator]:
    """All (A, B) index pairs with B ranging over the hypergraph and A over the
    equal-sized subsets of [n]."""
    if n < max(s, t):
        raise BadParams(f"need n >= max(s, t) to form square minors, got n={n}")
    if 1 <= s <= k and 1 <= t <= l:  # otherwise ci_hypergraph names the bad parameters
        count = k * comb(l, t) * comb(n, t) + l * comb(k, s) * comb(n, s)
        if count > GENERATOR_BUDGET:
            raise EnumerationBudgetExceeded("ci generators", count, GENERATOR_BUDGET)
    edges = ci_hypergraph(k, l, s, t)
    out: list[MinorGenerator] = []
    for b in edges:
        cols = bit_list(b)
        for rows in combinations(range(n), len(cols)):
            out.append(MinorGenerator(tuple(rows), tuple(cols)))
    return out
