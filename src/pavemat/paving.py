"""Rank-n paving matroids represented by their dependent hyperplanes.

A collection of subsets of size >= n with pairwise intersections of size at
most n-2 is exactly the dependent-hyperplane system of a rank-n paving
matroid; circuits are the n-subsets of hyperplanes plus the (n+1)-subsets
containing none of those. The matroid itself is built by
:func:`pavemat.quasi.paving_to_matroid`.

The degree tests (tameness, the nilpotent chain, the degree-one core) read
the elements on at least one, two and three hyperplanes from one pass over
the masks, :func:`pavemat.bitset.overlaps`; only :func:`degrees` counts per
element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .bitset import as_mask, bits_tuple, canonical_masks, overlaps, remap
from .errors import (
    DegenerateGround,
    HyperplaneTooSmall,
    IntersectionTooLarge,
    OutOfRange,
    TooFewHyperplanes,
)


@dataclass(frozen=True)
class PavingMatroid:
    """Ground size d, rank n, and the canonical list of dependent hyperplanes."""

    d: int
    n: int
    hyperplanes: tuple[int, ...]

    @property
    def ground_mask(self) -> int:
        return (1 << self.d) - 1


def _validate_hyperplanes(d: int, n: int, hyperplanes: tuple[int, ...]) -> None:
    for l in hyperplanes:
        if l >> d:
            raise OutOfRange(f"hyperplane {bits_tuple(l)} leaves the ground set [{d}]")
        if l.bit_count() < n:
            raise HyperplaneTooSmall(l, n)
    for i, l1 in enumerate(hyperplanes):
        for l2 in hyperplanes[i + 1 :]:
            if (l1 & l2).bit_count() > n - 2:
                raise IntersectionTooLarge(l1, l2, n - 2)


def paving_from_hyperplanes(d: int, n: int, hyperplanes: Iterable[int | Iterable[int]]) -> PavingMatroid:
    if d < n + 1:
        raise DegenerateGround(f"rank-{n} paving matroid needs d >= {n + 1}, got d={d}")
    canon = canonical_masks(as_mask(l) for l in hyperplanes)
    _validate_hyperplanes(d, n, canon)
    return PavingMatroid(d, n, canon)


def _paving_relaxed(d: int, n: int, hyperplanes: tuple[int, ...]) -> PavingMatroid:
    """Internal constructor for reduction cores: permits d == n when the
    hyperplane list is empty (the free matroid)."""
    canon = canonical_masks(hyperplanes)
    if canon or d > n:
        if d < n + 1:
            raise DegenerateGround(f"rank-{n} paving matroid needs d >= {n + 1}, got d={d}")
    _validate_hyperplanes(d, n, canon)
    return PavingMatroid(d, n, canon)


def degrees(p: PavingMatroid) -> dict[int, int]:
    """deg(e) = number of hyperplanes through e, for every ground element."""
    out = {e: 0 for e in range(p.d)}
    for l in p.hyperplanes:
        m = l
        while m:
            low = m & -m
            m ^= low
            out[low.bit_length() - 1] += 1
    return out


def hyperplanes_through(p: PavingMatroid, e: int) -> list[int]:
    """Indices into p.hyperplanes of the hyperplanes containing e."""
    if e < 0 or e >= p.d:
        raise OutOfRange(f"element {e} outside ground set [{p.d}]")
    bit = 1 << e
    return [i for i, l in enumerate(p.hyperplanes) if l & bit]


def is_tame(p: PavingMatroid) -> bool:
    """Any three hyperplanes meet emptily; for a set system this is the same
    as no element lying on three of them."""
    return not overlaps(p.hyperplanes)[2]


@dataclass(frozen=True)
class NilpotentChain:
    """Stage masks S0 >= S1 >= ... of the iterated restriction to elements of
    degree >= 2; terminates means the chain reached the empty set."""

    stages: tuple[int, ...]
    terminates: bool


def nilpotent_chain(p: PavingMatroid) -> NilpotentChain:
    """Iterate: restrict to the degree->=2 elements, keeping a hyperplane only
    while its surviving part still has size >= n."""
    cur_elems = p.ground_mask
    cur_hyps = p.hyperplanes
    stages: list[int] = []
    while True:
        s = overlaps(cur_hyps)[1]
        stages.append(s)
        if s == 0:
            return NilpotentChain(tuple(stages), True)
        if s == cur_elems:
            return NilpotentChain(tuple(stages), False)
        cur_elems = s
        cur_hyps = tuple(l & s for l in cur_hyps if (l & s).bit_count() >= p.n)


def is_nilpotent(p: PavingMatroid) -> bool:
    return nilpotent_chain(p).terminates


def hyperplane_submatroid(
    p: PavingMatroid, indices: Iterable[int]
) -> tuple[PavingMatroid, tuple[int, ...]]:
    """Paving matroid on the union of the selected hyperplanes, re-indexed.

    Returns (submatroid, elements) with elements[new_index] = old_index.
    The paving intersection bounds are inherited, so no re-validation can fail.
    """
    idx = sorted(set(indices))
    if len(idx) < 2:
        raise TooFewHyperplanes("a hyperplane submatroid needs at least two hyperplanes")
    chosen = [p.hyperplanes[i] for i in idx]
    union = 0
    for l in chosen:
        union |= l
    elements = bits_tuple(union)
    pos = {old: new for new, old in enumerate(elements)}

    # validation cannot fail: sizes and pairwise bounds are inherited, and two
    # hyperplanes alone already span at least n+2 elements
    sub = paving_from_hyperplanes(len(elements), p.n, [remap(l, pos) for l in chosen])
    return sub, elements


@dataclass(frozen=True)
class CoreReduction:
    """Result of deleting degree-<=1 elements until every survivor has degree >= 2.

    core is None when everything was deleted. elements maps the core's new
    indices to original labels. Removals are recorded in deletion order, split
    by the degree at deletion time: degree-1 removals preserve the liftability
    verdict both ways, degree-0 removals only in the liftable direction.
    """

    core: Optional[PavingMatroid]
    elements: tuple[int, ...]
    removed_degree1: tuple[int, ...]
    removed_degree0: tuple[int, ...]


def degree_one_core(p: PavingMatroid) -> CoreReduction:
    """Repeatedly delete the smallest element of degree <= 1; a hyperplane that
    shrinks below n elements stops being one. The surviving structure is
    order-independent, so the ascending order is just for determinism."""
    alive = p.ground_mask
    hyps = list(p.hyperplanes)
    removed1: list[int] = []
    removed0: list[int] = []
    while True:
        once, twice, _ = overlaps(hyps)
        low_degree = alive & ~twice
        if not low_degree:
            break
        bit = low_degree & -low_degree
        alive ^= bit
        (removed1 if bit & once else removed0).append(bit.bit_length() - 1)
        hyps = [h for h in (l & ~bit for l in hyps) if h.bit_count() >= p.n]
    if alive == 0:
        return CoreReduction(None, (), tuple(removed1), tuple(removed0))
    elements = bits_tuple(alive)
    pos = {old: new for new, old in enumerate(elements)}

    core = _paving_relaxed(len(elements), p.n, tuple(remap(l, pos) for l in hyps))
    return CoreReduction(core, elements, tuple(removed1), tuple(removed0))
