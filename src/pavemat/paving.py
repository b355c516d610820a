"""Rank-n paving matroids represented by their dependent hyperplanes.

A collection of subsets of size >= n with pairwise intersections of size at
most n-2 is exactly the dependent-hyperplane system of a rank-n paving
matroid; circuits are the n-subsets of hyperplanes plus the (n+1)-subsets
containing none of those: the level-n construction of
:mod:`pavemat.quasi` on the hyperplanes.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .bitset import as_mask, bits_tuple, canonical_masks
from .errors import DegenerateGround, HyperplaneTooSmall, IntersectionTooLarge, OutOfRange


class PavingMatroid(NamedTuple):
    """Ground size d, rank n, and the canonical list of dependent hyperplanes."""

    d: int
    n: int
    hyperplanes: tuple[int, ...]


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
