"""Reference checks that the library's fast paths are compared against.

Each stands beside a closed form that the library runs:

* the paper's generic component criterion (no hyperplane swallowed, every
  merged block non-liftable, from the nilpotent chain and the degree-one
  core), against the closed-form grid and line tests;
* the unpruned partition filters, against the pruned partition search;
* the recursive partition walks, one generator frame per node, against the
  single-frame walks of the enumerate and formula routes;
* the replay of decompose_to_tame's peeling by principal extensions, against
  the construction's independence predicate;
* the dependency order and uniformity, read off circuits and independence;
* the hyperplane degree of each element, against the tameness test.

The matroid operations here work on small grounds only: bases, deletion and
relabelling are read off the circuit list, and closure comes from
helpers.brute_closure.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import combinations
from math import factorial
from operator import or_
from typing import Callable, Iterable, Iterator, Optional

from pavemat import Matroid, MatroidError, QuasiRep
from pavemat.bitset import as_mask, bits_tuple, canonical_masks, overlaps, remap, sort_key, subsets_of_size
from pavemat.counting import ForbiddenProfiles, Vector, _as_vector, _boxed_vectors
from pavemat.decomposition import is_grid_component_partition, is_line_component_partition
from pavemat.errors import NotTame, OutOfRange
from pavemat.paving import PavingMatroid, _paving_relaxed, is_tame, paving_from_hyperplanes
from pavemat.quasi import TameDecomposition, paving_to_matroid

from helpers import brute_closure, iter_set_partitions


class GroundMismatch(MatroidError):
    pass


class TooFewHyperplanes(MatroidError):
    pass


class NotAFlat(MatroidError):
    def __init__(self, subset: int):
        self.subset = subset
        super().__init__(f"{bits_tuple(subset)} is not a flat")


# -- matroid operations on small grounds ----------------------------------------


def search_circuits(d: int, rank: int, independent: Callable[[int], bool]) -> tuple[int, ...]:
    """The minimal dependent sets of an independence predicate of the given
    rank, by a size-graded search, in canonical order."""
    found: list[int] = []
    for r in range(1, rank + 2):
        for m in subsets_of_size((1 << d) - 1, r):
            if not independent(m) and not any(c & m == c for c in found):
                found.append(m)
    return tuple(sorted(found, key=sort_key))


def bases(m: Matroid) -> tuple[int, ...]:
    return tuple(s for s in subsets_of_size((1 << m.d) - 1, m.rank_value) if m.is_independent(s))


def delete(m: Matroid, z: int | Iterable[int]) -> tuple[Matroid, tuple[int, ...]]:
    """Delete z: the circuits avoiding z, re-indexed; returns the matroid plus
    kept[new_index] = old_index."""
    z = as_mask(z)
    kept = tuple(e for e in range(m.d) if not (z >> e) & 1)
    pos = {old: new for new, old in enumerate(kept)}
    return Matroid(len(kept), circuits=tuple(remap(c, pos) for c in m.circuits() if c & z == 0)), kept


def relabel(m: Matroid, perm: tuple[int, ...]) -> Matroid:
    """Apply the permutation old_index -> perm[old_index] to all labels."""
    return Matroid(m.d, m.rank_value, circuits=canonical_masks(remap(c, perm) for c in m.circuits()))


def is_uniform(m: Matroid) -> Optional[tuple[int, int]]:
    """(n, d) when m is exactly the labeled uniform matroid, else None: every
    rank-sized set is independent and no larger one is."""
    r, ground = m.rank_value, (1 << m.d) - 1
    if all(map(m.is_independent, subsets_of_size(ground, r))) and not any(
        map(m.is_independent, subsets_of_size(ground, r + 1))
    ):
        return (r, m.d)
    return None


@dataclass(frozen=True)
class DependencyVerdict:
    """Outcome of a dependency-order comparison; witness is a circuit of the
    smaller matroid that stays independent in the larger one."""

    leq: bool
    witness: Optional[int]


def dependency_leq(n1: Matroid, n2: Matroid) -> DependencyVerdict:
    """Decide n2 >= n1 in the dependency order: every dependent set of n1 is
    dependent in n2, equivalently every circuit of n1 is dependent in n2."""
    if n1.d != n2.d:
        raise GroundMismatch(f"ground sizes differ: {n1.d} vs {n2.d}")
    for c in n1.circuits():
        if n2.is_independent(c):
            return DependencyVerdict(False, c)
    return DependencyVerdict(True, None)


# -- the replay of decompose_to_tame ---------------------------------------------


def principal_extension(m: Matroid, flat: int | Iterable[int]) -> Matroid:
    """Add a new element (index d) freely inside the given flat: the bases are
    those of m plus every (basis - b) + new for b ranging over basis & flat."""
    flat = as_mask(flat)
    if brute_closure(m.circuits(), flat, m.d) != flat:
        raise NotAFlat(flat)
    old = bases(m)
    new_bit = 1 << m.d
    extended = set(old)
    for lam in old:
        for e in bits_tuple(lam & flat):
            extended.add((lam ^ (1 << e)) | new_bit)

    def independent(s: int) -> bool:
        return any(s & b == s for b in extended)

    return Matroid(m.d + 1, m.rank_value, circuits=search_circuits(m.d + 1, m.rank_value, independent))


def replay_extensions(dec: TameDecomposition, d: int) -> Matroid:
    """Rebuild the represented matroid on the original ground set [d] by
    re-adding the peeled elements in reverse order via principal extensions."""
    current = paving_to_matroid(dec.core)
    labels = list(dec.core_elements)
    for step in reversed(dec.steps):
        pos = {old: new for new, old in enumerate(labels)}
        current = principal_extension(current, remap(step.flat, pos))
        labels.append(step.element)
    if len(labels) != d:
        raise OutOfRange("replay did not restore the full ground set")
    return relabel(current, tuple(labels))


def quasi_deletion(rep: QuasiRep, z: int | Iterable[int]) -> tuple[QuasiRep, tuple[int, ...]]:
    """Delete z from the ground set: each member just loses those elements.
    Returns the re-indexed representation plus kept[new_index] = old_index."""
    z = as_mask(z)
    kept = tuple(e for e in range(rep.d) if not (z >> e) & 1)
    pos = {old: new for new, old in enumerate(kept)}
    new_members = tuple(sorted((remap(h & ~z, pos) for h in rep.members), key=sort_key))
    return QuasiRep(len(kept), rep.n, new_members), kept


def pairwise_intersection_flats(rep: QuasiRep) -> list[tuple[int, int, int]]:
    """(i, j, intersection) for every nonempty pairwise intersection of at
    least n-2 elements; each such set is a flat of the matroid, uniform of
    rank n-2."""
    threshold = max(rep.n - 2, 1)
    pairs = combinations(enumerate(rep.members), 2)
    return [(i, j, a & b) for (i, a), (j, b) in pairs if (a & b).bit_count() >= threshold]


# -- the generic component criterion ---------------------------------------------


def degrees(p: PavingMatroid) -> dict[int, int]:
    """deg(e) = number of hyperplanes through e, for every ground element."""
    return {e: sum(1 for l in p.hyperplanes if l >> e & 1) for e in range(p.d)}


@dataclass(frozen=True)
class NilpotentChain:
    """Stage masks S0 >= S1 >= ... of the iterated restriction to elements of
    degree >= 2; terminates means the chain reached the empty set."""

    stages: tuple[int, ...]
    terminates: bool


def nilpotent_chain(p: PavingMatroid) -> NilpotentChain:
    """Iterate: restrict to the degree->=2 elements, keeping a hyperplane only
    while its surviving part still has size >= n."""
    cur_elems = (1 << p.d) - 1
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


def hyperplane_submatroid(p: PavingMatroid, indices: Iterable[int]) -> tuple[PavingMatroid, tuple[int, ...]]:
    """Paving matroid on the union of the selected hyperplanes, re-indexed.

    Returns (submatroid, elements) with elements[new_index] = old_index.
    The paving intersection bounds are inherited, so no re-validation can fail.
    """
    idx = sorted(set(indices))
    if len(idx) < 2:
        raise TooFewHyperplanes("a hyperplane submatroid needs at least two hyperplanes")
    chosen = [p.hyperplanes[i] for i in idx]
    elements = bits_tuple(reduce(or_, chosen))
    pos = {old: new for new, old in enumerate(elements)}
    # two hyperplanes alone already span at least n+2 elements
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
    alive = (1 << p.d) - 1
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


class Liftability(Enum):
    LIFTABLE = "liftable"
    NOT_LIFTABLE = "not-liftable"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class LiftabilityVerdict:
    status: Liftability
    reason: str


def _grid_core_shape(p: PavingMatroid) -> Optional[tuple[int, int]]:
    """(a, b) when p is exactly an a x b grid matroid up to labels: the
    hyperplanes split into two pairwise-disjoint families, cross pairs meet in
    exactly one element, and every element has degree two."""
    hyps = p.hyperplanes
    m = len(hyps)
    if m < 2:
        return None
    _, twice, thrice = overlaps(hyps)
    if twice != (1 << p.d) - 1 or thrice:
        return None
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(m):
        for j in range(i + 1, m):
            if not hyps[i] & hyps[j]:
                parent[find(i)] = find(j)
    comps: dict[int, list[int]] = {}
    for i in range(m):
        comps.setdefault(find(i), []).append(i)
    if len(comps) != 2:
        return None
    side_a, side_b = comps.values()
    for side in (side_a, side_b):
        for x, y in combinations(side, 2):
            if hyps[x] & hyps[y]:
                return None
    for i in side_a:
        for j in side_b:
            if (hyps[i] & hyps[j]).bit_count() != 1:
                return None
    return (len(side_a), len(side_b))


def _line_core_shape(p: PavingMatroid) -> Optional[int]:
    """m when p is the m-line arrangement matroid up to labels: every element
    has degree two and any two hyperplanes meet in exactly one element."""
    hyps = p.hyperplanes
    if len(hyps) < 4:
        return None
    _, twice, thrice = overlaps(hyps)
    if twice != (1 << p.d) - 1 or thrice:
        return None
    if any((a & b).bit_count() != 1 for a, b in combinations(hyps, 2)):
        return None
    return len(hyps)


def liftability_oracle(p: PavingMatroid) -> LiftabilityVerdict:
    """Liftability by the proven closed-form verdicts only.

    Nilpotent systems are liftable. Otherwise the degree-<=1 reduction core is
    examined: grid cores are liftable exactly for the 3 x 3 shape, line cores
    of at least four lines are not liftable. Degree-1 removals transport the
    verdict both ways; degree-0 removals transport only the liftable
    direction, so a negative core verdict behind one is reported as unknown.
    """
    if is_nilpotent(p):
        return LiftabilityVerdict(Liftability.LIFTABLE, "nilpotent")
    red = degree_one_core(p)
    if red.core is None:
        return LiftabilityVerdict(Liftability.LIFTABLE, "degree-one-collapse")
    if red.core.n != 3:
        # the grid and line verdicts are rank-3 facts
        return LiftabilityVerdict(Liftability.UNKNOWN, f"core-rank({red.core.n})")
    shape = _grid_core_shape(red.core)
    if shape is not None:
        a, b = shape
        if a == 3 and b == 3:
            return LiftabilityVerdict(Liftability.LIFTABLE, "grid-core(3,3)")
        if min(a, b) < 3:
            return LiftabilityVerdict(Liftability.UNKNOWN, f"small-grid-core({a},{b})")
        if red.removed_degree0:
            return LiftabilityVerdict(Liftability.UNKNOWN, f"grid-core({a},{b})-behind-degree-0")
        return LiftabilityVerdict(Liftability.NOT_LIFTABLE, f"grid-core({a},{b})")
    lines = _line_core_shape(red.core)
    if lines is not None:
        if red.removed_degree0:
            return LiftabilityVerdict(Liftability.UNKNOWN, f"line-core({lines})-behind-degree-0")
        return LiftabilityVerdict(Liftability.NOT_LIFTABLE, f"line-core({lines})")
    return LiftabilityVerdict(Liftability.UNKNOWN, "unrecognized-core")


def is_component_partition(p: PavingMatroid, blocks: list[list[int]]) -> Optional[bool]:
    """Generic test on a partition of p's hyperplane indices, given as its
    blocks: no outside hyperplane may fall inside a block's union, and every
    block of two or more hyperplanes must be non-liftable. None when the
    liftability oracle cannot decide some block."""
    if not is_tame(p):
        raise NotTame("component partitions are defined for tame bases only")
    for block in blocks:
        union = reduce(or_, (p.hyperplanes[i] for i in block))
        for idx, l in enumerate(p.hyperplanes):
            if idx not in block and l & union == l:
                return False
    unknown = False
    for block in blocks:
        if len(block) < 2:
            continue
        sub, _ = hyperplane_submatroid(p, block)
        verdict = liftability_oracle(sub)
        if verdict.status is Liftability.LIFTABLE:
            return False
        if verdict.status is Liftability.UNKNOWN:
            unknown = True
    return None if unknown else True


# -- the unpruned partition filters ----------------------------------------------


def grid_component_partitions(k: int, l: int) -> Iterator[list[list[int]]]:
    """Plain filter over all partitions of the k+l hyperplanes, in RGS-lex
    order; the unpruned cross-check of the counting routes."""
    return (b for b in iter_set_partitions(k + l) if is_grid_component_partition(k, l, b))


def line_component_partitions(n: int) -> Iterator[list[list[int]]]:
    return (b for b in iter_set_partitions(n) if is_line_component_partition(n, b))


# -- the recursive partition walks -----------------------------------------------


def recursive_admissible_codes(
    target: int | Vector, forbidden: ForbiddenProfiles
) -> Iterator[tuple[int, ...]]:
    """counting.admissible_codes as one generator per node: the same tables,
    the same summed-deficit rule and its recomputation at the first sort-1
    item, each leaf passed up through every frame above it."""
    tgt = _as_vector(target, forbidden.dim)
    a, b = tgt[0], tgt[1] if forbidden.dim == 2 else 0
    m, width = a + b, b + 1

    def deficit(flags: list[bool]) -> list[int]:
        out, dist = [], m + 1
        for ok in reversed(flags):
            dist = 0 if ok else dist + 1
            out.append(dist)
        return out[::-1]

    allowed = [
        [forbidden.allows((x, y)[: forbidden.dim]) for y in range(width)] for x in range(a + 1)
    ]
    owe0 = [owe for owe in deficit([any(row) for row in allowed]) for _ in range(width)]
    owe1 = [owe for row in allowed for owe in deficit(row)]
    code = [0] * m
    blocks: list[int] = []

    def place(pos: int, owed: int) -> Iterator[tuple[int, ...]]:
        if pos == m:
            yield tuple(code)
            return
        if pos == a:
            owed = sum(owe1[p] for p in blocks)
        if pos < a:
            owe, step, left = owe0, width, a - pos - 1
        else:
            owe, step, left = owe1, 1, m - pos - 1
        for j, p in enumerate(blocks):
            after = owed - owe[p] + owe[p + step]
            if after <= left:
                blocks[j] = p + step
                code[pos] = j
                yield from place(pos + 1, after)
                blocks[j] = p
        after = owed + owe[step]
        if after <= left:
            code[pos] = len(blocks)
            blocks.append(step)
            yield from place(pos + 1, after)
            blocks.pop()

    yield from place(0, 0)


def recursive_weighted_partitions(
    tgt: Vector, forbidden: ForbiddenProfiles
) -> Iterator[tuple[tuple | None, int]]:
    """counting._weighted_partitions stepping every multiplicity m = 1, 2, ...
    with one multiply each, testing at each step whether later parts can fill
    what is left, and recursing into every leaf."""
    vecs = sorted((v for v in _boxed_vectors(tgt) if forbidden.allows(v)), reverse=True)
    pairs = [(v[0], v[1] if forbidden.dim == 2 else 0) for v in vecs]
    facts = [factorial(a) * factorial(b) for a, b in pairs]
    neg_a = [-a for a, _ in pairs]
    n_a = sum(1 for a, _ in pairs if a)
    last_b = max((i for i, (_, b) in enumerate(pairs) if b), default=-1)

    def rec(ra: int, rb: int, start: int, path, denom: int) -> Iterator[tuple[tuple | None, int]]:
        if not ra and not rb:
            yield path, denom
            return
        for idx in range(max(start, bisect_left(neg_a, -ra)), len(pairs)):
            a, b = pairs[idx]
            if b > rb:
                continue
            v, f = vecs[idx], facts[idx]
            fill_a, fill_b = idx + 1 < n_a, idx < last_b
            m, d, ma, mb = 1, denom * f, ra - a, rb - b
            while ma >= 0 and mb >= 0:
                if (fill_a or not ma) and (fill_b or not mb):
                    yield from rec(ma, mb, idx + 1, (v, m, path), d)
                m += 1
                d *= f * m
                ma -= a
                mb -= b

    return rec(tgt[0], tgt[1] if forbidden.dim == 2 else 0, 0, None, 1)
