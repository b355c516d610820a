"""Reference checks that the library's fast paths are compared against.

The reference matroids come first: a Matroid backed by a circuit list or an
independence oracle, built from a circuit list (matroid_from_circuits, the
reference for core.check_circuit_list), as the uniform matroid, from the
caps of the three-type construction (quasi_matroid, paving_to_matroid, whose
circuits quasi_circuits lists as masks) and as the paper's CI matroid.

Each check stands beside a closed form that the library runs:

* the paper's generic component criterion (no hyperplane swallowed, every
  merged block non-liftable, from the nilpotent chain and the degree-one
  core), against the closed-form grid and line tests;
* the closed-form grid and line tests on one partition, and the unpruned
  filters over all partitions, against the pruned partition search;
* the recursive partition walks, one generator frame per node, against the
  single-frame enumerate walk and the formula walk's sum: weighted_partitions
  yields the multisets the library sums, with their paths, by another walk
  in another order;
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
from itertools import chain, combinations
from math import comb, factorial
from operator import or_
from typing import Callable, Iterable, Iterator, Optional

from pavemat import MatroidError, QuasiRep, check_circuit_axioms
from pavemat.bitset import (
    as_mask,
    bit_list,
    bits_tuple,
    canonical_masks,
    capped_subsets,
    mask_of,
    overlaps,
    remap,
    sort_key,
    subsets_of_size,
)
from pavemat.counting import ForbiddenProfiles, Vector, _as_vector, _boxed_vectors
from pavemat.errors import BadParams, OutOfRange, RankMismatch
from pavemat.families import GridLayout, ci_hypergraph
from pavemat.paving import PavingMatroid, _paving_relaxed, paving_from_hyperplanes
from pavemat.quasi import CIRCUIT_BUDGET, TameDecomposition, _caps, _circuit_walks, check_circuit_budget

from helpers import NotTame, brute_closure, is_tame, iter_set_partitions


class GroundMismatch(MatroidError):
    pass


class TooFewHyperplanes(MatroidError):
    pass


class NotAFlat(MatroidError):
    def __init__(self, subset: int):
        self.subset = subset
        super().__init__(f"{bits_tuple(subset)} is not a flat")


# -- reference matroids ----------------------------------------------------------


class BadRank(MatroidError):
    pass


class HypothesisViolated(MatroidError):
    def __init__(self, inequality: str):
        self.inequality = inequality
        super().__init__(f"hypothesis violated: {inequality}")


class Matroid:
    """A matroid on {0..d-1}, backed by one of two representations:

    * an explicit canonical circuit list (sorted by size, then
      lexicographically), or
    * an independence oracle (a predicate on masks), optionally with a
      function that lists the circuits when they are first asked for. The
      oracle answers independence queries also once the circuits are
      listed; a matroid given no way to list its circuits refuses to.

    Given no rank_value, the constructor takes the greedy rank of the
    ground set.
    """

    __slots__ = ("d", "rank_value", "_circuits", "_oracle", "_circuit_fn")

    def __init__(
        self,
        d: int,
        rank_value: Optional[int] = None,
        *,
        circuits: Optional[tuple[int, ...]] = None,
        oracle: Optional[Callable[[int], bool]] = None,
        circuit_fn: Optional[Callable[[], tuple[int, ...]]] = None,
    ):
        if circuits is None and oracle is None:
            raise BadParams("a matroid needs circuits or an independence oracle")
        self.d = d
        self._circuits = circuits
        self._oracle = oracle
        self._circuit_fn = circuit_fn
        self.rank_value = self.rank() if rank_value is None else rank_value

    def is_independent(self, s: int | Iterable[int]) -> bool:
        s = as_mask(s)
        if s >> self.d:
            raise OutOfRange(f"subset has elements outside ground set of size {self.d}")
        if self._oracle is not None:
            return self._oracle(s)
        size = s.bit_count()
        for c in self._circuits:
            if c.bit_count() > size:
                return True
            if c & s == c:
                return False
        return True

    def rank(self, s: int | Iterable[int] | None = None) -> int:
        """The size of a maximal independent subset of s (of the ground set
        when s is None), grown greedily in ascending element order."""
        s = (1 << self.d) - 1 if s is None else as_mask(s)
        if s >> self.d:
            raise OutOfRange(f"subset has elements outside ground set of size {self.d}")
        indep = 0
        while s:
            low = s & -s
            s ^= low
            if self.is_independent(indep | low):
                indep |= low
        return indep.bit_count()

    def circuits(self) -> tuple[int, ...]:
        if self._circuits is None:
            if self._circuit_fn is None:
                raise BadParams("a matroid given only an independence oracle cannot list its circuits")
            self._circuits = self._circuit_fn()
        return self._circuits


def matroid_from_circuits(d: int, rank_value: Optional[int], circuits: Iterable[int | Iterable[int]]) -> Matroid:
    """The matroid of a (possibly unsorted, possibly duplicated) circuit
    list, checked in core.check_circuit_list's order: the ground set, then
    the circuit axioms, then the declared rank against the Matroid's greedy
    rank."""
    canon = canonical_masks(as_mask(c) for c in circuits)
    for c in canon:
        if c >> d:
            raise OutOfRange(f"circuit {bits_tuple(c)} leaves the ground set [{d}]")
    check_circuit_axioms(d, canon)
    m = Matroid(d, circuits=canon)
    if rank_value is not None and rank_value != m.rank_value:
        raise RankMismatch(rank_value, m.rank_value)
    return m


def uniform(n: int, d: int) -> Matroid:
    """The uniform matroid of rank n on d elements: every (n+1)-subset is a
    circuit, listed up to CIRCUIT_BUDGET of them, or else an oracle alone."""
    if n < 0 or n > d:
        raise BadRank(f"uniform matroid needs 0 <= n <= d, got n={n}, d={d}")
    if comb(d, n + 1) > CIRCUIT_BUDGET:
        return Matroid(d, n, oracle=lambda s: s.bit_count() <= n)
    return Matroid(d, n, circuits=tuple(subsets_of_size((1 << d) - 1, n + 1)))


def cap_oracle(r: int, caps: Iterable[tuple[int, int]]) -> Callable[[int], bool]:
    """The predicate of the sets bitset.capped_subsets lists at every size up
    to r: a mask is accepted when it has at most r elements and fewer than t
    elements of each capped mask, for every (mask, t) in caps."""
    caps = tuple(caps)

    def accepts(s: int) -> bool:
        return s.bit_count() <= r and all((s & mask).bit_count() < t for mask, t in caps)

    return accepts


def quasi_circuits(rep: QuasiRep, *, budget: int = CIRCUIT_BUDGET) -> tuple[int, ...]:
    """Every circuit of the three-type construction in canonical order, as
    masks from the walks that quasi.circuit_rows writes as text, refused by
    quasi.check_circuit_budget."""
    check_circuit_budget(rep, budget)
    walks = _circuit_walks(rep, _caps(rep))
    return tuple(chain.from_iterable(capped_subsets(*walk) for walk in walks))


def quasi_matroid(rep: QuasiRep, *, budget: int = CIRCUIT_BUDGET) -> Matroid:
    """The matroid of the three-type construction, in oracle mode with lazy
    circuit materialization under the budget."""
    return Matroid(
        rep.d,
        oracle=cap_oracle(rep.n, _caps(rep)),
        circuit_fn=lambda: quasi_circuits(rep, budget=budget),
    )


def paving_to_matroid(p: PavingMatroid, *, budget: int = CIRCUIT_BUDGET) -> Matroid:
    """The paving matroid itself, as the level-n construction of its
    hyperplanes. The members are not checked for tameness, which the
    construction's caps do not need."""
    return quasi_matroid(QuasiRep(p.d, p.n, p.hyperplanes), budget=budget)


def ci_matroid(k: int, l: int, s: int, t: int, n: int) -> Matroid:
    """The paper's CI matroid, whose generators ci-generators exports: its
    circuits are families.ci_hypergraph's edges and the (n+1)-sets holding
    none of them, so a set is independent when it has at most n cells, fewer
    than t in each row and fewer than s in each column. Every edge is
    minimal, since a row and a column share one cell and s >= 3. Realizable
    within the stated parameter window."""
    for name, ok in (
        ("3 <= s", 3 <= s),
        ("s <= t", s <= t),
        ("t <= l", t <= l),
        ("s <= k", s <= k),
        ("t <= n", t <= n),
        ("n <= s+t-3", n <= s + t - 3),
    ):
        if not ok:
            raise HypothesisViolated(name)
    grid = GridLayout(k, l)
    caps = [(row, t) for row in grid.row_masks()] + [(col, s) for col in grid.col_masks()]
    d = k * l

    def materialize() -> tuple[int, ...]:
        if comb(d, n + 1) > CIRCUIT_BUDGET:
            raise BadParams(f"too many circuits to materialize for d={d}, n={n}")
        return ci_hypergraph(k, l, s, t) + tuple(capped_subsets((1 << d) - 1, n + 1, caps))

    return Matroid(d, oracle=cap_oracle(n, caps), circuit_fn=materialize)


def matroid_file(m: Matroid) -> dict:
    """The dict of a matroid file (validate's input) holding m's circuits."""
    return {"d": m.d, "rank": m.rank_value, "circuits": [bit_list(c, 1) for c in m.circuits()]}


def slow_ci_matroid(k: int, l: int, s: int, t: int, n: int) -> Matroid:
    """The CI matroid built without caps: the t-cell sets of each row and the
    s-cell sets of each column (cell (i, j) is j*k + i), filtered to the
    inclusion-minimal ones, then every (n+1)-set scanned for one of them.
    Assumes the parameters satisfy ci_matroid's hypotheses."""
    lines = [([j * k + i for j in range(l)], t) for i in range(k)]
    lines += [([j * k + i for i in range(k)], s) for j in range(l)]
    edges = {mask_of(c) for cells, size in lines for c in combinations(cells, size)}
    minimal = sorted(
        (e for e in edges if not any(o != e and o & e == o for o in edges)), key=sort_key
    )
    d = k * l

    def contains_edge(mask: int) -> bool:
        return any(e & mask == e for e in minimal)

    def oracle(mask: int) -> bool:
        return mask.bit_count() <= n and not contains_edge(mask)

    def materialize() -> tuple[int, ...]:
        big = map(sum, combinations([1 << e for e in range(d)], n + 1))
        return tuple(minimal) + tuple(m for m in big if not contains_edge(m))

    return Matroid(d, oracle=oracle, circuit_fn=materialize)




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


# -- the closed-form component tests and the unpruned partition filters ---------


def is_grid_component_partition(k: int, l: int, blocks: Iterable[Iterable[int]]) -> bool:
    """Closed-form test over the k+l grid hyperplanes (rows 0..k-1, then
    columns k..k+l-1): every block of size >= 2 needs at least 3 rows, at
    least 3 columns and a side of at least 4; and unless the partition is
    trivial, no block may swallow all rows or all columns."""
    blocks = [list(b) for b in blocks]
    many = len(blocks) > 1
    for block in blocks:
        if len(block) < 2:
            continue
        r = sum(1 for h in block if h < k)
        c = len(block) - r
        if r < 3 or c < 3 or max(r, c) < 4:
            return False
        if many and (r == k or c == l):
            return False
    return True


def is_line_component_partition(n: int, blocks: Iterable[Iterable[int]]) -> bool:
    """Closed-form test over the n line hyperplanes: no block may have size 2,
    3, or n-1."""
    return all(len(list(b)) not in (2, 3, n - 1) for b in blocks)



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


def weighted_partitions(
    tgt: Vector, forbidden: ForbiddenProfiles
) -> Iterator[tuple[tuple | None, int]]:
    """Each multiset of allowed nonzero vectors summing to tgt, once, as
    (path, denom). path links the (vector, multiplicity) choices from the
    smallest part back to the largest, (v, m, rest) down to None; denom is
    the product of v!^m * m! over them, v! being the product of the
    factorials of v's coordinates.

    The walk takes every allowed part, singletons included, in decreasing
    lexicographic order, and at the last part that can fill a coordinate
    takes the multiplicity that empties it, forced, in one step. Its leaves
    are the multisets that counting._partition_sum sums tgt!/denom over,
    there one per node of a walk over the non-singleton parts, so it checks
    that walk without mirroring it.
    """
    vecs = sorted((v for v in _boxed_vectors(tgt) if forbidden.allows(v)), reverse=True)
    pairs = [(v[0], v[1] if forbidden.dim == 2 else 0) for v in vecs]
    ra, rb = tgt[0], tgt[1] if forbidden.dim == 2 else 0
    tables = []  # per part, v!^m * m! at index m
    for a, b in pairs:
        f = factorial(a) * factorial(b)
        row = [1]
        for m in range(1, min(ra // a if a else rb, rb // b if b else ra) + 1):
            row.append(row[-1] * f * m)
        tables.append(row)
    neg_a = [-a for a, _ in pairs]  # ascending, for bisect
    n = len(pairs)
    last_a = sum(1 for a, _ in pairs if a) - 1  # the parts with a > 0 come first
    last_b = max((i for i, (_, b) in enumerate(pairs) if b), default=-1)

    def rec(ra: int, rb: int, start: int, path, denom: int) -> Iterator[tuple[tuple | None, int]]:
        stop = min(last_a + 1 if ra else n, last_b + 1 if rb else n)
        for idx in range(max(start, bisect_left(neg_a, -ra)), stop):
            a, b = pairs[idx]
            if b > rb:
                continue
            v, row = vecs[idx], tables[idx]
            if idx == last_a or idx == last_b:
                m = ra // a if idx == last_a else rb // b
                ma, mb = ra - m * a, rb - m * b
                if ma < 0 or mb < 0 or idx == last_a and ma or idx == last_b and mb:
                    continue
                if ma or mb:
                    yield from rec(ma, mb, idx + 1, (v, m, path), denom * row[m])
                else:
                    yield (v, m, path), denom * row[m]
                continue
            m, ma, mb = 1, ra - a, rb - b
            while ma >= 0 and mb >= 0:
                if ma or mb:
                    yield from rec(ma, mb, idx + 1, (v, m, path), denom * row[m])
                else:
                    yield (v, m, path), denom * row[m]
                m += 1
                ma -= a
                mb -= b

    return rec(ra, rb, 0, None, 1) if ra or rb else iter([(None, 1)])


def recursive_weighted_partitions(
    tgt: Vector, forbidden: ForbiddenProfiles
) -> Iterator[tuple[tuple | None, int]]:
    """weighted_partitions stepping every multiplicity m = 1, 2, ...
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
