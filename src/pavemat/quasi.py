"""Matroids from hypergraphs with empty triple intersections.

Given subsets H_1..H_k of a ground set with any three of them meeting emptily
and a level n >= 2, the circuits are

* type 1: (n-1)-subsets of a pairwise intersection H_i & H_j,
* type 2: n-subsets of some H_i containing no type-1 set,
* type 3: (n+1)-subsets containing neither.

Every rank-n paving matroid, tame or not, is the level-n construction of its
own hyperplane system: hyperplanes share at most n-2 elements, so there are no
type-1 circuits, and types 2 and 3 are its n- and (n+1)-circuits. Every
level-n instance of full rank n is a chain of principal extensions over
rank-(n-2) flats of a tame paving core; this module implements the
construction and the reduction to that core (decompose_to_tame), whose steps
name the flats. The tests replay the steps by principal extensions.

Each circuit condition is a cap (mask, t): a set of at most n elements is
independent exactly when it holds fewer than t elements of every cap. The
caps are (I, n-1) for each pairwise intersection I of at least n-1 elements
and (H, n) for each member H of at least n elements (_caps); the circuit
walks read that one list.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .bitset import as_mask, bit_list, bits_tuple, capped_rows, capped_subsets, overlaps, remap, sort_key
from .errors import LevelTooSmall, OutOfRange, RankDeficient, TooLarge, TripleIntersection
from .paving import PavingMatroid, _paving_relaxed

# Circuit lists are refused when their candidate estimate passes this (a k*l
# grid has Theta((kl)^4) size-4 circuits).
CIRCUIT_BUDGET = 5_000_000


class QuasiRep(NamedTuple):
    """Hypergraph representation: ground size d, level n, members in canonical
    order (equal members are kept, their multiplicity matters)."""

    d: int
    n: int
    members: tuple[int, ...]


def quasi_rep(d: int, n: int, members: Iterable[int | Iterable[int]]) -> QuasiRep:
    """Validated constructor. Levels above the ground size are permitted (the
    construction then has no circuits of the small types)."""
    if n < 2:
        raise LevelTooSmall(f"level must be >= 2, got {n}")
    mem = tuple(sorted((as_mask(h) for h in members), key=sort_key))
    seen = 0
    twice = 0
    for idx, h in enumerate(mem):
        if h >> d:
            raise OutOfRange(f"member {bits_tuple(h)} leaves the ground set [{d}]")
        tri = twice & h
        if tri:
            e = (tri & -tri).bit_length() - 1
            owners = [i for i, m in enumerate(mem) if (m >> e) & 1]
            raise TripleIntersection(owners[0], owners[1], owners[2], e)
        twice |= seen & h
        seen |= h
    return QuasiRep(d, n, mem)


def _intersections(members: Sequence[int]) -> list[tuple[int, int, int]]:
    """(i, j, I) for every nonempty intersection I of members i < j, in order."""
    out = []
    for i, h in enumerate(members):
        for j in range(i + 1, len(members)):
            inter = h & members[j]
            if inter:
                out.append((i, j, inter))
    return out


def _caps(rep: QuasiRep) -> list[tuple[int, int]]:
    """The binding caps of the construction, type 1 first: (I, n-1) for each
    pairwise intersection I of at least n-1 elements, then (H, n) for each
    member H of at least n elements. A smaller mask binds no set of at most n
    elements."""
    n = rep.n
    type1 = [(inter, n - 1) for _, _, inter in _intersections(rep.members) if inter.bit_count() >= n - 1]
    return type1 + [(h, n) for h in rep.members if h.bit_count() >= n]


def _cells(rep: QuasiRep) -> list[tuple[int, int, tuple[int, ...]]]:
    """The cells of a tame representation as (size, cap, owners): the elements
    in no member, each member's private part, and each nonempty pairwise
    intersection, with the indices of the members holding the cell. No element
    lies in three members, so the cells partition the ground set. A type-3
    circuit takes at most cap elements from a cell: an intersection holds no
    type-1 circuit, so at most n-2 of its elements."""
    n, members = rep.n, rep.members
    once, twice, _ = overlaps(members)
    cells = [((((1 << rep.d) - 1) & ~once).bit_count(), n + 1, ())]
    cells += [((h & ~twice).bit_count(), n + 1, (i,)) for i, h in enumerate(members)]
    cells += [(inter.bit_count(), n - 2, (i, j)) for i, j, inter in _intersections(members)]
    return cells


def _binomial_row(size: int, top: int) -> list[int]:
    """C(size, t) for t from 0 to min(size, top)."""
    row = [1]
    for t in range(min(size, top)):
        row.append(row[t] * (size - t) // (t + 1))
    return row


def _subset_counts(cells: list[tuple[int, int, tuple[int, ...]]], top: int) -> list[int]:
    """Coefficients 0..top of the product over the cells (size, cap, owners)
    of the sum over t <= cap of C(size, t) x^t: the sets of each size up to
    top that take at most cap elements from each cell. Up to degree top, a
    cell whose cap reaches its size or top gives the whole row (1+x)^size,
    so those cells fold into one row; each other cell is multiplied in over
    the coefficients reached so far."""
    out = _binomial_row(sum(size for size, cap, _ in cells if cap >= min(size, top)), top)
    for size, cap, _ in cells:
        if cap < min(size, top):
            new = [0] * min(len(out) + cap, top + 1)
            for t, a in enumerate(_binomial_row(size, cap)):
                for s, b in enumerate(out[: top + 1 - t]):
                    new[s + t] += a * b
            out = new
    return out + [0] * (top + 1 - len(out))


def _circuit_walks(rep: QuasiRep, caps: list[tuple[int, int]]) -> list[tuple]:
    """The capped_subsets arguments (ground, r, caps, within) of the three
    walks that list rep's circuits, read from the caps of rep, in canonical
    order: the type-1 circuits, the (n-1)-subsets lying within one
    qualifying intersection; the type-2 circuits, the n-subsets lying within
    one member of at least n elements under the type-1 caps; the type-3
    circuits, the (n+1)-subsets under every cap. Each type has one size and
    comes from one lexicographic walk, so no sort is needed."""
    n, ground = rep.n, (1 << rep.d) - 1
    type1 = [cap for cap in caps if cap[1] == n - 1]
    return [
        (ground, n - 1, (), [inter for inter, _ in type1]),
        (ground, n, type1, [h for h, t in caps if t == n]),
        (ground, n + 1, caps, None),
    ]


def small_circuits(rep: QuasiRep) -> frozenset[int]:
    """The circuits of size <= n (types 1 and 2). Together with the level these
    determine the whole dependence predicate, since type 3 is definitionally
    the complement closure; two representations give the same labeled matroid
    exactly when these sets (and d, n) agree."""
    type1, type2, _ = _circuit_walks(rep, _caps(rep))
    return frozenset(capped_subsets(*type1) + capped_subsets(*type2))


class CircuitProfile(NamedTuple):
    """What circuit_profile reads off the cells: a key equal for two tame
    representations of one ground size and level exactly when their small
    circuits agree, the number of circuits of each type, and the rank."""

    key: tuple
    type1: int
    type2: int
    type3: int
    rank: int


def circuit_key(rep: QuasiRep) -> tuple:
    """A key equal for two tame representations of one ground size and level
    exactly when their small circuits agree, read off the cell sizes alone.

    The qualifying intersections I are those of at least n-1 elements; the
    type-1 circuits are their (n-1)-subsets. The type-2 circuits of member H
    are its n-subsets that take at most cap elements from each of its cells
    (_cells: n+1 from its private part, n-2 from each intersection); no set
    is type-2 in two members, since it would have n elements in their
    intersection. H is active when it has type-2 circuits, that is when the
    sum of min(|cell|, cap) over its cells is at least n: the sets that take
    at most cap elements from each cell reach every size up to that sum.

    The key is (sorted I, sorted active H) for n >= 3, and (U, sorted H - U
    over the active H) for n = 2, where U is the union of the I. It fixes the
    small circuits: an I meeting H lies in H, since no element is in three
    members. Conversely the small circuits fix the key:

    * the I are disjoint; for n >= 3 the (n-1)-subsets of one I, of two or
      more elements each, are linked by overlaps, so the I are the unions of
      the classes of overlapping type-1 circuits; for n = 2 the type-1
      circuits are the loops, whose union is U;
    * the type-2 circuits of H are the bases of a rank-n truncation of a
      partition matroid, so they are linked by exchanges that keep n-1
      elements (Oxley, Matroid Theory, base exchange), while two type-2
      circuits of different members share at most n-2 elements;
    * every element x of an active H (of H - U at n = 2) lies in one of its
      type-2 circuits: add x to one and drop an element of x's cell, or any
      other element when x's cell is below its cap.

    So the active H (the H - U at n = 2) are the unions of the classes of
    type-2 circuits linked by exchanges.
    """
    n, members = rep.n, rep.members
    twice = overlaps(members)[1]
    reach = [min((h & ~twice).bit_count(), n + 1) for h in members]
    qualifying = []
    for i, j, inter in _intersections(members):
        size = inter.bit_count()
        if size >= n - 1:
            qualifying.append(inter)
        reach[i] += min(size, n - 2)
        reach[j] += min(size, n - 2)
    qualifying.sort()
    active = sorted(h for h, r in zip(members, reach) if r >= n)
    if n == 2:
        loops = sum(qualifying)
        return (loops, tuple(sorted(h & ~loops for h in active)))
    return (tuple(qualifying), tuple(active))


def circuit_profile(rep: QuasiRep) -> CircuitProfile:
    """The key (circuit_key) and the circuit counts of a tame
    representation, in closed form over the cells.

    Counting sets by how many elements they take from each cell is a product
    of truncated binomial polynomials (_subset_counts; Flajolet-Sedgewick,
    Analytic Combinatorics, ch. II). The type-1 circuits are the
    (n-1)-subsets of the intersections. The type-2 circuits of member H are
    its n-subsets with at most n-2 elements in each intersection inside H,
    the coefficient inside[n] of the product over H's cells. An (n+1)-set within every
    cell's cap is a type-3 circuit unless it holds n or more elements of
    some member; two members holding n elements each would share n-1 of
    them, above the cap of their intersection, so these member events are
    disjoint and are subtracted one by one. Every cell polynomial has
    constant term 1, so the product over the cells outside H starts
    1 + (total[1] - inside[1])x.

    The rank follows from the counts. Sets of at most n-2 elements are
    always independent and (n+1)-sets never. An n-set is dependent exactly
    when it breaks an intersection cap or is a type-2 circuit, so the rank is
    n when total[n] > type2. Else it is n-1 when some (n-1)-set is no type-1
    circuit (the intersections are disjoint, so none is counted twice), and
    else the smaller of d and n-2.

    Above d + 1 no set has n - 1 elements, so there are no circuits and
    the rank is d, read off before any product of n + 2 coefficients.
    """
    n = rep.n
    if n >= rep.d + 2:
        return CircuitProfile(circuit_key(rep), 0, 0, 0, rep.d)
    top = n + 1
    cells = _cells(rep)
    held: list[list] = [[] for _ in rep.members]  # member i's cells
    for cell in cells:
        for i in cell[2]:
            held[i].append(cell)
    type1 = sum(comb(size, n - 1) for size, _, owners in cells if len(owners) == 2)
    type2 = 0
    total = _subset_counts(cells, top)
    type3 = total[top]
    for i, h in enumerate(rep.members):
        if h.bit_count() < n:
            continue
        inside = _subset_counts(held[i], top)
        type2 += inside[n]
        type3 -= inside[n] * (total[1] - inside[1]) + inside[n + 1]
    if total[n] > type2:
        rank = n
    elif comb(rep.d, n - 1) > type1:
        rank = n - 1
    else:
        rank = min(rep.d, n - 2)
    return CircuitProfile(circuit_key(rep), type1, type2, type3, rank)


def count_by_size(n: int, profile: CircuitProfile) -> dict[int, int]:
    """The circuits of each size of a level-n construction whose
    circuit_profile is profile, sizes without circuits left out: type 1 has
    n-1 elements, type 2 n and type 3 n+1."""
    counts = {n - 1: profile.type1, n: profile.type2, n + 1: profile.type3}
    return {size: count for size, count in counts.items() if count}


def type3_count(rep: QuasiRep) -> int:
    """Number of (n+1)-circuits, in closed form over the cells (see
    circuit_profile)."""
    return circuit_profile(rep).type3


def check_circuit_budget(rep: QuasiRep, budget: int = CIRCUIT_BUDGET) -> None:
    """Refuse to list rep's circuits when the candidate estimate passes the
    budget: the subsets of each cap's size in its mask, and every (n+1)-set."""
    estimate = sum(comb(mask.bit_count(), t) for mask, t in _caps(rep)) + comb(rep.d, rep.n + 1)
    if estimate > budget:
        raise TooLarge("circuit materialization", f"about {estimate} candidates")


def circuit_rows(rep: QuasiRep, before: str, sep: str, end: str) -> Iterator[str]:
    """A row of text for each circuit of rep, in canonical order (see
    _circuit_walks): before, its 1-based labels joined by sep, then end.
    Each type is written as text by its walk (bitset.capped_rows), in
    pieces, with no mask list between. Refused by check_circuit_budget when
    called, before any piece is written."""
    check_circuit_budget(rep)
    walks = _circuit_walks(rep, _caps(rep))
    return chain.from_iterable(capped_rows(*walk, before, sep, end) for walk in walks)


class ExtensionStep(NamedTuple):
    """One deleted element, the flat it extends (a mask in original labels:
    the pairwise intersection minus the element at levels n >= 3, every loop
    at level 2), and the pair of member indices whose intersection contained
    it."""

    element: int
    flat: int
    source_pair: tuple[int, int]


class TameDecomposition(NamedTuple):
    core: PavingMatroid
    core_elements: tuple[int, ...]
    steps: tuple[ExtensionStep, ...]


def decompose_to_tame(
    rep: QuasiRep,
    *,
    pick: Optional[Callable[[tuple[int, ...]], int]] = None,
) -> TameDecomposition:
    """Peel elements out of oversized pairwise intersections until the residual
    hypergraph is a tame paving system; each peel records a principal-extension
    step whose replay rebuilds the original matroid.

    Requires the matroid to have full rank n. An element inside a qualifying
    intersection lies in exactly that pair of members, so the recorded pair is
    unambiguous. By default the largest eligible element is peeled first; the
    surviving core is the same for any order, so pick only affects labels of
    the recorded steps.

    Each step's flat is read off the peeled members, with no closure taken.
    At n >= 3 it is J = I - a, the rest of the intersection, of rank n-2: J
    has n-2 or more elements, its (n-2)-subsets B are independent and its
    (n-1)-subsets, if any, are type-1 circuits. For x outside J, B + x is
    dependent only inside some pairwise intersection; that one meets B, and
    no element lies in three members, so it is J. Hence J is a flat. At
    n = 2 the rest of I is loops, and the flat is the rank-0 flat, the set
    of all loops: the union of the pairwise intersections of the peeled
    members.
    """
    n = rep.n
    if circuit_profile(rep).rank != n:
        raise RankDeficient(f"construction at level {n} does not have rank {n}")
    members = list(rep.members)
    steps: list[ExtensionStep] = []
    # The pair of each element of a qualifying intersection. A peel takes its
    # element out of that one intersection, and the pair drops out once
    # fewer than n-1 elements are left.
    eligible = {
        e: (i, j)
        for i, j, inter in _intersections(members)
        if inter.bit_count() >= n - 1
        for e in bit_list(inter)
    }
    while eligible:
        a = max(eligible) if pick is None else pick(tuple(sorted(eligible)))
        i, j = eligible.pop(a)
        bit = 1 << a
        members[i] &= ~bit
        members[j] &= ~bit
        inter = members[i] & members[j]
        if inter.bit_count() < n - 1:
            for e in bit_list(inter):
                del eligible[e]
        steps.append(ExtensionStep(a, inter if n >= 3 else overlaps(members)[1], (i, j)))
    deleted = 0
    for s in steps:
        deleted |= 1 << s.element
    alive = ((1 << rep.d) - 1) ^ deleted
    elements = bits_tuple(alive)
    pos = {old: new for new, old in enumerate(elements)}

    hyps = tuple(remap(h, pos) for h in members if h.bit_count() >= n)
    core = _paving_relaxed(len(elements), n, hyps)
    return TameDecomposition(core, elements, tuple(steps))
