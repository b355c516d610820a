"""Finite matroid kernel: circuits, independence, rank, the exhaustive
circuit-axiom check, and the uniform matroid.

Ground sets are {0..d-1}; subsets are int bitmasks (see :mod:`pavemat.bitset`).
A matroid is backed by one of two representations:

* an explicit canonical circuit list (sorted by size, then lexicographically), or
* an independence oracle (a predicate on masks), optionally with a function
  that lists the circuits when they are first asked for and one that counts
  them by size without listing them. The oracle answers independence
  queries also once the circuits are listed; a matroid given no way to list
  its circuits refuses to.

All objects are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Iterable, Optional

from .bitset import (
    as_mask,
    bits_tuple,
    canonical_masks,
    subsets_of_size,
)
from .errors import (
    AxiomViolation,
    BadParams,
    BadRank,
    ContainmentViolation,
    InvariantViolated,
    OutOfRange,
    RankMismatch,
    TooLarge,
)

# Explicit circuit lists are refused above this size; families fall back to
# oracle mode instead (a k*l grid has Theta((kl)^4) size-4 circuits).
CIRCUIT_BUDGET = 5_000_000

# The circuit axioms are decided on bitsets over all 2^d subsets up to this
# ground size, where the check takes at most about 0.5 s and 40 MB (2-core
# Xeon VM, Python 3.11); larger grounds scan every circuit pair for a
# contained circuit.
_DP_GROUND_LIMIT = 22

# Where circuit pairs are scanned on grounds above _PAIR_BUDGET_GROUND (every
# list above _DP_GROUND_LIMIT, and the witness scan of a list that failed the
# bitset decision), lists with more circuit pairs than the budget are refused.
_PAIR_BUDGET_GROUND = 16
_VALIDATION_PAIR_BUDGET = 20_000_000


class Matroid:
    """A matroid on {0..d-1}; see the module docstring for the backing modes.
    Given no rank_value, the constructor takes the greedy rank of the ground
    set."""

    __slots__ = ("d", "rank_value", "origin", "_circuits", "_oracle", "_circuit_fn", "_count_fn")

    def __init__(
        self,
        d: int,
        rank_value: Optional[int] = None,
        *,
        circuits: Optional[tuple[int, ...]] = None,
        oracle: Optional[Callable[[int], bool]] = None,
        circuit_fn: Optional[Callable[[], tuple[int, ...]]] = None,
        count_fn: Optional[Callable[[], dict[int, int]]] = None,
        origin: str = "explicit",
    ):
        if circuits is None and oracle is None:
            raise BadParams("a matroid needs circuits or an independence oracle")
        self.d = d
        self.origin = origin
        self._circuits = circuits
        self._oracle = oracle
        self._circuit_fn = circuit_fn
        self._count_fn = count_fn
        self.rank_value = self.rank() if rank_value is None else rank_value

    # -- dependence predicate -------------------------------------------------

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

    # -- rank machinery --------------------------------------------------------

    def rank(self, s: int | Iterable[int] | None = None) -> int:
        """The size of a maximal independent subset of s (of the ground set
        when s is None), grown greedily in ascending element order. The
        exchange axiom makes any greedy order reach the same size."""
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

    def circuit_count_by_size(self) -> dict[int, int]:
        """Circuits per size, sizes without circuits left out; from count_fn
        when the matroid was given one, else from the circuit list."""
        if self._count_fn is not None:
            return self._count_fn()
        hist: dict[int, int] = {}
        for c in self.circuits():
            hist[c.bit_count()] = hist.get(c.bit_count(), 0) + 1
        return hist

    def __repr__(self) -> str:
        mode = "circuits" if self._circuits is not None else "oracle"
        return f"Matroid(d={self.d}, rank={self.rank_value}, {mode}, origin={self.origin!r})"


def _without(d: int) -> list[int]:
    """Entry e is the bitset of the subsets of {0..d-1} that do not contain e:
    runs of 2^e set bits and 2^e clear bits, built by doubling."""
    out = []
    for e in range(d):
        width = 2 << e
        pattern = (1 << (1 << e)) - 1
        while width < 1 << d:
            pattern |= pattern << width
            width <<= 1
        out.append(pattern)
    return out


def _marked(d: int, masks: Iterable[int]) -> int:
    """The bitset over all 2^d subsets with bit S set when S is one of masks."""
    table = bytearray(((1 << d) + 7) >> 3)
    for m in masks:
        table[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(table, "little")


def _upward_closure(sets: int, without: list[int]) -> int:
    """The bitset of the subsets holding a set in the bitset sets."""
    for e, no_e in enumerate(without):
        sets |= (sets & no_e) << (1 << e)
    return sets


def _rank_axioms_hold(d: int, dep: int, without: list[int]) -> bool:
    """Whether the dependent sets dep (an upward-closed bitset over all 2^d
    subsets, not holding the empty set) are a matroid's.

    r(S), the size of the largest independent subset of S, starts at 0 and
    grows by at most one per element. Such a function is a matroid's rank
    function exactly when r(S+e) = r(S+f) = r(S) implies r(S+e+f) = r(S) for
    all S and e, f outside S (the local rank axioms; Oxley, *Matroid Theory*,
    ch. 1). Its independent sets are then those with r(S) = |S|, the sets
    outside dep. Each step below is a few whole-bitset operations.
    """
    steps = [(no_e, 1 << e) for e, no_e in enumerate(without)]
    independent = ((1 << (1 << d)) - 1) ^ dep
    # rank_is[k]: the sets of rank k. The sets of rank >= k are the upward
    # closure of the independent k-sets, and each of those is an independent
    # (k-1)-set plus one element, as subsets of independent sets are independent.
    rank_is = []
    layer = 1
    at_least = (1 << (1 << d)) - 1
    while at_least:
        grown = 0
        for no_e, shift in steps:
            grown |= (layer & no_e) << shift
        layer = grown & independent
        closed = layer
        for no_e, shift in steps:
            closed |= (closed & no_e) << shift
        rank_is.append(at_least ^ closed)
        at_least = closed
    # spans[e]: the sets S without e with r(S+e) = r(S)
    spans = []
    for no_e, shift in steps:
        same = 0
        for level in rank_is:
            same |= level & (level >> shift)
        spans.append(same & no_e)
    for e in range(d):
        span_e, shift = spans[e], 1 << e
        for span_f in spans[e + 1 :]:
            if span_e & span_f & ~(span_f >> shift):
                return False
    return True


def _containment_test(masks: Iterable[int]) -> Callable[[int], bool]:
    """A predicate telling whether a mask contains one of the given masks.

    For each size r of the given masks it looks up the r-subsets of the mask
    when there are fewer of them than given masks of size r, and scans those
    masks otherwise.
    """
    buckets: dict[int, set[int]] = {}
    for m in masks:
        buckets.setdefault(m.bit_count(), set()).add(m)
    by_size = [(r, frozenset(buckets[r])) for r in sorted(buckets)]

    def contains(mask: int) -> bool:
        size = mask.bit_count()
        for r, members in by_size:
            if r > size:
                return False
            if comb(size, r) <= len(members):
                if any(sub in members for sub in subsets_of_size(mask, r)):
                    return True
            elif any(m & mask == m for m in members):
                return True
        return False

    return contains


def _check_elimination(circuits: tuple[int, ...], dependent: Callable[[int], int]) -> None:
    """Raise AxiomViolation at the first circuit pair, in list order, and
    shared element x, in ascending order, with (c1 | c2) - x independent."""
    for i, c1 in enumerate(circuits):
        for c2 in circuits[i + 1 :]:
            inter = c1 & c2
            if not inter:
                continue
            union = c1 | c2
            m = inter
            while m:
                low = m & -m
                m ^= low
                if not dependent(union ^ low):
                    raise AxiomViolation(c1, c2, low.bit_length() - 1)


def _check_containment(circuits: tuple[int, ...]) -> None:
    """Raise ContainmentViolation at the first circuit contained in a larger
    one, scanning the pairs of sizes in ascending order, then the smaller
    circuit, then the larger, each in list order."""
    by_size: dict[int, list[int]] = {}
    for c in circuits:
        by_size.setdefault(c.bit_count(), []).append(c)
    sizes = sorted(by_size)
    for i, small_size in enumerate(sizes):
        for big_size in sizes[i + 1 :]:
            for small in by_size[small_size]:
                for big in by_size[big_size]:
                    if small & big == small:
                        raise ContainmentViolation(small, big)


def check_circuit_axioms(d: int, circuits: tuple[int, ...]) -> None:
    """Verify minimality and circuit elimination exhaustively.

    Raises ContainmentViolation or AxiomViolation with a witness. For d up to
    _DP_GROUND_LIMIT both are decided on bitsets over all 2^d subsets: a
    circuit is not minimal exactly when removing one of its elements leaves
    a dependent set, and the rest is :func:`_rank_axioms_hold`. Only when a
    decision fails are the circuits scanned, to name the first failing pair
    (:func:`_check_containment`, or circuit elimination reading the dependent
    sets from the same bitset). Larger grounds scan the pairs directly,
    testing each union for a contained circuit (:func:`_containment_test`).
    """
    if 0 in circuits:
        raise BadParams("the empty set cannot be a circuit")
    if not circuits:
        return

    over_budget = d > _PAIR_BUDGET_GROUND and len(circuits) ** 2 > _VALIDATION_PAIR_BUDGET
    if d > _DP_GROUND_LIMIT:
        _check_containment(circuits)
        if over_budget:
            raise TooLarge("axiom validation", f"{len(circuits)} circuits on d={d}")
        _check_elimination(circuits, _containment_test(circuits))
        return

    without = _without(d)
    marked = _marked(d, circuits)
    dep = _upward_closure(marked, without)
    above = 0  # the sets holding a dependent set one element smaller
    for e, no_e in enumerate(without):
        above |= (dep & no_e) << (1 << e)
    if marked & above:
        _check_containment(circuits)
        raise InvariantViolated("the bitset minimality check failed but no circuit holds another")
    if _rank_axioms_hold(d, dep, without):
        return
    if over_budget:
        raise TooLarge("axiom validation", f"{len(circuits)} circuits on d={d}")
    table = dep.to_bytes(((1 << d) + 7) >> 3, "little")
    _check_elimination(circuits, lambda mask: table[mask >> 3] >> (mask & 7) & 1)
    raise InvariantViolated("the bitset axiom check failed but every circuit pair eliminates")


def matroid_from_circuits(
    d: int,
    rank_value: Optional[int],
    circuits: Iterable[int | Iterable[int]],
    *,
    validate: bool = True,
    origin: str = "explicit",
) -> Matroid:
    """Build a matroid from a (possibly unsorted, possibly duplicated) circuit list.

    Validation checks minimality and the elimination axiom and that the
    declared rank matches the computed one.
    """
    canon = canonical_masks(as_mask(c) for c in circuits)
    for c in canon:
        if c >> d:
            raise OutOfRange(f"circuit {bits_tuple(c)} leaves the ground set [{d}]")
    if validate:
        check_circuit_axioms(d, canon)
    m = Matroid(d, circuits=canon, origin=origin)
    if rank_value is not None and rank_value != m.rank_value:
        raise RankMismatch(rank_value, m.rank_value)
    return m


def uniform(n: int, d: int) -> Matroid:
    """The uniform matroid of rank n on d elements: every (n+1)-subset is a circuit."""
    if n < 0 or n > d:
        raise BadRank(f"uniform matroid needs 0 <= n <= d, got n={n}, d={d}")
    count = comb(d, n + 1)
    if count > CIRCUIT_BUDGET:
        return Matroid(d, n, oracle=lambda s: s.bit_count() <= n, origin="explicit")
    return Matroid(d, n, circuits=tuple(subsets_of_size((1 << d) - 1, n + 1)), origin="explicit")
