"""Finite matroid kernel: circuits, independence, rank, closure, bases, deletion,
and the dependency order.

Ground sets are {0..d-1}; subsets are int bitmasks (see :mod:`pavemat.bitset`).
A matroid is backed by one of two representations:

* an explicit canonical circuit list (sorted by size, then lexicographically), or
* an independence oracle (a predicate on masks), optionally with a function
  that lists the circuits when they are first asked for.

All objects are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Optional

from .bitset import (
    as_mask,
    bits_tuple,
    canonical_masks,
    containment_test,
    remap,
    sort_key,
    subsets_of_size,
)
from .errors import (
    AxiomViolation,
    BadParams,
    BadRank,
    ContainmentViolation,
    GroundMismatch,
    OutOfRange,
    RankMismatch,
    TooLarge,
)

# Explicit circuit lists are refused above this size; families fall back to
# oracle mode instead (a k*l grid has Theta((kl)^4) size-4 circuits).
CIRCUIT_BUDGET = 5_000_000

# bases() guard: C(d, rank) enumeration is refused above this ground size.
BASES_GROUND_LIMIT = 24

# Exhaustive axiom checks build a dependence table over all 2^d subsets up to
# this ground size; beyond it they fall back to per-pair subset scans.
_DP_GROUND_LIMIT = 16

# Pair-loop guard for the fallback elimination check.
_VALIDATION_PAIR_BUDGET = 20_000_000


class Matroid:
    """A matroid on {0..d-1}; see the module docstring for the backing modes."""

    __slots__ = ("d", "rank_value", "origin", "_circuits", "_oracle", "_circuit_fn")

    def __init__(
        self,
        d: int,
        rank_value: int,
        *,
        circuits: Optional[tuple[int, ...]] = None,
        oracle: Optional[Callable[[int], bool]] = None,
        circuit_fn: Optional[Callable[[], tuple[int, ...]]] = None,
        origin: str = "explicit",
    ):
        if circuits is None and oracle is None:
            raise BadParams("a matroid needs circuits or an independence oracle")
        self.d = d
        self.rank_value = rank_value
        self.origin = origin
        self._circuits = circuits
        self._oracle = oracle
        self._circuit_fn = circuit_fn

    # -- dependence predicate -------------------------------------------------

    def is_independent(self, s: int | Iterable[int]) -> bool:
        s = as_mask(s)
        if s >> self.d:
            raise OutOfRange(f"subset has elements outside ground set of size {self.d}")
        if self._circuits is not None:
            size = s.bit_count()
            for c in self._circuits:
                if c.bit_count() > size:
                    return True
                if c & s == c:
                    return False
            return True
        return self._oracle(s)

    def is_dependent(self, s: int | Iterable[int]) -> bool:
        return not self.is_independent(s)

    # -- rank machinery --------------------------------------------------------

    def _greedy_basis(self, s: int) -> int:
        """A maximal independent subset of s, grown greedily in ascending element order.

        The exchange axiom makes any greedy order reach the same size, so this
        computes rank(s) correctly.
        """
        indep = 0
        m = s
        while m:
            low = m & -m
            m ^= low
            if self.is_independent(indep | low):
                indep |= low
        return indep

    def rank(self, s: int | Iterable[int] | None = None) -> int:
        s = (1 << self.d) - 1 if s is None else as_mask(s)
        if s >> self.d:
            raise OutOfRange(f"subset has elements outside ground set of size {self.d}")
        return self._greedy_basis(s).bit_count()

    def closure(self, s: int | Iterable[int]) -> int:
        """All x with rank(s + x) == rank(s).

        rank(s + x) exceeds rank(s) exactly when basis + x is independent for a
        maximal independent basis of s, so one greedy basis suffices.
        """
        s = as_mask(s)
        basis = self._greedy_basis(s)
        out = s
        rest = ((1 << self.d) - 1) ^ s
        while rest:
            low = rest & -rest
            rest ^= low
            if not self.is_independent(basis | low):
                out |= low
        return out

    # -- enumeration -----------------------------------------------------------

    def bases(self, *, ground_limit: int = BASES_GROUND_LIMIT) -> tuple[int, ...]:
        if self.d > ground_limit:
            raise TooLarge("bases ground limit", f"d={self.d} > {ground_limit}")
        r = self.rank_value
        if comb(self.d, r) > CIRCUIT_BUDGET:
            raise TooLarge("bases enumeration", f"C({self.d},{r}) too large")
        return tuple(m for m in subsets_of_size((1 << self.d) - 1, r) if self.is_independent(m))

    def circuits(self, *, budget: int = CIRCUIT_BUDGET) -> tuple[int, ...]:
        if self._circuits is None:
            if self._circuit_fn is not None:
                self._circuits = self._circuit_fn()
            else:
                self._circuits = self._search_circuits(budget)
        return self._circuits

    def _search_circuits(self, budget: int) -> tuple[int, ...]:
        """Minimal dependent sets by size-graded search (small grounds only)."""
        total = sum(comb(self.d, r) for r in range(1, self.rank_value + 2))
        if total > budget:
            raise TooLarge("circuit search", f"{total} candidate subsets")
        found: list[int] = []
        for r in range(1, self.rank_value + 2):
            for m in subsets_of_size((1 << self.d) - 1, r):
                if self.is_independent(m):
                    continue
                if any(c & m == c for c in found):
                    continue
                found.append(m)
        return tuple(sorted(found, key=sort_key))

    def circuit_count_by_size(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for c in self.circuits():
            hist[c.bit_count()] = hist.get(c.bit_count(), 0) + 1
        return hist

    # -- minors ----------------------------------------------------------------

    def delete(self, z: int | Iterable[int]) -> tuple["Matroid", tuple[int, ...]]:
        """Delete z; returns the re-indexed matroid plus kept[new_index] = old_index."""
        z = as_mask(z)
        if z >> self.d:
            raise OutOfRange(f"subset has elements outside ground set of size {self.d}")
        kept = tuple(e for e in range(self.d) if not (z >> e) & 1)
        pos = {old: new for new, old in enumerate(kept)}
        nd = len(kept)

        if self._circuits is not None:
            new_circuits = tuple(remap(c, pos) for c in self._circuits if c & z == 0)
            m = Matroid(nd, 0, circuits=new_circuits, origin=self.origin)
            m.rank_value = m.rank()
            return m, kept

        wrapped = Matroid(nd, 0, oracle=lambda s: self.is_independent(remap(s, kept)), origin=self.origin)
        wrapped.rank_value = wrapped.rank()
        return wrapped, kept

    def relabel(self, perm: tuple[int, ...]) -> "Matroid":
        """Apply the permutation old_index -> perm[old_index] to all labels."""
        if sorted(perm) != list(range(self.d)):
            raise BadParams("relabel needs a permutation of the ground set")

        if self._circuits is not None:
            return Matroid(
                self.d,
                self.rank_value,
                circuits=tuple(sorted((remap(c, perm) for c in self._circuits), key=sort_key)),
                origin=self.origin,
            )
        inverse = [0] * self.d
        for old, new in enumerate(perm):
            inverse[new] = old

        return Matroid(
            self.d,
            self.rank_value,
            oracle=lambda s: self.is_independent(remap(s, inverse)),
            origin=self.origin,
        )

    def __repr__(self) -> str:
        mode = "circuits" if self._circuits is not None else "oracle"
        return f"Matroid(d={self.d}, rank={self.rank_value}, {mode}, origin={self.origin!r})"


@dataclass(frozen=True)
class DependencyVerdict:
    """Outcome of a dependency-order comparison; witness is a circuit of the
    smaller matroid that stays independent in the larger one."""

    leq: bool
    witness: Optional[int]


def check_circuit_axioms(d: int, circuits: tuple[int, ...]) -> None:
    """Verify minimality and circuit elimination exhaustively over all pairs.

    Raises ContainmentViolation or AxiomViolation with a witness. For d up to
    _DP_GROUND_LIMIT a dependence table over all subsets makes each pair check
    O(|c1 & c2|); larger grounds test each union for a contained circuit
(:func:`pavemat.bitset.containment_test`).
    """
    by_size: dict[int, list[int]] = {}
    for c in circuits:
        if c == 0:
            raise BadParams("the empty set cannot be a circuit")
        by_size.setdefault(c.bit_count(), []).append(c)
    sizes = sorted(by_size)
    for i, small_size in enumerate(sizes):
        for big_size in sizes[i + 1 :]:
            for small in by_size[small_size]:
                for big in by_size[big_size]:
                    if small & big == small:
                        raise ContainmentViolation(small, big)

    if not circuits:
        return

    if d <= _DP_GROUND_LIMIT:
        dep = bytearray(1 << d)
        for c in circuits:
            dep[c] = 1
        for mask in range(1, 1 << d):
            if dep[mask]:
                continue
            m = mask
            while m:
                low = m & -m
                m ^= low
                if dep[mask ^ low]:
                    dep[mask] = 1
                    break

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
                    if not dep[union ^ low]:
                        raise AxiomViolation(c1, c2, low.bit_length() - 1)
        return

    if len(circuits) * len(circuits) > _VALIDATION_PAIR_BUDGET:
        raise TooLarge("axiom validation", f"{len(circuits)} circuits on d={d}")
    contains_circuit = containment_test(circuits)

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
                if not contains_circuit(union ^ low):
                    raise AxiomViolation(c1, c2, low.bit_length() - 1)


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
    m = Matroid(d, 0, circuits=canon, origin=origin)
    computed = m.rank()
    m.rank_value = computed
    if rank_value is not None and rank_value != computed:
        raise RankMismatch(rank_value, computed)
    return m


def uniform(n: int, d: int) -> Matroid:
    """The uniform matroid of rank n on d elements: every (n+1)-subset is a circuit."""
    if n < 0 or n > d:
        raise BadRank(f"uniform matroid needs 0 <= n <= d, got n={n}, d={d}")
    count = comb(d, n + 1)
    if count > CIRCUIT_BUDGET:
        return Matroid(d, n, oracle=lambda s: s.bit_count() <= n, origin="explicit")
    return Matroid(d, n, circuits=tuple(subsets_of_size((1 << d) - 1, n + 1)), origin="explicit")


def is_uniform(m: Matroid) -> Optional[tuple[int, int]]:
    """(n, d) when m is exactly the labeled uniform matroid, else None."""
    r, d = m.rank_value, m.d
    if m._circuits is not None:
        cs = m._circuits
        if all(c.bit_count() == r + 1 for c in cs) and len(cs) == comb(d, r + 1):
            return (r, d)
        return None
    if r == d:
        return (r, d)
    total = comb(d, r) + comb(d, r + 1)
    if total > CIRCUIT_BUDGET:
        raise TooLarge("uniformity check", f"{total} subsets")
    ground = (1 << d) - 1
    if not all(m.is_independent(s) for s in subsets_of_size(ground, r)):
        return None
    if any(m.is_independent(s) for s in subsets_of_size(ground, r + 1)):
        return None
    return (r, d)


def dependency_leq(n1: Matroid, n2: Matroid) -> DependencyVerdict:
    """Decide n2 >= n1 in the dependency order: every dependent set of n1 is
    dependent in n2, equivalently every circuit of n1 is dependent in n2."""
    if n1.d != n2.d:
        raise GroundMismatch(f"ground sizes differ: {n1.d} vs {n2.d}")
    for c in n1.circuits():
        if n2.is_independent(c):
            return DependencyVerdict(False, c)
    return DependencyVerdict(True, None)
