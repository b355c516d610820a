"""Component counts by three independent routes.

* enumerate: walk the partitions of the hyperplanes that pass the
  closed-form component test, pruning every subtree that holds none;
* formula: multinomial-weighted sums over vector partitions avoiding the
  forbidden block profiles, minus the closed-form count of partitions whose
  one big block swallows all rows or all columns;
* egf: coefficient extraction from truncated exponential generating functions
  over exact rationals.

Everything here is exact: ints and Fractions only, no floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import factorial
from typing import Callable, Iterable, Iterator

from .errors import BadParams, EnumerationBudgetExceeded, InvariantViolated, RangeUnsupported

# Closed-form counting is enabled from 4 up: agreement with direct enumeration
# at (4,4) and (4,5) is pinned by the test suite. Below 4 the all-rows block
# degenerates (a 3x3 block is not a component) and the subtraction overcounts.
GRID_FORMULA_MIN = 4

# At n = 4 the excluded block size n-1 = 3 is already a forbidden profile, so
# subtracting n overcounts; the identity holds from 5 up (pinned by tests).
LINE_FORMULA_MIN = 5

GRID_COUNT_BUDGET = 16  # max k+l for the enumerate route
LINE_COUNT_BUDGET = 12  # max n for the enumerate route

# The formula route walks vector partitions, whose number grows like the
# partition numbers; the egf route is polynomial and has no budget.
GRID_FORMULA_BUDGET = 40  # max k+l for the formula route
LINE_FORMULA_BUDGET = 60  # max n for the formula route

Vector = tuple[int, ...]


@dataclass(frozen=True)
class ForbiddenProfiles:
    """Block profiles that may not occur: a predicate on nonzero vectors of
    fixed dimension (1 for plain sizes, 2 for row/column counts)."""

    dim: int
    forbids: Callable[[Vector], bool]

    def allows(self, v: Vector) -> bool:
        return any(v) and not self.forbids(v)


def forbidden_sizes(sizes: Iterable[int]) -> ForbiddenProfiles:
    fixed = frozenset(sizes)
    return ForbiddenProfiles(1, lambda v: v[0] in fixed)


def grid_forbidden() -> ForbiddenProfiles:
    """Grid block profiles (rows, cols) that cannot head a component: anything
    but singletons and blocks with both sides >= 3 and one side >= 4."""

    def forbids(v: Vector) -> bool:
        a, b = v
        if (a, b) in ((1, 0), (0, 1)):
            return False
        return a < 3 or b < 3 or (a, b) == (3, 3)

    return ForbiddenProfiles(2, forbids)


def _as_vector(target: int | Vector, dim: int) -> Vector:
    v = (target,) if isinstance(target, int) else tuple(target)
    if len(v) != dim or any(x < 0 for x in v):
        raise BadParams(f"target must be a nonnegative vector of dimension {dim}")
    return v


def _boxed_vectors(bound: Vector) -> list[Vector]:
    out: list[Vector] = [()]
    for b in bound:
        out = [v + (x,) for v in out for x in range(b + 1)]
    return [v for v in out if any(v)]


def vector_partitions(
    target: int | Vector, forbidden: ForbiddenProfiles
) -> Iterator[tuple[Vector, ...]]:
    """Multisets of allowed nonzero vectors summing to the target, each yielded
    once with parts in decreasing lexicographic order."""
    tgt = _as_vector(target, forbidden.dim)
    parts = sorted(
        (v for v in _boxed_vectors(tgt) if forbidden.allows(v)), reverse=True
    )

    def rec(remaining: Vector, start: int) -> Iterator[tuple[Vector, ...]]:
        if not any(remaining):
            yield ()
            return
        for idx in range(start, len(parts)):
            v = parts[idx]
            if all(x <= r for x, r in zip(v, remaining)):
                rest = tuple(r - x for r, x in zip(remaining, v))
                for tail in rec(rest, idx):
                    yield (v,) + tail

    return rec(tgt, 0)


def admissible_partition_count(target: int | Vector, forbidden: ForbiddenProfiles) -> int:
    """Number of set partitions of a ground set with target[i] items of sort i
    in which no block has a forbidden profile.

    Each vector partition of the target contributes target!/(prod part! *
    prod multiplicity!) labeled set partitions.
    """
    tgt = _as_vector(target, forbidden.dim)
    numer = 1
    for x in tgt:
        numer *= factorial(x)
    total = 0
    for parts in vector_partitions(tgt, forbidden):
        denom = 1
        for v, group in groupby(parts):
            mult = len(list(group))
            vfact = 1
            for x in v:
                vfact *= factorial(x)
            denom *= vfact**mult * factorial(mult)
        q, r = divmod(numer, denom)
        if r:
            raise InvariantViolated(f"multinomial {numer}/{denom} is not an integer")
        total += q
    return total


@dataclass(frozen=True)
class TruncatedEGF:
    """Dense grid of exact rational coefficients c_m of sum c_m x^m, truncated
    at the given componentwise bounds (dimension 1 or 2)."""

    bounds: Vector
    coeffs: tuple = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def coefficient(self, n: int | Vector) -> Fraction:
        v = _as_vector(n, self.dim)
        if any(x > b for x, b in zip(v, self.bounds)):
            raise BadParams(f"{v} outside truncation bounds {self.bounds}")
        if self.dim == 1:
            return self.coeffs[v[0]]
        return self.coeffs[v[0]][v[1]]

    def count(self, n: int | Vector) -> int:
        """c_n times n!; the factorial scaling must clear all denominators."""
        v = _as_vector(n, self.dim)
        value = self.coefficient(v)
        for x in v:
            value *= factorial(x)
        if value.denominator != 1:
            raise InvariantViolated(f"coefficient at {v} scales to {value}, not an integer")
        return value.numerator

    def __sub__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        if self.bounds != other.bounds:
            raise BadParams("bounds differ")
        if self.dim == 1:
            return TruncatedEGF(
                self.bounds, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
            )
        return TruncatedEGF(
            self.bounds,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.coeffs, other.coeffs)
            ),
        )


def _exp_1d(alpha: list[Fraction], bound: int) -> list[Fraction]:
    """exp of a truncated series with zero constant term, via the derivative
    recurrence j e_j = sum_{i<=j} i a_i e_{j-i}."""
    e = [Fraction(0)] * (bound + 1)
    e[0] = Fraction(1)
    for j in range(1, bound + 1):
        acc = Fraction(0)
        for i in range(1, j + 1):
            if alpha[i]:
                acc += i * alpha[i] * e[j - i]
        e[j] = acc / j
    return e


def _exp_2d(alpha: dict[Vector, Fraction], bounds: Vector) -> list[list[Fraction]]:
    """2-D analogue: the x-derivative recurrence fills columns a >= 1, and the
    a = 0 line is a 1-D exp in y."""
    b1, b2 = bounds
    e = [[Fraction(0)] * (b2 + 1) for _ in range(b1 + 1)]
    col0 = [alpha.get((0, j), Fraction(0)) for j in range(b2 + 1)]
    e[0] = _exp_1d(col0, b2)
    terms = [(i, j, c) for (i, j), c in alpha.items() if i >= 1 and c]
    for a in range(1, b1 + 1):
        for b in range(b2 + 1):
            acc = Fraction(0)
            for i, j, c in terms:
                if i <= a and j <= b:
                    acc += i * c * e[a - i][b - j]
            e[a][b] = acc / a
    return e


def partition_count_series(forbidden: ForbiddenProfiles, bounds: int | Vector) -> TruncatedEGF:
    """Exponential generating function of the admissible-partition counts:
    exp of sum x^m / m! over the allowed profiles m within the bounds."""
    bnd = _as_vector(bounds, forbidden.dim)
    if forbidden.dim == 1:
        alpha = [Fraction(0)] * (bnd[0] + 1)
        for m in range(1, bnd[0] + 1):
            if forbidden.allows((m,)):
                alpha[m] = Fraction(1, factorial(m))
        return TruncatedEGF(bnd, tuple(_exp_1d(alpha, bnd[0])))
    alpha2: dict[Vector, Fraction] = {}
    for v in _boxed_vectors(bnd):
        if forbidden.allows(v):
            f = 1
            for x in v:
                f *= factorial(x)
            alpha2[v] = Fraction(1, f)
    return TruncatedEGF(bnd, tuple(tuple(row) for row in _exp_2d(alpha2, bnd)))


def grid_excluded_count(k: int, l: int) -> int:
    """Partitions whose blocks all have admissible profiles but where one block
    contains every row or every column without being everything: a block of
    all k rows plus 3..l-1 columns with the rest singletons, or the transpose.
    Closed form 2^(k+1) - (k^2+k+4) over 2 per side."""
    if k < GRID_FORMULA_MIN or l < GRID_FORMULA_MIN:
        raise RangeUnsupported(f"closed form needs k, l >= {GRID_FORMULA_MIN}")
    side_k = (2 ** (k + 1) - (k * k + k + 4)) // 2
    side_l = (2 ** (l + 1) - (l * l + l + 4)) // 2
    return side_k + side_l


def grid_excluded_series(bounds: Vector) -> TruncatedEGF:
    """The generating function matching grid_excluded_count on all of its
    domain: e^(2x+y) + e^(x+2y) - (x^2+y^2+2x+2y+8)/2 * e^(x+y)."""
    b1, b2 = bounds
    rows = []
    for a in range(b1 + 1):
        row = []
        for b in range(b2 + 1):
            base = Fraction(1, factorial(a) * factorial(b))
            val = Fraction(2**a + 2**b, factorial(a) * factorial(b))
            # polynomial shifts of e^(x+y): x^p y^q e^(x+y) has coefficient
            # 1/((a-p)!(b-q)!) at (a,b)
            poly = Fraction(8) * base
            if a >= 2:
                poly += Fraction(1, factorial(a - 2) * factorial(b))
            if b >= 2:
                poly += Fraction(1, factorial(a) * factorial(b - 2))
            if a >= 1:
                poly += Fraction(2, factorial(a - 1) * factorial(b))
            if b >= 1:
                poly += Fraction(2, factorial(a) * factorial(b - 1))
            row.append(val - poly / 2)
        rows.append(tuple(row))
    return TruncatedEGF(bounds, tuple(rows))


def grid_component_codes(k: int, l: int) -> Iterator[tuple[int, ...]]:
    """RGS codes of the component partitions of the k x l grid (k, l >= 3)
    over hyperplanes rows 0..k-1 then columns k..k+l-1, in RGS-lex order:
    the codes `decomposition.grid_component_partitions` keeps, without
    visiting the partitions it drops.

    Rows are placed first, so once they are exhausted a block's row count is
    final. Each rule below kills every completion of a partial code:
    * a block with exactly 2 rows is dead once the rows are placed;
    * a column joins only a block with >= 3 rows (any other join makes a
      block of two or more hyperplanes with fewer than 3 rows);
    * a block holding all k rows, or all l columns, tolerates no second block;
    * summed deficit: a block with r >= 3 rows still owes (4 if r == 3 else
      3) minus its columns, and the columns left must cover what all blocks
      owe, since each column joins exactly one block.
    """
    if k < 3 or l < 3:
        raise RangeUnsupported("enumeration needs k, l >= 3")
    m = k + l
    code = [0] * m
    rows: list[int] = []
    cols: list[int] = []

    def place_row(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == k:
            if 2 in rows:
                return
            owed = sum(4 if r == 3 else 3 for r in rows if r >= 3)
            if owed <= l:
                yield from place_col(pos, owed)
            return
        for b in range(len(rows)):
            rows[b] += 1
            code[pos] = b
            yield from place_row(pos + 1)
            rows[b] -= 1
        code[pos] = len(rows)
        rows.append(1)
        cols.append(0)
        yield from place_row(pos + 1)
        rows.pop()
        cols.pop()

    def place_col(pos: int, owed: int) -> Iterator[tuple[int, ...]]:
        # invariant: owed <= m - pos, the columns still to place
        if pos == m:
            yield tuple(code)
            return
        tight = owed == m - pos
        single = len(rows) == 1
        for b in range(len(rows)):
            r = rows[b]
            if r < 3:
                continue
            c = cols[b]
            pays = c < (4 if r == 3 else 3)
            if (tight and not pays) or (c + 1 == l and not single):
                continue
            cols[b] = c + 1
            code[pos] = b
            yield from place_col(pos + 1, owed - 1 if pays else owed)
            cols[b] = c
        if tight or rows[0] == k:
            return
        code[pos] = len(rows)
        rows.append(0)
        cols.append(1)
        yield from place_col(pos + 1, owed)
        rows.pop()
        cols.pop()

    return place_row(0)


def line_component_codes(n: int) -> Iterator[tuple[int, ...]]:
    """RGS codes of the component partitions of the n lines, in RGS-lex
    order: the codes `decomposition.line_component_partitions` keeps,
    without visiting the partitions it drops.

    Summed deficit: a block of size 2 still owes 2 lines and one of size 3
    owes 1, and the lines left must cover what all blocks owe, since each
    line joins exactly one block. A block of size n-1 is only visible once
    every line is placed.
    """
    code = [0] * n
    sizes: list[int] = []
    owes = [0, 0, 2, 1] + [0] * n  # by block size

    def place(pos: int, owed: int) -> Iterator[tuple[int, ...]]:
        # invariant: owed <= n - pos, the lines still to place
        if pos == n:
            if n - 1 not in sizes:
                yield tuple(code)
            return
        left = n - pos - 1
        for b in range(len(sizes)):
            s = sizes[b]
            after = owed - owes[s] + owes[s + 1]
            if after <= left:
                sizes[b] = s + 1
                code[pos] = b
                yield from place(pos + 1, after)
                sizes[b] = s
        if owed <= left:
            code[pos] = len(sizes)
            sizes.append(1)
            yield from place(pos + 1, owed)
            sizes.pop()

    return place(0, 0)


_METHODS = ("enumerate", "formula", "egf")


def grid_component_count(k: int, l: int, method: str = "enumerate") -> int:
    """Number of components of the k x l grid decomposition."""
    if method not in _METHODS:
        raise BadParams(f"method must be one of {_METHODS}")
    if method == "enumerate":
        codes = grid_component_codes(k, l)
        if k + l > GRID_COUNT_BUDGET:
            raise EnumerationBudgetExceeded("grid hyperplane count", k + l, GRID_COUNT_BUDGET)
        return sum(1 for _ in codes)
    if k < GRID_FORMULA_MIN or l < GRID_FORMULA_MIN:
        raise RangeUnsupported(f"method {method!r} needs k, l >= {GRID_FORMULA_MIN}")
    if method == "formula":
        if k + l > GRID_FORMULA_BUDGET:
            raise EnumerationBudgetExceeded("grid formula", k + l, GRID_FORMULA_BUDGET)
        return admissible_partition_count((k, l), grid_forbidden()) - grid_excluded_count(k, l)
    series = partition_count_series(grid_forbidden(), (k, l)) - grid_excluded_series((k, l))
    return series.count((k, l))


def line_component_count(n: int, method: str = "enumerate") -> int:
    """Number of components of the n-line decomposition."""
    if method not in _METHODS:
        raise BadParams(f"method must be one of {_METHODS}")
    if method == "enumerate":
        if n < 4:
            raise RangeUnsupported("enumeration needs n >= 4")
        if n > LINE_COUNT_BUDGET:
            raise EnumerationBudgetExceeded("line count", n, LINE_COUNT_BUDGET)
        return sum(1 for _ in line_component_codes(n))
    if n < LINE_FORMULA_MIN:
        raise RangeUnsupported(f"method {method!r} needs n >= {LINE_FORMULA_MIN}")
    if method == "formula":
        if n > LINE_FORMULA_BUDGET:
            raise EnumerationBudgetExceeded("line formula", n, LINE_FORMULA_BUDGET)
        return admissible_partition_count(n, forbidden_sizes({2, 3})) - n
    series = partition_count_series(forbidden_sizes({2, 3}), n)
    # subtract the series of the n partitions with an (n-1)-block: x e^x
    shifted = TruncatedEGF(
        (n,), tuple(Fraction(0) if j == 0 else Fraction(1, factorial(j - 1)) for j in range(n + 1))
    )
    return (series - shifted).count(n)
