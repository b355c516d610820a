"""Component counts by three routes that must agree.

* enumerate: walk the partitions of the hyperplanes whose blocks all have
  allowed profiles, the family's excluded blocks forbidden too, cutting a
  subtree once its blocks owe more than the hyperplanes left can give; the
  walk backtracks in one generator frame;
* formula: multinomial-weighted sums over vector partitions avoiding the
  forbidden block profiles, minus the closed-form count of partitions whose
  one big block swallows all rows or all columns; the walk takes only the
  parts with more than one item, fills each node's remainder with
  singletons, and sums the exact quotients it carries down;
* egf: truncated exponential generating functions, held as the integer
  counts m! [x^m] that the labelled-exp recurrence computes, minus the
  counts of the excluded partitions.

Everything here is exact integer arithmetic: no Fraction and no float is
built on any route.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from math import factorial
from operator import add, mul
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import BadParams, EnumerationBudgetExceeded, InvariantViolated, RangeUnsupported

# Closed-form counting is enabled from 4 up: agreement with direct enumeration
# at (4,4) and (4,5) is pinned by the test suite. Below 4 the all-rows block
# degenerates (a 3x3 block is not a component) and the subtraction overcounts.
GRID_FORMULA_MIN = 4

# At n = 4 the excluded block size n-1 = 3 is already a forbidden profile, so
# subtracting n overcounts; the identity holds from 5 up (pinned by tests).
LINE_FORMULA_MIN = 5

GRID_COUNT_BUDGET = 16  # max k+l for the enumerate route and decompose without --list
LINE_COUNT_BUDGET = 12  # max n for the enumerate route and decompose without --list

# The formula route walks vector partitions, whose number grows like the
# partition numbers. At either limit a run takes about 0.04-0.05 s (lines 60)
# or 0.02 s (grid 20x20) in-process on a 2-core Xeon VM with Python 3.11, best
# of 5. The limits stay where they were until the budgets are derived from
# measured cost.
GRID_FORMULA_BUDGET = 40  # max k+l for the formula route
LINE_FORMULA_BUDGET = 60  # max n for the formula route

# The egf route is polynomial: about k*l*(k+l) big-int products on the grid,
# whose j-sums are shared by every block size with the same weight row (see
# _exp_2d), most for k = l at a given k+l, and n^2 on the lines. At either
# limit a run takes 0.3-0.6 s (lines 800) or 0.04-0.06 s (grid 60x60) on a
# 2-core Xeon VM with Python 3.11, whose speed swings by up to 2x. The grid
# limit stays where it was until the budgets are derived from measured cost.
GRID_EGF_BUDGET = 120  # max k+l for the egf route
LINE_EGF_BUDGET = 800  # max n for the egf route

Vector = tuple[int, ...]


class _Profiles(NamedTuple):
    dim: int
    forbids: Callable[[Vector], bool]


class ForbiddenProfiles(_Profiles):
    """Block profiles that may not occur: a predicate on nonzero vectors of
    fixed dimension (1 for plain sizes, 2 for row/column counts)."""

    __slots__ = ()

    def __new__(cls, dim: int, forbids: Callable[[Vector], bool]) -> "ForbiddenProfiles":
        if dim not in (1, 2):
            raise BadParams(f"profiles have dimension 1 or 2, not {dim}")
        return super().__new__(cls, dim, forbids)

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


def _partition_sum(tgt: Vector, forbidden: ForbiddenProfiles) -> int:
    """Sum of tgt!/(prod part! * prod multiplicity!) over each multiset of
    allowed nonzero vectors summing to tgt, v! being the product of the
    factorials of v's coordinates.

    Vectors are taken as (a, b) pairs, b = 0 in dimension 1. The walk takes
    the parts with more than one item in decreasing lexicographic order,
    each with its whole multiplicity at once, and fills what a node leaves,
    (ra, rb), with the singletons (1, 0) and (0, 1): every node is one
    multiset. A table per remaining a skips the parts with a above it, and
    last[x][y], the index of the last part that fits in (x, y), ends each
    loop; a child that no later part fits is not called.

    The quotient q is carried down from tgt!: a child taking m copies of v
    gets q // (v!^m * m!), from a table built once per part, and adds its
    own multiset's q // (ra! rb!) (singletons of multiplicity m divide by
    m!), or 0 where a singleton it needs is forbidden. q counts the ways to
    choose the blocks taken so far, unordered, times ra! rb!, so each
    division is exact; a remainder raises InvariantViolated.
    """
    dim2 = forbidden.dim == 2
    ra, rb = tgt[0], tgt[1] if dim2 else 0
    pairs = sorted(
        ((v[0], v[1] if dim2 else 0) for v in _boxed_vectors(tgt) if sum(v) > 1 and forbidden.allows(v)),
        reverse=True,
    )
    # per part: its index, a, b and v!^m * m! at index m
    parts = []
    last = [[-1] * (rb + 2) for _ in range(ra + 2)]  # row and column -1 stay -1
    for idx, (a, b) in enumerate(pairs):
        f = factorial(a) * factorial(b)
        row = [1]
        for m in range(1, min(ra // a if a else rb, rb // b if b else ra) + 1):
            row.append(row[-1] * f * m)
        parts.append((idx, a, b, row))
        last[a][b] = idx
    for x in range(ra + 1):
        for y in range(rb + 1):
            last[x][y] = max(last[x][y], last[x - 1][y], last[x][y - 1])
    # per rows left r, the first part with a <= r: the larger a come first
    starts = [sum(1 for a, _ in pairs if a > r) for r in range(ra + 1)]
    # ra! rb!, or 0 where the singletons that fill (ra, rb) are forbidden
    sa, sb = forbidden.allows((1, 0)[: forbidden.dim]), not dim2 or forbidden.allows((0, 1))
    fb = [factorial(y) * (sb or not y) for y in range(rb + 1)]
    den = [[factorial(x) * (sa or not x) * y for y in fb] for x in range(ra + 1)]

    def walk(ra: int, rb: int, start: int, q: int) -> int:
        total = 0
        for idx, a, b, row in parts[max(start, starts[ra]) : last[ra][rb] + 1]:
            if b > rb:
                continue
            m, ma, mb = 1, ra - a, rb - b
            while ma >= 0 and mb >= 0:
                q2, r = divmod(q, row[m])
                if r:
                    raise InvariantViolated(f"quotient {q}/{row[m]} is not an integer")
                if d := den[ma][mb]:  # the child's own multiset
                    q3, r = divmod(q2, d)
                    if r:
                        raise InvariantViolated(f"quotient {q2}/{d} is not an integer")
                    total += q3
                if last[ma][mb] > idx:
                    total += walk(ma, mb, idx + 1, q2)
                m += 1
                ma -= a
                mb -= b
        return total

    # the root's own multiset, all singletons, has the quotient 1
    return walk(ra, rb, 0, factorial(ra) * factorial(rb)) + (den[ra][rb] > 0)


def admissible_partition_count(target: int | Vector, forbidden: ForbiddenProfiles) -> int:
    """Number of set partitions of a ground set with target[i] items of sort i
    in which no block has a forbidden profile.

    Each vector partition of the target contributes target!/(prod part! *
    prod multiplicity!) labeled set partitions; _partition_sum walks them
    once, carrying the exact quotient down and summing it at each node.
    """
    return _partition_sum(_as_vector(target, forbidden.dim), forbidden)


def admissible_codes(
    target: int | Vector, forbidden: ForbiddenProfiles
) -> Iterator[tuple[int, ...]]:
    """RGS codes, in RGS-lex order, of the set partitions counted by
    admissible_partition_count: of a = target[0] items of sort 0 followed by
    b = target[1] items of sort 1 (b = 0 in dimension 1), every block with an
    allowed profile.

    A block's profile (x, y) is kept as the index x*(b+1) + y. owe_s at a
    profile is the fewest further sort-s items the block needs to reach an
    allowed profile, its earlier sorts fixed and its later ones free; it
    exceeds a+b where none can be reached. Blocks are disjoint, so a child is
    followed only while the owed sum is at most the sort-s items still to
    place. The sum is recomputed at the first sort-1 item, and it is 0 at
    every leaf, so every leaf is admissible.

    The walk backtracks in this one frame (as in Knuth's restricted-growth
    string generator, TAOCP 7.2.1.5): per position it keeps the code, whether
    the item opened a block and the sum owed on entry, and the last position
    yields its leaves without descending. Nothing, not even the tables, is
    computed before the first code is asked for.
    """
    tgt = _as_vector(target, forbidden.dim)
    a, b = tgt[0], tgt[1] if forbidden.dim == 2 else 0
    m, width = a + b, b + 1
    if not m:
        yield ()
        return

    def deficit(flags: list[bool]) -> list[int]:
        """Distance from each index to the next set flag at or after it."""
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
    # per position: its deficit table, the index step of joining a block, and
    # the items of its sort left to place after it
    owes = [owe0] * a + [owe1] * b
    steps = [width] * a + [1] * b
    lefts = [*range(a - 1, -1, -1), *range(b - 1, -1, -1)]
    code = [0] * m
    opened = [False] * m
    owed_in = [0] * m
    blocks: list[int] = []  # the profile index of each block
    last = m - 1
    pos, j = 0, 0  # j: the next choice to try at pos, len(blocks) opening a block
    while True:
        owe, step, left, owed = owes[pos], steps[pos], lefts[pos], owed_in[pos]
        if pos == last:
            for j, p in enumerate(blocks):
                if owed - owe[p] + owe[p + step] <= left:
                    code[pos] = j
                    yield tuple(code)
            if owed + owe[step] <= left:
                code[pos] = len(blocks)
                yield tuple(code)
        else:
            nb = len(blocks)
            while j < nb:
                p = blocks[j]
                after = owed - owe[p] + owe[p + step]
                if after <= left:
                    blocks[j] = p + step
                    break
                j += 1
            else:
                after = owed + owe[step]
                if j == nb and after <= left:
                    blocks.append(step)
                else:
                    j = -1  # no child left: backtrack
            if j >= 0:
                code[pos], opened[pos] = j, j == nb
                pos += 1
                owed_in[pos] = sum(owe1[p] for p in blocks) if pos == a else after
                j = 0
                continue
        pos -= 1
        if pos < 0:
            return
        j = code[pos]
        if opened[pos]:
            blocks.pop()
        else:
            blocks[j] -= steps[pos]
        j += 1


class TruncatedEGF(NamedTuple):
    """Truncated exponential generating function sum c_m x^m / m!, held as
    its integer counts c_m = m! [x^m] within the given componentwise bounds:
    a tuple in dimension 1, a tuple of row tuples in dimension 2. m! is the
    product of the factorials of m's coordinates."""

    bounds: Vector
    counts: tuple

    def __repr__(self) -> str:
        return f"TruncatedEGF(bounds={self.bounds!r})"

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def count(self, n: int | Vector) -> int:
        v = _as_vector(n, self.dim)
        if any(x > b for x, b in zip(v, self.bounds)):
            raise BadParams(f"{v} outside truncation bounds {self.bounds}")
        if self.dim == 1:
            return self.counts[v[0]]
        return self.counts[v[0]][v[1]]


def _binomials(top: int) -> list[list[int]]:
    """Rows 0..top of Pascal's triangle."""
    rows = [[1]]
    for _ in range(top):
        prev = rows[-1]
        rows.append([1, *map(add, prev, prev[1:]), 1])
    return rows


def _exp_1d(weights: Sequence[int], bound: int) -> list[int]:
    """c_n = n! [x^n] exp(sum_{i>=1} weights[i] x^i / i!) for n <= bound.
    Splitting off the block that holds the first element gives
    c_n = sum_i C(n-1, i-1) weights[i] c_(n-i)."""
    binom = _binomials(bound)
    terms = [(i, w) for i, w in enumerate(weights[1 : bound + 1], 1) if w]
    sizes = [i for i, _ in terms]
    c = [1] + [0] * bound
    for n in range(1, bound + 1):
        row = binom[n - 1]
        c[n] = sum(row[i - 1] * w * c[n - i] for i, w in terms[: bisect_right(sizes, n)])
    return c


def _exp_2d(weights: Mapping[Vector, int], bounds: Vector) -> list[list[int]]:
    """c(a, b) = a! b! [x^a y^b] exp(sum w_(i,j) x^i y^j / (i! j!)) within the
    bounds. The a = 0 line is the 1-D exp in y. For a >= 1 the block that
    holds the first x-element takes i-1 of the other a-1 and j of the b
    y-elements: c(a, b) = sum C(a-1, i-1) C(b, j) w_(i,j) c(a-i, b-j).

    The sum is taken in two steps. The sizes i are grouped by their weight
    row, the (j, w_(i,j)) with w nonzero; on the grid every i >= 4 has the
    same one. Once row a' of c is finished, T_r(a', b) = sum_j C(b, j) w_j
    c(a', b-j) is computed for each distinct row r that some size i with
    a' + i <= b1 has, and then c(a, b) = sum_i C(a-1, i-1) T_(row of i)(a-i, b).
    So each j-sum is done once per finished row and weight row, not once
    per size and later row as well."""
    b1, b2 = bounds
    c = [_exp_1d([weights.get((0, j), 0) for j in range(b2 + 1)], b2)]
    rows: dict[int, list[tuple[int, int]]] = {}
    for (i, j), w in weights.items():
        if 1 <= i <= b1 and j <= b2 and w:
            rows.setdefault(i, []).append((j, w))
    sizes = sorted(rows)
    # column j of Pascal's triangle from b = j on: the prefix sums of column j-1
    cols = [[1] * (b2 + 1)]
    for j in range(1, b2 + 1):
        cols.append(list(accumulate(cols[-1][: b2 + 1 - j])))
    # per distinct weight row: its smallest size, each j with the C(b, j) w_j
    # for b >= j, and the T rows computed so far; per size, its row's T rows
    plans: dict[tuple, tuple[int, list, list]] = {}
    reads = []
    for i in sizes:
        r = tuple(sorted(rows[i]))
        if r not in plans:
            plans[r] = (i, [(j, cols[j] if w == 1 else [w * x for x in cols[j]]) for j, w in r], [])
        reads.append(plans[r][2])
    binom = _binomials(b1)
    for a in range(1, b1 + 1):
        done = c[a - 1]
        for first, terms, out in plans.values():
            if a - 1 + first <= b1:  # some later row reads it
                t = [0] * (b2 + 1)
                for j, cw in terms:
                    t[j:] = map(add, t[j:], map(mul, cw, done))
                out.append(t)
        n = bisect_right(sizes, a)
        choose = binom[a - 1]
        scale = [choose[i - 1] for i in sizes[:n]]
        parts = [read[a - i] for i, read in zip(sizes[:n], reads)]
        c.append([sum(map(mul, scale, col)) for col in zip(*parts)] if n else [0] * (b2 + 1))
    return c


def partition_count_series(forbidden: ForbiddenProfiles, bounds: int | Vector) -> TruncatedEGF:
    """Exponential generating function of the admissible-partition counts:
    exp of sum x^m / m! over the allowed profiles m within the bounds."""
    bnd = _as_vector(bounds, forbidden.dim)
    if forbidden.dim == 1:
        (top,) = bnd
        weights = [int(forbidden.allows((m,))) for m in range(top + 1)]
        return TruncatedEGF(bnd, tuple(_exp_1d(weights, top)))
    allowed = {v: 1 for v in _boxed_vectors(bnd) if forbidden.allows(v)}
    return TruncatedEGF(bnd, tuple(map(tuple, _exp_2d(allowed, bnd))))


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


def grid_component_codes(k: int, l: int) -> Iterator[tuple[int, ...]]:
    """RGS codes of the component partitions of the k x l grid (k, l >= 3)
    over hyperplanes rows 0..k-1 then columns k..k+l-1, in RGS-lex order:
    every block has a profile grid_forbidden allows, and no block holds every
    row or every column without holding all k+l hyperplanes."""
    if k < 3 or l < 3:
        raise RangeUnsupported(f"grid components need k, l >= 3, got {k}, {l}")
    base = grid_forbidden().forbids

    def forbids(v: Vector) -> bool:
        return base(v) or (v[0] == k or v[1] == l) and v != (k, l)

    return admissible_codes((k, l), ForbiddenProfiles(2, forbids))


def line_component_codes(n: int) -> Iterator[tuple[int, ...]]:
    """RGS codes of the component partitions of the n lines (n >= 4), in
    RGS-lex order: no block of size 2, 3 or n-1."""
    if n < 4:
        raise RangeUnsupported(f"line components need n >= 4, got {n}")
    return admissible_codes(n, forbidden_sizes({2, 3, n - 1}))


_METHODS = ("enumerate", "formula", "egf")


def grid_component_count(k: int, l: int, method: str = "enumerate") -> int:
    """Number of components of the k x l grid decomposition."""
    if method not in _METHODS:
        raise BadParams(f"method must be one of {_METHODS}")
    if method == "enumerate":
        codes = grid_component_codes(k, l)  # checks k, l >= 3 before the budget; lazy
        if k + l > GRID_COUNT_BUDGET:
            raise EnumerationBudgetExceeded("grid hyperplane count", k + l, GRID_COUNT_BUDGET)
        return sum(1 for _ in codes)
    if k < GRID_FORMULA_MIN or l < GRID_FORMULA_MIN:
        raise RangeUnsupported(f"method {method!r} needs k, l >= {GRID_FORMULA_MIN}")
    if method == "formula":
        if k + l > GRID_FORMULA_BUDGET:
            raise EnumerationBudgetExceeded("grid formula", k + l, GRID_FORMULA_BUDGET)
        return admissible_partition_count((k, l), grid_forbidden()) - grid_excluded_count(k, l)
    if k + l > GRID_EGF_BUDGET:
        raise EnumerationBudgetExceeded("grid egf", k + l, GRID_EGF_BUDGET)
    admissible = partition_count_series(grid_forbidden(), (k, l)).count((k, l))
    return admissible - grid_excluded_count(k, l)


def line_component_count(n: int, method: str = "enumerate") -> int:
    """Number of components of the n-line decomposition."""
    if method not in _METHODS:
        raise BadParams(f"method must be one of {_METHODS}")
    if method == "enumerate":
        codes = line_component_codes(n)  # checks n >= 4 before the budget; lazy
        if n > LINE_COUNT_BUDGET:
            raise EnumerationBudgetExceeded("line count", n, LINE_COUNT_BUDGET)
        return sum(1 for _ in codes)
    if n < LINE_FORMULA_MIN:
        raise RangeUnsupported(f"method {method!r} needs n >= {LINE_FORMULA_MIN}")
    if method == "formula":
        if n > LINE_FORMULA_BUDGET:
            raise EnumerationBudgetExceeded("line formula", n, LINE_FORMULA_BUDGET)
        return admissible_partition_count(n, forbidden_sizes({2, 3})) - n
    if n > LINE_EGF_BUDGET:
        raise EnumerationBudgetExceeded("line egf", n, LINE_EGF_BUDGET)
    # n [x^n] of x e^x counts the n partitions with an (n-1)-block
    return partition_count_series(forbidden_sizes({2, 3}), n).count(n) - n
