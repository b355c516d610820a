"""Component counts by three routes that must agree.

* enumerate: walk the partitions of the hyperplanes whose blocks all have
  allowed profiles, the family's excluded blocks forbidden too, cutting a
  subtree once its blocks owe more than the hyperplanes left can give; the
  walk backtracks in one generator frame;
* formula: multinomial-weighted sums over vector partitions avoiding the
  forbidden block profiles, minus the closed-form count of partitions whose
  one big block swallows all rows or all columns; the walk takes a forced
  multiplicity in one step;
* egf: truncated exponential generating functions, held as the integer
  counts m! [x^m] that the labelled-exp recurrence computes, minus the
  counts of the excluded partitions.

Everything here is exact integer arithmetic: no Fraction and no float is
built on any route.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import factorial, prod
from operator import add
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
# partition numbers.
GRID_FORMULA_BUDGET = 40  # max k+l for the formula route
LINE_FORMULA_BUDGET = 60  # max n for the formula route

# The egf route is polynomial: about (k*l)^2 big-int products on the grid,
# most for k = l at a given k+l, and n^2 on the lines. At either limit a
# run takes 0.3-0.6 s (lines 800) or 0.5-0.75 s (grid 60x60) on a 2-core
# Xeon VM with Python 3.11, whose speed swings by up to 2x.
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


def _weighted_partitions(
    tgt: Vector, forbidden: ForbiddenProfiles
) -> Iterator[tuple[tuple | None, int]]:
    """Each multiset of allowed nonzero vectors summing to tgt, once, as
    (path, denom). path links the (vector, multiplicity) choices from the
    smallest part back to the largest, (v, m, rest) down to None; denom is
    the product of v!^m * m! over them, v! being the product of the
    factorials of v's coordinates.

    Vectors are taken as (a, b) pairs, b = 0 in dimension 1, in decreasing
    lexicographic order, each with its whole multiplicity at once. So the
    parts with a above what remains form a prefix, which bisect skips, and
    the parts past the last one that can fill a remaining coordinate are
    never tried. At that last part the multiplicity is forced, the one that
    empties the coordinate, and is taken in one step with denom * v!^m * m!.
    A leaf is yielded from its parent's frame, with no generator of its own.
    """
    vecs = sorted((v for v in _boxed_vectors(tgt) if forbidden.allows(v)), reverse=True)
    pairs = [(v[0], v[1] if forbidden.dim == 2 else 0) for v in vecs]
    facts = [factorial(a) * factorial(b) for a, b in pairs]
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
            v, f = vecs[idx], facts[idx]
            if idx == last_a or idx == last_b:
                m = ra // a if idx == last_a else rb // b
                ma, mb = ra - m * a, rb - m * b
                if ma < 0 or mb < 0 or idx == last_a and ma or idx == last_b and mb:
                    continue
                d = denom * f**m * factorial(m)
                if ma or mb:
                    yield from rec(ma, mb, idx + 1, (v, m, path), d)
                else:
                    yield (v, m, path), d
                continue
            m, d, ma, mb = 1, denom * f, ra - a, rb - b
            while ma >= 0 and mb >= 0:
                if ma or mb:
                    yield from rec(ma, mb, idx + 1, (v, m, path), d)
                else:
                    yield (v, m, path), d
                m += 1
                d *= f * m
                ma -= a
                mb -= b

    ra, rb = tgt[0], tgt[1] if forbidden.dim == 2 else 0
    return rec(ra, rb, 0, None, 1) if ra or rb else iter([(None, 1)])


def vector_partitions(
    target: int | Vector, forbidden: ForbiddenProfiles
) -> Iterator[tuple[Vector, ...]]:
    """Multisets of allowed nonzero vectors summing to the target, each yielded
    once with parts in decreasing lexicographic order."""

    def parts(path) -> tuple[Vector, ...]:
        out: list[Vector] = []
        while path:
            v, m, path = path
            out += [v] * m
        return tuple(reversed(out))

    walk = _weighted_partitions(_as_vector(target, forbidden.dim), forbidden)
    return (parts(path) for path, _ in walk)


def admissible_partition_count(target: int | Vector, forbidden: ForbiddenProfiles) -> int:
    """Number of set partitions of a ground set with target[i] items of sort i
    in which no block has a forbidden profile.

    Each vector partition of the target contributes target!/(prod part! *
    prod multiplicity!) labeled set partitions.
    """
    tgt = _as_vector(target, forbidden.dim)
    numer = prod(factorial(x) for x in tgt)
    total = 0
    for _, denom in _weighted_partitions(tgt, forbidden):
        q, r = divmod(numer, denom)
        if r:
            raise InvariantViolated(f"multinomial {numer}/{denom} is not an integer")
        total += q
    return total


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


def code_shape(code: Sequence[int], a: int) -> tuple[tuple[int, int], ...]:
    """The block profiles of an RGS code, sorted: (x, y) for each block with
    x items among the code's first a positions (sort 0) and y among the rest
    (sort 1), as admissible_codes places them. The shapes of the codes it
    yields are the leaves of vector_partitions' walk, as (a, b) pairs."""
    profiles = [[0, 0] for _ in range(max(code, default=-1) + 1)]
    for pos, block in enumerate(code):
        profiles[block][pos >= a] += 1
    return tuple(sorted(map(tuple, profiles)))


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
    y-elements: c(a, b) = sum C(a-1, i-1) C(b, j) w_(i,j) c(a-i, b-j)."""
    b1, b2 = bounds
    binom = _binomials(max(b1, b2))
    c = [_exp_1d([weights.get((0, j), 0) for j in range(b2 + 1)], b2)]
    terms = sorted((j, i, w) for (i, j), w in weights.items() if 1 <= i <= b1 and j <= b2 and w)
    for a in range(1, b1 + 1):
        # the parts with at most a x-elements, by y-count, with their x-binomial
        choose = binom[a - 1]
        fit = [(j, choose[i - 1] * w, c[a - i]) for j, i, w in terms if i <= a]
        cols = [j for j, _, _ in fit]
        row = []
        for b in range(b2 + 1):
            cb = binom[b]
            row.append(sum(t * cb[j] * prev[b - j] for j, t, prev in fit[: bisect_right(cols, b)]))
        c.append(row)
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


def grid_excluded_series(bounds: Vector) -> TruncatedEGF:
    """The generating function matching grid_excluded_count on all of its
    domain: e^(2x+y) + e^(x+2y) - (x^2+y^2+2x+2y+8)/2 * e^(x+y). Its count
    at (a, b) is 2^a + 2^b minus half of a(a-1) + b(b-1) + 2a + 2b + 8,
    because x^p y^q e^(x+y) contributes the falling factorials
    a!/(a-p)! * b!/(b-q)!."""
    b1, b2 = bounds
    return TruncatedEGF(
        bounds,
        tuple(
            tuple(
                2**a + 2**b - (a * (a - 1) + b * (b - 1) + 2 * a + 2 * b + 8) // 2
                for b in range(b2 + 1)
            )
            for a in range(b1 + 1)
        ),
    )


def grid_component_codes(k: int, l: int) -> Iterator[tuple[int, ...]]:
    """RGS codes of the component partitions of the k x l grid (k, l >= 3)
    over hyperplanes rows 0..k-1 then columns k..k+l-1, in RGS-lex order:
    every block has a profile grid_forbidden allows, and no block holds every
    row or every column without holding all k+l hyperplanes."""
    if k < 3 or l < 3:
        raise RangeUnsupported("enumeration needs k, l >= 3")
    base = grid_forbidden().forbids

    def forbids(v: Vector) -> bool:
        return base(v) or (v[0] == k or v[1] == l) and v != (k, l)

    return admissible_codes((k, l), ForbiddenProfiles(2, forbids))


def line_component_codes(n: int) -> Iterator[tuple[int, ...]]:
    """RGS codes of the component partitions of the n lines, in RGS-lex
    order: no block of size 2, 3 or n-1."""
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
    return admissible - grid_excluded_series((k, l)).count((k, l))


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
    if n > LINE_EGF_BUDGET:
        raise EnumerationBudgetExceeded("line egf", n, LINE_EGF_BUDGET)
    # n [x^n] of x e^x counts the n partitions with an (n-1)-block
    return partition_count_series(forbidden_sizes({2, 3}), n).count(n) - n
