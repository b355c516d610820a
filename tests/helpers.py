"""Independent oracles and random-structure generators for the tests.

These deliberately avoid the library's own enumeration code paths: set
partitions come from a plain insertion recursion, independence from a direct
subset scan, rank and closure from exhaustive search, indented JSON from the
stdlib's own encoder.

Beside them stand the plain constructions that only the tests use: the
tameness test (is_tame), every set partition as a restricted growth string
(iter_rgs), the blocks, block unions and shape of such a code
(rgs_to_blocks, block_union, code_shape: the oracles of the listing's
one pass over each code), the merged representation of a hyperplane
partition (merged_rep), the vector partitions of the formula route
(vector_partitions), the egf route's 2-D kernel summed cell by cell
(cellwise_exp_2d), and the writer of a hypergraph file (quasi_to_dict).
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, groupby
from math import comb, factorial, prod
from typing import Iterable, Iterator, Sequence

from pavemat import MatroidError, QuasiRep, quasi_rep, small_circuits
from pavemat.bitset import _ROWS_PER_PIECE, bit_list, mask_of, overlaps, sort_key
from pavemat.counting import (
    ForbiddenProfiles,
    TruncatedEGF,
    Vector,
    _as_vector,
    _binomials,
    _boxed_vectors,
    _exp_1d,
    _weighted_partitions,
)
from pavemat.decomposition import Classification
from pavemat.errors import BadParams
from pavemat.io import CIRCUIT_LIST_INLINE_LIMIT, json_pieces, mask_to_labels
from pavemat.paving import PavingMatroid, paving_from_hyperplanes
from pavemat.quasi import type3_count


class NotTame(MatroidError):
    pass


def m1(*elems: int) -> int:
    """Mask from 1-based element labels, as printed in worked examples."""
    return mask_of(e - 1 for e in elems)


def json_oracle(obj) -> str:
    """The stdlib's indented JSON, the layout every JSON export follows."""
    return json.dumps(obj, indent=2, sort_keys=True)


def joined_json(obj, *fills) -> str:
    """The whole text that io.json_pieces writes in pieces."""
    return "".join(json_pieces(obj, *fills))


def listing_dict(result, circuits=None) -> dict:
    """The object of a listing's JSON, built per component from its reports,
    as the writer once built it: the oracle of the per-shape layout. With
    circuits, a function from a representation to its circuit masks, a
    component lists its circuits when it has at most
    io.CIRCUIT_LIST_INLINE_LIMIT of them."""
    labels = result.hyperplane_labels
    components = []
    for report in result.components:
        c = report.classification
        classification: dict = {"kind": c.kind}
        if c.uniform_params is not None:
            r, d = c.uniform_params
            classification["uniform"] = {"rank": r, "d": d}
        if c.histogram is not None:
            classification["circuit_count_by_size"] = {str(size): count for size, count in sorted(c.histogram.items())}
        profile = report.profile
        matroid: dict = {"d": report.rep.d, "rank": profile.rank}
        if circuits and profile.type1 + profile.type2 + profile.type3 <= CIRCUIT_LIST_INLINE_LIMIT:
            matroid["circuits"] = [mask_to_labels(m) for m in circuits(report.rep)]
        partition = [[labels[i] for i in block] for block in report.blocks]
        components.append({"partition": partition, "classification": classification, "matroid": matroid})
    return {
        "family": result.family,
        "params": result.params,
        "hyperplanes": {label: mask_to_labels(mask) for label, mask in zip(labels, result.hyperplane_masks)},
        "component_count": result.component_count,
        "components": components,
    }


def label_rows(masks, before: str, sep: str, end: str) -> str:
    """For each mask in turn: before, the 1-based labels of its set bits
    joined by sep, then end."""
    return "".join(before + sep.join(map(str, bit_list(m, 1))) + end for m in masks)


def label_pieces(masks, before: str, sep: str, end: str) -> Iterator[str]:
    """A row writer, as io.rows_list takes, over the masks: label_rows of
    _ROWS_PER_PIECE of them at a time."""
    for start in range(0, len(masks), _ROWS_PER_PIECE):
        yield label_rows(masks[start : start + _ROWS_PER_PIECE], before, sep, end)


def set_partitions(items: list) -> Iterator[list[list]]:
    """All partitions of items, by inserting the first item everywhere."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in set_partitions(rest):
        for i in range(len(p)):
            yield p[:i] + [[first] + p[i]] + p[i + 1 :]
        yield [[first]] + p


def iter_rgs(m: int) -> Iterator[list[int]]:
    """All restricted growth strings of length m, lex order: the codes
    a[0..m-1] with a[0] = 0 and a[i] <= 1 + max(a[:i]), each naming the
    partition whose blocks are the level sets of a, from the one-block
    partition to the discrete one.

    The yielded list is a reused buffer; copy it if you keep it.
    """
    a = [0] * m
    if m <= 1:
        yield a
        return
    b = [1] * m
    while True:
        yield a
        j = m - 1
        while j > 0 and a[j] == b[j]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        nb = b[j] + 1 if a[j] == b[j] else b[j]
        for t in range(j + 1, m):
            a[t] = 0
            b[t] = nb


def rgs_to_blocks(code: Sequence[int]) -> list[list[int]]:
    """The blocks of the set partition whose restricted growth string is
    code (code[0] = 0, each entry at most one above the largest before it):
    the positions holding each value, in order of first appearance."""
    blocks: list[list[int]] = []
    for i, c in enumerate(code):
        if c == len(blocks):
            blocks.append([])
        blocks[c].append(i)
    return blocks


def block_union(hyperplanes: Sequence[int], block: Iterable[int]) -> int:
    """The union of the hyperplanes with the given indices."""
    union = 0
    for i in block:
        union |= hyperplanes[i]
    return union


def code_shape(code: Sequence[int], a: int) -> tuple[tuple[int, int], ...]:
    """The block profiles of an RGS code, sorted: (x, y) for each block with
    x items among the code's first a positions (sort 0) and y among the rest
    (sort 1), as admissible_codes places them. The shapes of the codes it
    yields are the leaves of _weighted_partitions' walk, as (a, b) pairs."""
    profiles = [[0, 0] for _ in range(max(code, default=-1) + 1)]
    for pos, block in enumerate(code):
        profiles[block][pos >= a] += 1
    return tuple(sorted(map(tuple, profiles)))


def iter_set_partitions(m: int) -> Iterator[list[list[int]]]:
    """All partitions of range(m) as block lists, RGS-lex order."""
    for code in iter_rgs(m):
        yield rgs_to_blocks(code)


def clutters(d: int) -> list[tuple[int, ...]]:
    """Every clutter (set of pairwise incomparable nonempty subsets) on
    {0..d-1}, as mask tuples, the empty one included."""
    out = []

    def extend(chosen: list[int], start: int) -> None:
        out.append(tuple(chosen))
        for s in range(start, 1 << d):
            if all(s & c not in (s, c) for c in chosen):
                chosen.append(s)
                extend(chosen, s + 1)
                chosen.pop()

    extend([], 1)
    return out


def brute_independent(circuits: tuple[int, ...], s: int) -> bool:
    return not any(c & s == c for c in circuits)


def brute_rank(circuits: tuple[int, ...], s: int) -> int:
    elems = [e for e in range(s.bit_length()) if (s >> e) & 1]
    for size in range(len(elems), -1, -1):
        for combo in combinations(elems, size):
            if brute_independent(circuits, mask_of(combo)):
                return size
    return 0


def brute_closure(circuits: tuple[int, ...], s: int, d: int) -> int:
    r = brute_rank(circuits, s)
    out = s
    for e in range(d):
        if not (s >> e) & 1 and brute_rank(circuits, s | (1 << e)) == r:
            out |= 1 << e
    return out


def _subsets(elems, r: int):
    """The r-element combinations of elems; none when r exceeds their
    number, without the r-slot index array combinations allocates first."""
    return combinations(elems, r) if r <= len(elems) else ()


def _qualifying_pairs(rep: QuasiRep) -> list[int]:
    return [a & b for a, b in combinations(rep.members, 2) if (a & b).bit_count() >= rep.n - 1]


def brute_small_circuits(rep: QuasiRep) -> frozenset[int]:
    """Types 1 and 2 by testing every (n-1)-subset of each qualifying pair and
    every n-subset of each member against the type-1 sets."""
    n = rep.n
    pairs = _qualifying_pairs(rep)
    out: set[int] = set()
    for pm in pairs:
        elems = [e for e in range(rep.d) if (pm >> e) & 1]
        out.update(mask_of(c) for c in _subsets(elems, n - 1))
    for h in rep.members:
        elems = [e for e in range(rep.d) if (h >> e) & 1]
        for combo in _subsets(elems, n):
            m = mask_of(combo)
            if not any((m & pm).bit_count() >= n - 1 for pm in pairs):
                out.add(m)
    return frozenset(out)


def polynomial_circuit_key(rep: QuasiRep) -> tuple:
    """quasi.circuit_key by the truncated-polynomial route: member H is active
    when the coefficient of x^n is nonzero in the product of the truncated
    binomials (1 + x)^|cell| over H's cells, up to x^cap, with cap n+1 on
    H's private part and n-2 on each intersection with another member."""
    n = rep.n
    inters = [
        (i, j, a & b) for (i, a), (j, b) in combinations(enumerate(rep.members), 2) if a & b
    ]
    qualifying = sorted(inter for _, _, inter in inters if inter.bit_count() >= n - 1)
    active = []
    for i, h in enumerate(rep.members):
        mine = [inter for a, b, inter in inters if i in (a, b)]
        private = h
        for inter in mine:
            private &= ~inter
        inside = [1] + [0] * n
        for mask, cap in [(private, n + 1)] + [(inter, n - 2) for inter in mine]:
            size = mask.bit_count()
            poly = [comb(size, t) for t in range(min(size, cap) + 1)]
            inside = [
                sum(poly[t] * inside[s - t] for t in range(min(s, len(poly) - 1) + 1))
                for s in range(n + 1)
            ]
        if inside[n]:
            active.append(h)
    if n == 2:
        loops = sum(qualifying)
        return (loops, tuple(sorted(h & ~loops for h in active)))
    return (tuple(qualifying), tuple(sorted(active)))


def brute_type3_circuits(rep: QuasiRep) -> list[int]:
    """Type 3 by testing every (n+1)-subset of the ground set, in
    lexicographic order."""
    n = rep.n
    pairs = _qualifying_pairs(rep)
    out = []
    for combo in _subsets(range(rep.d), n + 1):
        m = mask_of(combo)
        if any((m & pm).bit_count() >= n - 1 for pm in pairs):
            continue
        if any((m & h).bit_count() >= n for h in rep.members):
            continue
        out.append(m)
    return out


def brute_quasi_circuits(rep: QuasiRep) -> tuple[int, ...]:
    return tuple(sorted(brute_small_circuits(rep), key=sort_key)) + tuple(brute_type3_circuits(rep))


def is_tame(p: PavingMatroid) -> bool:
    """Any three hyperplanes meet emptily; for a set system this is the same
    as no element lying on three of them."""
    return not overlaps(p.hyperplanes)[2]


def merged_rep(p: PavingMatroid, blocks) -> QuasiRep:
    """Hypergraph whose members are the unions of the hyperplanes in each
    block of a partition of p's hyperplane indices; tameness of p makes it
    automatically valid (no element can reach three members)."""
    if not is_tame(p):
        raise NotTame("merged matroids are defined for tame bases only")
    blocks = [list(block) for block in blocks]
    if sorted(i for block in blocks for i in block) != list(range(len(p.hyperplanes))):
        raise BadParams("blocks do not partition the hyperplane indices")
    members = [block_union(p.hyperplanes, block) for block in blocks]
    return QuasiRep(p.d, p.n, tuple(sorted(members, key=sort_key)))


def quasi_to_dict(rep: QuasiRep) -> dict:
    """The dict of a hypergraph file (io.quasi_from_dict's input) holding rep."""
    return {"d": rep.d, "n": rep.n, "H": [mask_to_labels(h) for h in rep.members]}


def listed_reps(res, reports) -> list[QuasiRep]:
    """The representation of each report read from a level-3 listing res,
    rebuilt by merged_rep from its blocks of the listing's hyperplanes."""
    base = PavingMatroid(reports[0].rep.d, 3, res.hyperplane_masks)
    return [merged_rep(base, c.blocks) for c in reports]


def listed_signatures(res, reports) -> list[frozenset[int]]:
    """quasi.small_circuits of each report read from a level-3 listing."""
    return [small_circuits(rep) for rep in listed_reps(res, reports)]


def signature_classification(rep: QuasiRep, sig: frozenset[int], base_sig: frozenset[int], rank: int):
    """The classification read off the small circuits themselves: uniform when
    they are exactly the (rank+1)-subsets of the ground set (none at full
    rank), equals-base when they are the base's, else other with the circuit
    sizes counted one by one."""
    d, n = rep.d, rep.n
    if rank == n:
        uniform = not sig
    else:
        uniform = all(c.bit_count() == rank + 1 for c in sig) and len(sig) == comb(d, rank + 1)
    if uniform:
        return Classification("uniform", uniform_params=(rank, d))
    if sig == base_sig:
        return Classification("equals-base")
    hist = {}
    for c in sig:
        hist[c.bit_count()] = hist.get(c.bit_count(), 0) + 1
    hist[n + 1] = type3_count(rep)
    return Classification("other", histogram=hist)


def brute_paving_circuits(p: PavingMatroid) -> tuple[int, ...]:
    """n-subsets of the hyperplanes, then every (n+1)-subset holding at most
    n-1 elements of each hyperplane."""
    n = p.n
    small = set()
    for l in p.hyperplanes:
        elems = [e for e in range(p.d) if (l >> e) & 1]
        small.update(mask_of(c) for c in combinations(elems, n))
    big = [
        mask_of(c)
        for c in combinations(range(p.d), n + 1)
        if all((mask_of(c) & l).bit_count() <= n - 1 for l in p.hyperplanes)
    ]
    return tuple(sorted(small, key=sort_key)) + tuple(big)


def random_quasi_rep(rng: random.Random, max_d: int = 12) -> QuasiRep:
    """A valid representation built constructively: each element is dealt into
    at most two member slots, so no triple intersection can appear."""
    d = rng.randint(4, max_d)
    n = rng.randint(2, min(4, d - 1))
    k = rng.randint(1, 4)
    members = [0] * k
    for e in range(d):
        picks = rng.sample(range(k), min(k, rng.choice((0, 1, 1, 2, 2))))
        for i in picks:
            members[i] |= 1 << e
    return quasi_rep(d, n, [m for m in members if m])


def random_tame_rep(rng: random.Random, max_d: int = 12) -> QuasiRep:
    """Like random_quasi_rep, but also with levels up to 5, levels above d,
    ground sets down to 0, empty members, no members at all, and a member
    repeated (the copy takes the original's private elements only, so it
    stays tame)."""
    d = rng.randint(0, max_d)
    n = rng.randint(2, 5)
    members = [0] * rng.randint(0, 4)
    for e in range(d):
        for i in rng.sample(range(len(members)), min(len(members), rng.choice((0, 1, 1, 2, 2)))):
            members[i] |= 1 << e
    if members and rng.random() < 0.3:
        h = members[0]
        for other in members[1:]:
            h &= ~other
        members[0] = h
        members.append(h)
    return quasi_rep(d, n, members)


def random_full_rank_rep(rng: random.Random, max_d: int = 10) -> QuasiRep:
    from oracles import quasi_matroid

    while True:
        rep = random_quasi_rep(rng, max_d)
        if rep.n >= 3 and quasi_matroid(rep).rank_value == rep.n:
            return rep


def random_paving(rng: random.Random, max_d: int = 12) -> PavingMatroid:
    """Random rank-3 hyperplane system kept greedily under the pairwise bound."""
    d = rng.randint(5, max_d)
    hyps: list[int] = []
    for _ in range(rng.randint(0, 6)):
        size = rng.randint(3, min(5, d))
        cand = mask_of(rng.sample(range(d), size))
        if all((cand & h).bit_count() <= 1 for h in hyps) and cand not in hyps:
            hyps.append(cand)
    return paving_from_hyperplanes(d, 3, hyps)


def brute_vector_partitions(tgt: Vector, forbidden: ForbiddenProfiles) -> Iterator[tuple[Vector, ...]]:
    """Multisets of allowed vectors summing to tgt, one part at a time in
    decreasing order, every part tested for fit at every node."""
    parts = sorted((v for v in _boxed_vectors(tgt) if forbidden.allows(v)), reverse=True)

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


def vector_partitions(target: int | Vector, forbidden: ForbiddenProfiles) -> Iterator[tuple[Vector, ...]]:
    """Multisets of allowed nonzero vectors summing to the target, each yielded
    once with parts in decreasing lexicographic order: the leaves of the
    formula route's walk (counting._weighted_partitions)."""

    def parts(path) -> tuple[Vector, ...]:
        out: list[Vector] = []
        while path:
            v, m, path = path
            out += [v] * m
        return tuple(reversed(out))

    walk = _weighted_partitions(_as_vector(target, forbidden.dim), forbidden)
    return (parts(path) for path, _ in walk)


def brute_admissible_count(tgt: Vector, forbidden: ForbiddenProfiles) -> int:
    """Sum of tgt!/(prod part! * prod multiplicity!) over
    brute_vector_partitions, multiplicities regrouped from each multiset."""
    numer = 1
    for x in tgt:
        numer *= factorial(x)
    total = 0
    for parts in brute_vector_partitions(tgt, forbidden):
        denom = 1
        for v, group in groupby(parts):
            mult = len(list(group))
            vfact = 1
            for x in v:
                vfact *= factorial(x)
            denom *= vfact**mult * factorial(mult)
        q, r = divmod(numer, denom)
        assert r == 0
        total += q
    return total


def coefficient(series: TruncatedEGF, n: int | Vector) -> Fraction:
    """[x^n] of a truncated series: its count at n over n!, the product of
    the factorials of n's coordinates."""
    v = (n,) if isinstance(n, int) else tuple(n)
    return Fraction(series.count(v), prod(map(factorial, v)))


def fraction_exp_1d(alpha: list[Fraction], bound: int) -> list[Fraction]:
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


def cellwise_exp_2d(weights: dict[Vector, int], bounds: Vector) -> list[list[int]]:
    """counting._exp_2d's counts, each cell its own sum: the a = 0 line is
    the 1-D exp in y, and for a >= 1
    c(a, b) = sum C(a-1, i-1) C(b, j) w_(i,j) c(a-i, b-j) over every
    allowed (i, j) <= (a, b)."""
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


def fraction_exp_2d(alpha: dict[Vector, Fraction], bounds: Vector) -> list[list[Fraction]]:
    """2-D analogue: the x-derivative recurrence fills columns a >= 1, and the
    a = 0 line is a 1-D exp in y."""
    b1, b2 = bounds
    e = [[Fraction(0)] * (b2 + 1) for _ in range(b1 + 1)]
    col0 = [alpha.get((0, j), Fraction(0)) for j in range(b2 + 1)]
    e[0] = fraction_exp_1d(col0, b2)
    terms = [(i, j, c) for (i, j), c in alpha.items() if i >= 1 and c]
    for a in range(1, b1 + 1):
        for b in range(b2 + 1):
            acc = Fraction(0)
            for i, j, c in terms:
                if i <= a and j <= b:
                    acc += i * c * e[a - i][b - j]
            e[a][b] = acc / a
    return e
