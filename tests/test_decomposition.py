from collections import Counter
from math import factorial, prod

import pytest

from pavemat import (
    GridLayout,
    LineArrangement,
    decompose_grid,
    decompose_lines,
    grid_component_count,
    grid_matroid,
    line_component_count,
    line_matroid,
    paving_from_hyperplanes,
    quasi_rep,
)
from pavemat import decomposition
from pavemat.counting import (
    ForbiddenProfiles,
    forbidden_sizes,
    grid_component_codes,
    grid_forbidden,
    line_component_codes,
)
from pavemat.decomposition import _decompose, _read_code
from pavemat.errors import EnumerationBudgetExceeded, InvariantViolated, RangeUnsupported
from pavemat.quasi import circuit_profile, small_circuits

from helpers import (
    NotTame,
    block_union,
    code_shape,
    iter_set_partitions,
    listed_reps,
    listed_signatures,
    merged_rep,
    m1,
    rgs_to_blocks,
    signature_classification,
    vector_partitions,
)
from oracles import (
    Liftability,
    dependency_leq,
    grid_component_partitions,
    hyperplane_submatroid,
    is_component_partition,
    is_grid_component_partition,
    is_line_component_partition,
    is_nilpotent,
    is_uniform,
    line_component_partitions,
    liftability_oracle,
    paving_to_matroid,
    quasi_matroid,
)

QS = [m1(1, 2, 3), m1(1, 5, 6), m1(3, 4, 5), m1(2, 4, 6)]


def _grid_partition(k, l, logical_blocks):
    """Partition of the grid paving's canonical hyperplane order, given blocks
    over the logical order (rows 0..k-1, then columns)."""
    p = grid_matroid(k, l)
    layout = GridLayout(k, l)
    logical = layout.row_masks() + layout.col_masks()
    to_canon = {i: p.hyperplanes.index(mask) for i, mask in enumerate(logical)}
    return p, [[to_canon[i] for i in block] for block in logical_blocks]


def test_merged_rows_make_parallel_classes():
    # merging the three rows of the 3x3 grid yields rank 2 with the columns as
    # parallel classes
    p, part = _grid_partition(3, 3, [[0, 1, 2], [3], [4], [5]])
    m = quasi_matroid(merged_rep(p, part))
    assert m.rank_value == 2
    for col in ([1, 2], [1, 3], [2, 3], [4, 5], [7, 9]):
        assert not m.is_independent(m1(*col))
    assert m.is_independent(m1(1, 4))


def test_merged_trivial_is_uniform():
    p, part = _grid_partition(3, 4, [list(range(7))])
    assert is_uniform(quasi_matroid(merged_rep(p, part))) == (2, 12)


def test_merged_discrete_is_base():
    p, part = _grid_partition(3, 4, [[i] for i in range(7)])
    m = quasi_matroid(merged_rep(p, part))
    base = paving_to_matroid(p)
    assert m.circuits() == base.circuits()


def test_merged_requires_tame():
    fano = paving_from_hyperplanes(
        7, 3, [m1(1, 2, 4), m1(1, 3, 7), m1(1, 5, 6), m1(2, 3, 5), m1(2, 6, 7), m1(3, 4, 6), m1(4, 5, 7)]
    )
    with pytest.raises(NotTame):
        merged_rep(fano, [[i] for i in range(7)])


def test_liftability_nilpotent():
    concurrent = paving_from_hyperplanes(7, 3, [m1(1, 2, 7), m1(3, 4, 7), m1(5, 6, 7)])
    v = liftability_oracle(concurrent)
    assert v.status is Liftability.LIFTABLE and v.reason == "nilpotent"


def test_liftability_grid_cores():
    assert liftability_oracle(grid_matroid(3, 3)).status is Liftability.LIFTABLE
    assert liftability_oracle(grid_matroid(3, 3)).reason == "grid-core(3,3)"
    v34 = liftability_oracle(grid_matroid(3, 4))
    assert v34.status is Liftability.NOT_LIFTABLE
    assert v34.reason in ("grid-core(3,4)", "grid-core(4,3)")
    assert liftability_oracle(grid_matroid(5, 6)).status is Liftability.NOT_LIFTABLE


def test_liftability_line_cores():
    qs = paving_from_hyperplanes(6, 3, QS)
    v = liftability_oracle(qs)
    assert v.status is Liftability.NOT_LIFTABLE and v.reason == "line-core(4)"
    assert liftability_oracle(line_matroid(6)).reason == "line-core(6)"


def test_liftability_two_lines_nilpotent():
    two_lines = paving_from_hyperplanes(5, 3, [m1(1, 2, 3), m1(1, 4, 5)])
    v = liftability_oracle(two_lines)
    assert v.status is Liftability.LIFTABLE and v.reason == "nilpotent"


def test_liftability_unknown_on_unrecognized_core():
    # two disjoint quadrilateral sets: every point keeps degree two, but the
    # core is neither a grid nor a single line arrangement
    qs2 = [l << 6 for l in QS]
    p = paving_from_hyperplanes(12, 3, QS + qs2)
    v = liftability_oracle(p)
    assert v.status is Liftability.UNKNOWN and v.reason == "unrecognized-core"


def test_grid_partition_conditions():
    trivial44 = [list(range(8))]
    assert is_grid_component_partition(4, 4, trivial44)
    discrete44 = [[i] for i in range(8)]
    assert is_grid_component_partition(4, 4, discrete44)
    trivial33 = [list(range(6))]
    assert not is_grid_component_partition(3, 3, trivial33)  # 3x3 block is too square
    # a (3,4) block beside anything else swallows all columns
    assert not is_grid_component_partition(3, 4, [[0, 1, 2, 3, 4, 5], [6]])


def test_line_partition_conditions():
    assert is_line_component_partition(6, [[0, 1, 2, 3], [4], [5]])
    assert not is_line_component_partition(5, [[0, 1, 2, 3], [4]])  # size 4 = n-1
    assert is_line_component_partition(7, [[i] for i in range(7)])
    assert not is_line_component_partition(7, [[0, 1], [2], [3], [4], [5], [6]])


def test_generic_condition_ii_violation():
    # grouping the three rows of the 3x4 grid: every column line falls inside
    p, part = _grid_partition(3, 4, [[0, 1, 2], [3], [4], [5], [6]])
    assert is_component_partition(p, part) is False


def test_generic_on_34_trivial_and_discrete():
    p, part = _grid_partition(3, 4, [list(range(7))])
    assert is_component_partition(p, part) is True
    p, part = _grid_partition(3, 4, [[i] for i in range(7)])
    assert is_component_partition(p, part) is True


def test_generic_agrees_with_closed_forms_grids():
    for k, l in ((3, 3), (3, 4), (4, 4), (3, 5), (4, 5)):
        p = grid_matroid(k, l)
        layout = GridLayout(k, l)
        logical = layout.row_masks() + layout.col_masks()
        to_canon = {i: p.hyperplanes.index(mask) for i, mask in enumerate(logical)}
        for blocks in iter_set_partitions(k + l):
            closed = is_grid_component_partition(k, l, blocks)
            generic = is_component_partition(p, [[to_canon[i] for i in b] for b in blocks])
            assert generic is not None
            assert generic == closed


def test_generic_agrees_with_closed_forms_lines():
    for n in (4, 5, 6, 7):
        p = line_matroid(n)
        for blocks in iter_set_partitions(n):
            closed = is_line_component_partition(n, blocks)
            generic = is_component_partition(p, blocks)
            assert generic is not None
            assert generic == closed


def test_decompose_grid_3_5():
    components = list(decompose_grid(3, 5).components)
    kinds = sorted(c.classification.kind for c in components)
    assert kinds == ["equals-base", "uniform"]
    uni = next(c for c in components if c.classification.kind == "uniform")
    assert uni.classification.uniform_params == (2, 15)


def test_decompose_grid_4_5():
    res = decompose_grid(4, 5)
    components = list(res.components)
    assert res.component_count == len(components) == 22
    kinds = [c.classification.kind for c in components]
    assert kinds.count("uniform") == 1
    assert kinds.count("equals-base") == 1
    assert kinds.count("other") == 20
    uni = next(c for c in components if c.classification.kind == "uniform")
    assert uni.classification.uniform_params == (2, 20)
    # the 20 mixed components each have one row singleton, one column
    # singleton, and one block of the remaining seven hyperplanes
    for c in components:
        if c.classification.kind == "other":
            sizes = sorted(len(b) for b in c.blocks)
            assert sizes == [1, 1, 7]


def test_decompose_grid_3_3():
    res = decompose_grid(3, 3)
    assert res.component_count == 1
    (component,) = res.components
    assert component.classification.kind == "equals-base"


def test_decompose_lines():
    assert len(list(decompose_lines(4).components)) == 2
    assert len(list(decompose_lines(5).components)) == 2
    res6 = decompose_lines(6)
    assert res6.component_count == 17
    with_size4 = [
        c for c in res6.components if any(len(b) == 4 for b in c.blocks)
    ]
    assert len(with_size4) == 15


def test_decompose_budget_guard():
    with pytest.raises(EnumerationBudgetExceeded):
        decompose_grid(8, 8)
    with pytest.raises(EnumerationBudgetExceeded):
        decompose_lines(13)
    # the size checks are those of the component codes, before the budget
    with pytest.raises(RangeUnsupported, match=r"^line components need n >= 4, got 3$"):
        decompose_lines(3)
    with pytest.raises(RangeUnsupported, match=r"^grid components need k, l >= 3, got 2, 20$"):
        decompose_grid(2, 20)


def test_signatures_pairwise_distinct():
    res = decompose_grid(4, 5)
    reports = list(res.components)
    sigs = set(listed_signatures(res, reports))
    assert len(sigs) == len(reports)


def _listings_up_to_grid_5x6_and_lines_9():
    for k in range(3, 6):
        for l in range(3, 7):
            yield decompose_grid(k, l)
    for n in range(4, 10):
        yield decompose_lines(n)


def test_listing_classifications_match_the_signature_rules():
    for res in _listings_up_to_grid_5x6_and_lines_9():
        reports = list(res.components)
        d = reports[0].rep.d
        base_rep = quasi_rep(d, 3, res.hyperplane_masks)
        base_key, base_sig = circuit_profile(base_rep).key, small_circuits(base_rep)
        keys, sigs = [], []
        for c, rep in zip(reports, listed_reps(res, reports)):
            profile, sig = circuit_profile(rep), small_circuits(rep)
            keys.append(profile.key)
            sigs.append(sig)
            assert profile.type1 + profile.type2 == len(sig)
            assert (profile.key == base_key) == (sig == base_sig)
            want = signature_classification(rep, sig, base_sig, quasi_matroid(rep).rank_value)
            assert c.classification == want, (res.params, c.blocks)
        assert len(set(keys)) == len(set(sigs)) == len(reports)


def test_component_counts_match_counting():
    for k, l in ((3, 3), (3, 4), (4, 4), (3, 5), (4, 5), (3, 6), (4, 6), (3, 7), (5, 5), (4, 7), (3, 8), (5, 6)):
        res = decompose_grid(k, l)
        assert res.component_count == grid_component_count(k, l, "enumerate")
        plain = [tuple(map(tuple, b)) for b in grid_component_partitions(k, l)]
        assert [c.blocks for c in res.components] == plain
    for n in (4, 5, 6, 7, 8):
        res = decompose_lines(n)
        assert res.component_count == line_component_count(n, "enumerate")
        plain = [tuple(map(tuple, b)) for b in line_component_partitions(n)]
        assert [c.blocks for c in res.components] == plain


def test_one_pass_over_a_code_matches_the_oracles():
    # every listed code of lines 4-10 and grids 3x3 to 6x6
    cases = [(LineArrangement(n).line_masks(), n, line_component_codes(n)) for n in range(4, 11)]
    for k in range(3, 7):
        for l in range(k, 7):
            layout = GridLayout(k, l)
            cases.append((layout.row_masks() + layout.col_masks(), k, grid_component_codes(k, l)))
    for hyp_masks, rows, codes in cases:
        for code in codes:
            blocks, members, shape = _read_code(code, hyp_masks, rows)
            assert blocks == rgs_to_blocks(code), code
            assert members == [block_union(hyp_masks, block) for block in blocks], code
            assert shape == code_shape(code, rows), code


def test_repeated_partition_raises_instead_of_listing_twice():
    layout = GridLayout(3, 4)
    hyp_masks = layout.row_masks() + layout.col_masks()
    code = (0, 1, 2, 3, 4, 5, 6)
    with pytest.raises(InvariantViolated):
        list(_decompose(hyp_masks, 3, 12, [code, code]))
    # a code whose shape is already classified is still checked by its key
    arr = LineArrangement(7)
    shape = ((1, 0),) * 3 + ((4, 0),)
    first, second = [c for c in line_component_codes(7) if code_shape(c, 7) == shape][:2]
    args = (arr.line_masks(), 7, arr.point_count)
    assert len(list(_decompose(*args, [first, second]))) == 2
    with pytest.raises(InvariantViolated):
        list(_decompose(*args, [first, second, second]))


# The distinct listed shapes: lines 4-10, then grids 4x5, 5x5, 5x6 and 6x6.
LINE_SHAPES = dict(zip(range(4, 11), (2, 2, 3, 4, 6, 8, 11)))
GRID_SHAPES = {(4, 5): 3, (5, 5): 5, (5, 6): 7, (6, 6): 10}


def _formula_shapes(size):
    """The leaves of the formula walk, as sorted (rows, columns) profiles,
    without the ones holding an excluded block: an (n-1)-block of lines, or
    a grid block with every row or every column that is not everything."""
    if len(size) == 1:
        (n,) = size
        leaves = vector_partitions(n, forbidden_sizes({2, 3}))
        return {tuple(sorted((v[0], 0) for v in parts)) for parts in leaves if (n - 1,) not in parts}
    k, l = size

    def excluded(v):
        return (v[0] == k or v[1] == l) and v != (k, l)

    leaves = vector_partitions((k, l), grid_forbidden())
    return {tuple(sorted(parts)) for parts in leaves if not any(map(excluded, parts))}


def _code(blocks):
    """The RGS code of a partition's blocks, listed in first-element order."""
    return [j for _, j in sorted((i, j) for j, block in enumerate(blocks) for i in block)]


def test_listing_classifies_once_per_shape(monkeypatch):
    calls = []
    profile = decomposition.circuit_profile
    monkeypatch.setattr(decomposition, "circuit_profile", lambda rep: calls.append(rep) or profile(rep))
    cases = [(decompose_lines, (n,), n, want) for n, want in LINE_SHAPES.items()]
    cases += [(decompose_grid, (k, l), k, want) for (k, l), want in GRID_SHAPES.items()]
    for decompose, size, rows, want in cases:
        calls.clear()
        res = decompose(*size)
        shapes = set()
        for c in res.components:
            assert c.shape == code_shape(_code(c.blocks), rows), size
            shapes.add(c.shape)
        assert shapes == _formula_shapes(size), size
        assert len(shapes) == len(calls) == want, size


def _criterion_shapes(p, sorts, target):
    """The shapes that the paper's generic criterion accepts, and the number
    of partitions they hold, reading no ForbiddenProfiles.

    Every multiset of block profiles summing to target (vector_partitions
    with nothing forbidden) is laid out on consecutive hyperplanes of each
    sort in sorts (the lines; or the rows, then the columns), as indices of
    p.hyperplanes. Permuting the hyperplanes of one sort is an automorphism
    of the base, so the criterion gives each shape one verdict, and the
    shape holds target! / (prod part! * prod multiplicity!) partitions.
    """
    accepted, total = set(), 0
    for parts in vector_partitions(target, ForbiddenProfiles(len(target), lambda v: False)):
        blocks, taken = [], [0] * len(sorts)
        for v in parts:
            block = []
            for s, x in enumerate(v):
                block += sorts[s][taken[s] : taken[s] + x]
                taken[s] += x
            blocks.append(block)
        verdict = is_component_partition(p, blocks)
        assert verdict is not None, parts
        if verdict:
            accepted.add(tuple(sorted((v + (0,))[:2] for v in parts)))
            denom = prod(prod(map(factorial, v)) ** m * factorial(m) for v, m in Counter(parts).items())
            weight, rest = divmod(prod(map(factorial, target)), denom)
            assert rest == 0
            total += weight
    return accepted, total


@pytest.mark.parametrize("n", range(5, 21))
def test_criterion_picks_the_line_shapes(n):
    # the criterion's shapes are the formula walk's without the excluded
    # one, and their partitions number the egf count: so a wrong entry in
    # the forbidden sizes, which all three routes read, cannot hide here
    accepted, total = _criterion_shapes(line_matroid(n), [list(range(n))], (n,))
    assert accepted == _formula_shapes((n,))
    assert total == line_component_count(n, "egf")


@pytest.mark.parametrize("k, l", [(k, l) for k in range(4, 9) for l in range(k, 9)])
def test_criterion_picks_the_grid_shapes(k, l):
    p = grid_matroid(k, l)
    layout = GridLayout(k, l)
    rows = [p.hyperplanes.index(mask) for mask in layout.row_masks()]
    cols = [p.hyperplanes.index(mask) for mask in layout.col_masks()]
    accepted, total = _criterion_shapes(p, [rows, cols], (k, l))
    assert accepted == _formula_shapes((k, l))
    assert total == grid_component_count(k, l, "egf")


def test_order_and_rank_invariants():
    cases = []
    for k, l in ((3, 3), (3, 4), (4, 4), (3, 5), (4, 5)):
        cases.append((grid_matroid(k, l), decompose_grid(k, l)))
    for n in (4, 5, 6):
        cases.append((line_matroid(n), decompose_lines(n)))
    for base_paving, res in cases:
        base = paving_to_matroid(base_paving, budget=0)
        base_explicit = paving_to_matroid(base_paving)
        for comp in res.components:
            m = quasi_matroid(comp.rep)
            assert dependency_leq(base_explicit, m).leq
            block_masks = [[res.hyperplane_masks[i] for i in block] for block in comp.blocks]
            for block in block_masks:
                for l_mask in block:
                    assert m.rank(l_mask) == base_paving.n - 1
            for b1 in range(len(block_masks)):
                for b2 in range(b1 + 1, len(block_masks)):
                    for l1 in block_masks[b1]:
                        for l2 in block_masks[b2]:
                            assert m.rank(l1 | l2) == base_paving.n


def test_dependency_order_on_non_component_merge():
    # the merged matroid sits above the base even for partitions that are not
    # components, e.g. merging the rows of the 3x3 grid
    p, part = _grid_partition(3, 3, [[0, 1, 2], [3], [4], [5]])
    base = paving_to_matroid(p)
    assert dependency_leq(base, quasi_matroid(merged_rep(p, part))).leq


def test_nilpotent_implies_liftable_verdict():
    import random

    from helpers import random_paving

    rng = random.Random(67)
    seen = 0
    for _ in range(60):
        p = random_paving(rng)
        if is_nilpotent(p):
            assert liftability_oracle(p).status is Liftability.LIFTABLE
            seen += 1
    assert seen > 5


def test_submatroid_validation_never_fails_random():
    import random

    from helpers import random_paving

    rng = random.Random(71)
    for _ in range(60):
        p = random_paving(rng)
        if len(p.hyperplanes) < 2:
            continue
        size = rng.randint(2, len(p.hyperplanes))
        hyperplane_submatroid(p, rng.sample(range(len(p.hyperplanes)), size))


def test_merged_matroid_always_above_base():
    # the dependency-order comparison holds for every partition of every tame
    # system, with no component condition needed
    import random

    from helpers import is_tame, random_paving

    rng = random.Random(73)
    tried = 0
    while tried < 12:
        p = random_paving(rng, max_d=9)
        if not is_tame(p) or len(p.hyperplanes) < 2 or len(p.hyperplanes) > 4:
            continue
        tried += 1
        base = paving_to_matroid(p)
        for blocks in iter_set_partitions(len(p.hyperplanes)):
            assert dependency_leq(base, quasi_matroid(merged_rep(p, blocks))).leq
