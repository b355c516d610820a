import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from pavemat import (
    GridLayout,
    LineArrangement,
    ci_hypergraph,
    ci_ideal_generators,
    grid_matroid,
    line_matroid,
    mask_of,
)
from pavemat.errors import BadParams, DegenerateGround, TooFewLines

from helpers import is_tame, m1
from oracles import (
    HypothesisViolated,
    ci_matroid,
    degree_one_core,
    degrees,
    hyperplane_submatroid,
    paving_to_matroid,
    slow_ci_matroid,
)


def test_grid_layout_numbering():
    layout = GridLayout(3, 4)
    # column-major: 1-based cell (i,j) = (j-1)k + i
    assert layout.cell(0, 0) == 0
    assert layout.cell(2, 3) == 11
    assert layout.row_mask(0) == m1(1, 4, 7, 10)
    assert layout.col_mask(0) == m1(1, 2, 3)


def test_ci_hypergraph_counts():
    assert len(ci_hypergraph(3, 3, 3, 3)) == 6
    assert len(ci_hypergraph(3, 4, 3, 3)) == 16
    with pytest.raises(BadParams):
        ci_hypergraph(3, 3, 4, 3)


def test_ci_matroid_is_grid():
    m = ci_matroid(3, 3, 3, 3, 3)
    g = paving_to_matroid(grid_matroid(3, 3))
    assert m.rank_value == 3
    assert m.circuits() == g.circuits()


def test_ci_matroid_hypothesis_errors():
    with pytest.raises(HypothesisViolated) as err:
        ci_matroid(3, 4, 3, 3, 4)  # n > s+t-3
    assert "s+t-3" in str(err.value)
    with pytest.raises(HypothesisViolated):
        ci_matroid(3, 3, 2, 3, 3)


def test_ci_matroid_matches_grid_family():
    for k in range(3, 7):
        for l in range(3, 7):
            m = ci_matroid(k, l, 3, 3, 3)
            g = paving_to_matroid(grid_matroid(k, l), budget=0)  # oracle mode
            for size in range(1, 5):
                for combo in combinations(range(k * l), size):
                    s = mask_of(combo)
                    assert m.is_independent(s) == g.is_independent(s)
            assert m.circuits() == paving_to_matroid(grid_matroid(k, l)).circuits()


# Every (k, l, s, t, n) with k, l <= 5 that satisfies ci_matroid's hypotheses.
CI_CASES = [
    (k, l, s, t, n)
    for k in range(3, 6)
    for l in range(3, 6)
    for s in range(3, k + 1)
    for t in range(s, l + 1)
    for n in range(t, s + t - 2)
]


@pytest.mark.parametrize("k, l, s, t, n", CI_CASES)
def test_ci_matroid_matches_the_slow_construction(k, l, s, t, n):
    fast = ci_matroid(k, l, s, t, n)
    slow = slow_ci_matroid(k, l, s, t, n)
    assert fast.rank_value == slow.rank_value == n
    # before circuits(), so that both answer from their independence oracles
    rng = random.Random(f"{k},{l},{s},{t},{n}")
    for _ in range(300):
        mask = mask_of(rng.sample(range(k * l), rng.randint(0, n + 1)))
        assert fast.is_independent(mask) == slow.is_independent(mask)
    assert fast.circuits() == slow.circuits()


def test_grid_matroid_hyperplane_counts():
    assert len(grid_matroid(3, 3).hyperplanes) == 6
    assert len(grid_matroid(4, 5).hyperplanes) == 9
    assert len(grid_matroid(2, 5).hyperplanes) == 2  # columns too short to count
    assert is_tame(grid_matroid(3, 3))
    assert is_tame(grid_matroid(4, 5))


def test_grid_matroid_degenerate():
    with pytest.raises(DegenerateGround):
        grid_matroid(1, 3)
    assert paving_to_matroid(grid_matroid(2, 2)).circuits() == ((1 << 4) - 1,)


def test_grid_degrees_exactly_two():
    for k, l in ((3, 3), (3, 5), (4, 4), (5, 6)):
        assert all(d == 2 for d in degrees(grid_matroid(k, l)).values())


def test_line_arrangement_indexing():
    arr = LineArrangement(5)
    assert arr.point_count == 10
    assert arr.point_index(0, 1) == 0
    assert arr.point_index(3, 4) == 9
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    assert [arr.point_index(i, j) for i, j in pairs] == list(range(10))
    assert [arr.point_index(j, i) for i, j in pairs] == list(range(10))


def test_line_matroid_structure():
    p4 = line_matroid(4)
    assert p4.d == 6 and len(p4.hyperplanes) == 4
    assert all(l.bit_count() == 3 for l in p4.hyperplanes)
    p5 = line_matroid(5)
    assert p5.d == 10 and len(p5.hyperplanes) == 5
    assert all(l.bit_count() == 4 for l in p5.hyperplanes)
    m5 = paving_to_matroid(p5)
    assert Counter(c.bit_count() for c in m5.circuits())[3] == 20
    p6 = line_matroid(6)
    assert p6.d == 15 and len(p6.hyperplanes) == 6
    assert all(l.bit_count() == 5 for l in p6.hyperplanes)


def test_line_matroid_is_quadrilateral_set_shape():
    # 4 lines of 3 points, 6 points of degree 2, any two lines meet in one point
    p = line_matroid(4)
    assert all(d == 2 for d in degrees(p).values())
    for i in range(4):
        for j in range(i + 1, 4):
            assert (p.hyperplanes[i] & p.hyperplanes[j]).bit_count() == 1


def test_line_matroid_tame_range():
    for n in range(4, 11):
        assert is_tame(line_matroid(n))


def test_too_few_lines():
    with pytest.raises(TooFewLines):
        line_matroid(3)


def test_submatroid_core_is_subgrid():
    # rows x cols block of a grid reduces to the full subgrid on the meets
    g = grid_matroid(5, 6)
    layout = GridLayout(5, 6)
    wanted = set(layout.row_masks()[:4]) | set(layout.col_masks()[:3])
    idx = [i for i, l in enumerate(g.hyperplanes) if l in wanted]
    sub, _ = hyperplane_submatroid(g, idx)
    red = degree_one_core(sub)
    assert red.core is not None and red.core.d == 12
    sizes = sorted(l.bit_count() for l in red.core.hyperplanes)
    assert sizes == [3, 3, 3, 3, 4, 4, 4]  # 4 rows of 3 cells, 3 columns of 4
    assert not red.removed_degree0


def test_generator_counts():
    assert len(ci_ideal_generators(3, 3, 3, 3, 3)) == 6
    assert len(ci_ideal_generators(3, 4, 3, 3, 4)) == 64
    with pytest.raises(BadParams):
        ci_ideal_generators(3, 3, 3, 3, 2)


def test_generator_count_formula():
    k, l, s, t, n = 4, 5, 3, 3, 4
    gens = ci_ideal_generators(k, l, s, t, n)
    expected = k * comb(l, t) * comb(n, t) + l * comb(k, s) * comb(n, s)
    assert len(gens) == expected
    assert all(len(g.rows) == len(g.cols) for g in gens)


def test_ci_matroid_mixed_parameters():
    # s=3, t=4, n=4 on a 4x4 grid: hyperplane edges of two different sizes
    m = ci_matroid(4, 4, 3, 4, 4)
    assert m.rank_value == 4
    circuits = m.circuits()
    sizes = sorted({c.bit_count() for c in circuits})
    assert sizes == [3, 4, 5]
    # minimality: no circuit contains another
    for small in circuits:
        for big in circuits:
            assert small == big or (small & big) != small or small.bit_count() == big.bit_count()
    # every 5-subset is dependent (rank is 4)
    layout = GridLayout(4, 4)
    col_triple = mask_of([layout.cell(i, 0) for i in range(3)])
    assert not m.is_independent(col_triple)
    row_quad = mask_of([layout.cell(0, j) for j in range(4)])
    assert not m.is_independent(row_quad)
    assert m.is_independent(mask_of([0, 5, 10, 15]))  # a diagonal
