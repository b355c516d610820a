import random
from collections import Counter

import pytest

from pavemat import (
    check_circuit_axioms,
    grid_matroid,
    mask_of,
    paving_from_hyperplanes,
)
from pavemat.errors import DegenerateGround, HyperplaneTooSmall, IntersectionTooLarge

from helpers import is_tame, m1, random_paving
from oracles import (
    TooFewHyperplanes,
    degree_one_core,
    degrees,
    hyperplane_submatroid,
    is_nilpotent,
    nilpotent_chain,
    paving_to_matroid,
)

FANO = [m1(1, 2, 4), m1(1, 3, 7), m1(1, 5, 6), m1(2, 3, 5), m1(2, 6, 7), m1(3, 4, 6), m1(4, 5, 7)]
QS = [m1(1, 2, 3), m1(1, 5, 6), m1(3, 4, 5), m1(2, 4, 6)]
CONCURRENT = [m1(1, 2, 7), m1(3, 4, 7), m1(5, 6, 7)]  # three lines through point 7


def test_fano_is_valid():
    p = paving_from_hyperplanes(7, 3, FANO)
    assert len(p.hyperplanes) == 7


def test_qs_is_valid_and_tame():
    p = paving_from_hyperplanes(6, 3, QS)
    assert is_tame(p)
    assert all(deg == 2 for deg in degrees(p).values())


def test_intersection_too_large():
    with pytest.raises(IntersectionTooLarge):
        paving_from_hyperplanes(5, 3, [m1(1, 2, 3), m1(1, 2, 4)])


def test_hyperplane_too_small():
    with pytest.raises(HyperplaneTooSmall):
        paving_from_hyperplanes(5, 3, [m1(1, 2)])


def test_ground_too_small():
    with pytest.raises(DegenerateGround):
        paving_from_hyperplanes(3, 3, [])


def test_fano_not_tame():
    assert not is_tame(paving_from_hyperplanes(7, 3, FANO))
    assert is_tame(grid_matroid(4, 5))


def test_degrees_concurrent_lines():
    p = paving_from_hyperplanes(7, 3, CONCURRENT)
    deg = degrees(p)
    assert deg[6] == 3  # the common point 7
    assert all(deg[e] == 1 for e in range(6))


def test_degree_zero_element():
    p = paving_from_hyperplanes(5, 3, [m1(1, 2, 3)])
    assert degrees(p)[4] == 0


def test_nilpotent_chain_concurrent():
    p = paving_from_hyperplanes(7, 3, CONCURRENT)
    chain = nilpotent_chain(p)
    assert chain.stages == (m1(7), 0)
    assert chain.terminates
    assert is_nilpotent(p)


def test_nilpotent_chain_qs_stable():
    p = paving_from_hyperplanes(6, 3, QS)
    chain = nilpotent_chain(p)
    assert chain.stages == ((1 << 6) - 1,)
    assert not chain.terminates
    assert not is_nilpotent(p)


def test_nilpotent_chain_all_low_degree():
    p = paving_from_hyperplanes(6, 3, [m1(1, 2, 3)])
    chain = nilpotent_chain(p)
    assert chain.stages == (0,)
    assert chain.terminates


def test_hyperplane_submatroid_qs():
    p = paving_from_hyperplanes(6, 3, QS)
    idx = [i for i, l in enumerate(p.hyperplanes) if l in (m1(1, 2, 3), m1(1, 5, 6))]
    sub, elements = hyperplane_submatroid(p, idx)
    assert elements == (0, 1, 2, 4, 5)  # original labels 1,2,3,5,6
    assert sub.d == 5 and len(sub.hyperplanes) == 2


def test_hyperplane_submatroid_all_is_identity():
    p = paving_from_hyperplanes(6, 3, QS)
    sub, elements = hyperplane_submatroid(p, range(4))
    assert elements == tuple(range(6))
    assert sub.hyperplanes == p.hyperplanes


def test_hyperplane_submatroid_needs_two():
    p = paving_from_hyperplanes(6, 3, QS)
    with pytest.raises(TooFewHyperplanes):
        hyperplane_submatroid(p, [0])


def test_submatroid_of_grid_has_tails():
    g = grid_matroid(4, 5)
    layout_rows = [i for i, l in enumerate(g.hyperplanes) if l.bit_count() == 5][:3]
    layout_cols = [i for i, l in enumerate(g.hyperplanes) if l.bit_count() == 4][:3]
    sub, elements = hyperplane_submatroid(g, layout_rows + layout_cols)
    deg = degrees(sub)
    assert sorted(set(deg.values())) == [1, 2]
    assert sum(1 for v in deg.values() if v == 2) == 9  # the 3x3 meeting cells


def test_paving_to_matroid_grid33():
    m = paving_to_matroid(grid_matroid(3, 3))
    hist = Counter(c.bit_count() for c in m.circuits())
    assert hist == {3: 6, 4: 90}
    check_circuit_axioms(m.d, m.circuits())


def test_paving_to_matroid_qs():
    m = paving_to_matroid(paving_from_hyperplanes(6, 3, QS))
    hist = Counter(c.bit_count() for c in m.circuits())
    assert hist[3] == 4
    check_circuit_axioms(m.d, m.circuits())


def test_paving_to_matroid_no_hyperplanes():
    m = paving_to_matroid(paving_from_hyperplanes(4, 3, []))
    assert m.circuits() == ((1 << 4) - 1,)


def test_paving_axioms_random():
    rng = random.Random(31)
    for _ in range(25):
        p = random_paving(rng, max_d=10)
        m = paving_to_matroid(p)
        check_circuit_axioms(m.d, m.circuits())
        assert m.rank_value == m.rank()
        # a hyperplane that is the whole ground makes every n-subset a circuit
        if (1 << p.d) - 1 not in p.hyperplanes:
            assert m.rank_value == 3


def test_tame_iff_max_degree_two():
    rng = random.Random(37)
    for _ in range(40):
        p = random_paving(rng)
        assert is_tame(p) == (max(degrees(p).values(), default=0) <= 2)


def test_degree_one_core_collapses_tails():
    g = grid_matroid(6, 6)
    from pavemat.families import GridLayout

    layout = GridLayout(6, 6)
    wanted = set(layout.row_masks()[:3]) | set(layout.col_masks()[:3])
    idx = [i for i, l in enumerate(g.hyperplanes) if l in wanted]
    sub, _ = hyperplane_submatroid(g, idx)
    red = degree_one_core(sub)
    assert red.core is not None
    assert red.core.d == 9
    assert len(red.core.hyperplanes) == 6
    assert all(l.bit_count() == 3 for l in red.core.hyperplanes)
    assert not red.removed_degree0


def test_degree_one_core_qs_unchanged():
    p = paving_from_hyperplanes(6, 3, QS)
    red = degree_one_core(p)
    assert red.core == p
    assert red.removed_degree1 == () and red.removed_degree0 == ()


def test_degree_one_core_single_line_empties():
    p = paving_from_hyperplanes(4, 3, [m1(1, 2, 3, 4)])
    red = degree_one_core(p)
    assert red.core is None
    assert len(red.removed_degree1) + len(red.removed_degree0) == 4


def test_degree_one_core_order_independent():
    rng = random.Random(41)
    for _ in range(30):
        p = random_paving(rng, max_d=10)
        red = degree_one_core(p)
        # structural profile must not depend on deletion order; compare against
        # a randomized-order reduction
        alive = (1 << p.d) - 1
        hyps = list(p.hyperplanes)
        while True:
            cands = []
            m = alive
            while m:
                low = m & -m
                m ^= low
                e = low.bit_length() - 1
                if sum(1 for l in hyps if (l >> e) & 1) <= 1:
                    cands.append(e)
            if not cands:
                break
            e = rng.choice(cands)
            alive ^= 1 << e
            hyps = [l & ~(1 << e) for l in hyps]
            hyps = [l for l in hyps if l.bit_count() >= p.n]
        if red.core is None:
            assert alive == 0
        else:
            assert alive == mask_of(red.elements)
            assert sorted(l.bit_count() for l in hyps) == sorted(
                l.bit_count() for l in red.core.hyperplanes
            )
