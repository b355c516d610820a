"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import random
import time

from pavemat import (
    check_circuit_axioms,
    decompose_grid,
    decompose_lines,
    decompose_to_tame,
    forbidden_sizes,
    grid_component_count,
    grid_excluded_count,
    grid_forbidden,
    grid_matroid,
    line_component_count,
    line_matroid,
    admissible_partition_count,
    partition_count_series,
    quasi_rep,
)
from pavemat.counting import GRID_FORMULA_MIN, LINE_FORMULA_MIN

from helpers import (
    iter_set_partitions,
    listed_signatures,
    m1,
    random_full_rank_rep,
    random_quasi_rep,
    set_partitions,
)
from oracles import dependency_leq, grid_component_partitions, paving_to_matroid, quasi_matroid, replay_extensions

TABLE_GRID = {(4, 4): 2, (4, 5): 22, (5, 5): 127, (4, 6): 86, (5, 6): 417}
TABLE_LINES = {4: 2, 5: 2, 6: 17, 7: 58, 8: 191}


def report(number: int, message: str) -> None:
    print(f"\nCRITERION {number}: PASS - {message}")


def test_criterion_1_grid_table():
    t0 = time.time()
    for (k, l), expected in TABLE_GRID.items():
        assert grid_component_count(k, l, "enumerate") == expected
        assert sum(1 for _ in grid_component_partitions(k, l)) == expected
    enumerate_seconds = time.time() - t0
    for (k, l), expected in TABLE_GRID.items():
        if k >= GRID_FORMULA_MIN and l >= GRID_FORMULA_MIN:
            assert grid_component_count(k, l, "formula") == expected
            assert grid_component_count(k, l, "egf") == expected
    assert enumerate_seconds <= 60.0
    report(
        1,
        f"grid table exact by enumerate, formula, egf and the unpruned filter "
        f"(enumeration {enumerate_seconds:.1f}s <= 60s)",
    )


def test_criterion_2_line_table():
    t0 = time.time()
    for n, expected in TABLE_LINES.items():
        assert line_component_count(n, "enumerate") == expected
    enumerate_seconds = time.time() - t0
    for n, expected in TABLE_LINES.items():
        if n >= LINE_FORMULA_MIN:
            assert line_component_count(n, "formula") == expected
            assert line_component_count(n, "egf") == expected
    assert enumerate_seconds <= 10.0
    report(2, f"line table exact for n=4..8 (enumeration {enumerate_seconds:.1f}s <= 10s)")


def test_criterion_3_narrow_grids_have_two_components():
    for l in range(4, 9):
        components = list(decompose_grid(3, l).components)
        assert len(components) == 2
        kinds = sorted(c.classification.kind for c in components)
        assert kinds == ["equals-base", "uniform"]
        uni = next(c for c in components if c.classification.kind == "uniform")
        assert uni.classification.uniform_params == (2, 3 * l)
    report(3, "3xl grids for l=4..8 split into exactly the base matroid and uniform(2,3l)")


def test_criterion_4_worked_examples():
    res45 = decompose_grid(4, 5)
    comps45 = list(res45.components)
    assert len(comps45) == 22
    kinds45 = [c.classification.kind for c in comps45]
    assert kinds45.count("uniform") == 1 and kinds45.count("equals-base") == 1
    uni45 = next(c for c in comps45 if c.classification.kind == "uniform")
    assert uni45.classification.uniform_params == (2, 20)

    res6 = decompose_lines(6)
    comps6 = list(res6.components)
    assert len(comps6) == 17
    size4 = [c for c in comps6 if any(len(b) == 4 for b in c.blocks)]
    assert len(size4) == 15

    res33 = decompose_grid(3, 3)
    comps33 = list(res33.components)
    assert len(comps33) == 1
    assert comps33[0].classification.kind == "equals-base"

    res34 = decompose_grid(3, 4)
    comps34 = list(res34.components)
    assert len(comps34) == 2
    uni34 = next(c for c in comps34 if c.classification.kind == "uniform")
    assert uni34.classification.uniform_params == (2, 12)

    for res, comps in ((res45, comps45), (res6, comps6), (res33, comps33), (res34, comps34)):
        assert len(set(listed_signatures(res, comps))) == len(comps)
    report(4, "4x5 grid, 6 lines, 3x3 and 3x4 examples match the reference classifications")


def test_criterion_5_construction_satisfies_circuit_axioms():
    rng = random.Random(2024)
    failures = 0
    for _ in range(500):
        rep = random_quasi_rep(rng, max_d=12)
        m = quasi_matroid(rep)
        try:
            check_circuit_axioms(rep.d, m.circuits())
        except Exception:
            failures += 1
    assert failures == 0
    report(5, "500 random hypergraph constructions pass exhaustive circuit elimination")


def test_criterion_6_extension_round_trip():
    mismatches = 0

    def roundtrip(rep):
        nonlocal mismatches
        m = quasi_matroid(rep)
        replayed = replay_extensions(decompose_to_tame(rep), rep.d)
        for s in range(1 << rep.d):
            if replayed.is_independent(s) != m.is_independent(s):
                mismatches += 1
                return

    roundtrip(quasi_rep(9, 3, [m1(1, 2, 3, 7, 8), m1(1, 5, 6, 7, 9), m1(2, 4, 6, 9), m1(3, 4, 5, 8)]))
    roundtrip(quasi_rep(7, 3, [m1(1, 4, 5, 6, 7), m1(1, 2, 3, 6, 7)]))
    rng = random.Random(4045)
    for _ in range(100):
        roundtrip(random_full_rank_rep(rng, max_d=10))
    assert mismatches == 0
    report(6, "replayed principal extensions rebuild both worked examples and 100 random full-rank instances exactly")


def test_criterion_7_order_and_rank_invariants():
    violations = 0
    cases = []
    for k in range(3, 7):
        for l in range(3, 7):
            if k + l <= 9:
                cases.append((grid_matroid(k, l), decompose_grid(k, l)))
    for n in range(4, 8):
        cases.append((line_matroid(n), decompose_lines(n)))
    checked = 0
    for base_paving, res in cases:
        base = paving_to_matroid(base_paving)
        for comp in res.components:
            m = quasi_matroid(comp.rep)
            if not dependency_leq(base, m).leq:
                violations += 1
            block_masks = [[res.hyperplane_masks[i] for i in block] for block in comp.blocks]
            for block in block_masks:
                for l_mask in block:
                    if m.rank(l_mask) != base_paving.n - 1:
                        violations += 1
            for b1 in range(len(block_masks)):
                for b2 in range(b1 + 1, len(block_masks)):
                    for l1 in block_masks[b1]:
                        for l2 in block_masks[b2]:
                            if m.rank(l1 | l2) != base_paving.n:
                                violations += 1
            checked += 1
    assert violations == 0 and checked > 100
    report(
        7,
        f"dependency order and hyperplane ranks hold across {checked} components "
        f"(grids with k+l <= 9, lines with n <= 7)",
    )


def test_criterion_8_counting_oracle_equivalence():
    forb1 = forbidden_sizes({2, 3})
    for n in range(10):
        brute = sum(
            1 for p in set_partitions(list(range(n))) if all(len(b) not in (2, 3) for b in p)
        )
        assert admissible_partition_count(n, forb1) == brute
    series1 = partition_count_series(forb1, 9)
    for n in range(10):
        assert series1.count(n) == admissible_partition_count(n, forb1)

    forb2 = grid_forbidden()
    series2 = partition_count_series(forb2, (8, 8))
    for k in range(1, 9):
        for l in range(1, 9):
            if k + l > 9:
                continue
            items = [("r", i) for i in range(k)] + [("c", j) for j in range(l)]
            brute = 0
            for p in set_partitions(items):
                ok = True
                for block in p:
                    a = sum(1 for kind, _ in block if kind == "r")
                    if not forb2.allows((a, len(block) - a)):
                        ok = False
                        break
                brute += ok
            assert admissible_partition_count((k, l), forb2) == brute
            assert series2.count((k, l)) == brute

    for k in range(4, 7):
        for l in range(4, 7):
            brute = 0
            for blocks in iter_set_partitions(k + l):
                ok = True
                covering = False
                for block in blocks:
                    a = sum(1 for h in block if h < k)
                    b = len(block) - a
                    if not forb2.allows((a, b)):
                        ok = False
                        break
                    if a == k or b == l:
                        covering = True
                if ok and covering and len(blocks) > 1:
                    brute += 1
            assert grid_excluded_count(k, l) == brute
    report(
        8,
        "multinomial counts match brute-forced set partitions (1-D to 9, 2-D to k+l=9), "
        "series extraction matches, excluded counts match direct enumeration for k,l in 4..6",
    )


def test_criterion_9_scope_of_geometric_claims():
    # Irreducibility and variety-level irredundancy are not desk-checkable here
    # by design; their combinatorial shadows are asserted by criteria 4 and 7:
    # components within one decomposition are pairwise distinct as labeled
    # matroids, and every component sits above the base in the dependency
    # order. This criterion records that scope decision.
    res = decompose_grid(4, 4)
    reports = list(res.components)
    assert len(set(listed_signatures(res, reports))) == len(reports)
    report(9, "geometric claims out of scope; combinatorial shadows covered by criteria 4 and 7")
