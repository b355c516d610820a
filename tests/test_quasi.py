import random
from collections import Counter
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_

import pytest

from pavemat import (
    QuasiRep,
    check_circuit_axioms,
    decompose_to_tame,
    grid_matroid,
    line_matroid,
    mask_of,
    paving_from_hyperplanes,
    quasi_rep,
    small_circuits,
)
from pavemat.bitset import bits_tuple, overlaps
from pavemat.decomposition import _classify
from pavemat.errors import LevelTooSmall, RankDeficient, TooLarge, TripleIntersection
from pavemat.quasi import (
    _subset_counts,
    circuit_key,
    circuit_profile,
    circuit_rows,
    count_by_size,
    type3_count,
)

from helpers import (
    brute_closure,
    brute_independent,
    brute_paving_circuits,
    brute_quasi_circuits,
    brute_small_circuits,
    brute_type3_circuits,
    label_rows,
    m1,
    polynomial_circuit_key,
    random_full_rank_rep,
    random_paving,
    random_quasi_rep,
    random_tame_rep,
    signature_classification,
)
from oracles import (
    NotAFlat,
    bases,
    delete,
    is_uniform,
    matroid_from_circuits,
    pairwise_intersection_flats,
    paving_to_matroid,
    principal_extension,
    quasi_circuits,
    quasi_deletion,
    quasi_matroid,
    replay_extensions,
)

# the two worked examples: hypergraphs on [9] and [7] at level 3
REP_A = lambda: quasi_rep(9, 3, [m1(1, 2, 3, 7, 8), m1(1, 5, 6, 7, 9), m1(2, 4, 6, 9), m1(3, 4, 5, 8)])
REP_B = lambda: quasi_rep(7, 3, [m1(1, 4, 5, 6, 7), m1(1, 2, 3, 6, 7)])


def test_rep_validation():
    with pytest.raises(LevelTooSmall):
        quasi_rep(5, 1, [m1(1, 2)])
    with pytest.raises(TripleIntersection) as err:
        quasi_rep(5, 3, [m1(1, 2), m1(1, 3), m1(1, 4)])
    assert err.value.element == 0


def test_double_point_circuits():
    rep = REP_B()
    pairs = sorted(bits_tuple(c) for c in small_circuits(rep) if c.bit_count() == 2)
    assert pairs == [(0, 5), (0, 6), (5, 6)]  # elements 1, 6, 7 pairwise parallel


def test_single_full_member_gives_rank_two_uniform():
    for d in (5, 7):
        rep = quasi_rep(d, 3, [(1 << d) - 1])
        m = quasi_matroid(rep)
        assert is_uniform(m) == (2, d)


def test_small_disjoint_members_give_uniform():
    rep = quasi_rep(8, 3, [m1(1, 2), m1(3, 4)])
    m = quasi_matroid(rep)
    assert is_uniform(m) == (3, 8)


def test_axiom_property_random_reps():
    rng = random.Random(43)
    for _ in range(60):
        rep = random_quasi_rep(rng, max_d=10)
        m = quasi_matroid(rep)
        check_circuit_axioms(rep.d, m.circuits())


def test_member_rank_is_level_minus_one():
    # holds for levels >= 3; at level 2 every element of a member can be a
    # loop via intersections with other members, dropping the rank to 0
    rng = random.Random(47)
    checked = 0
    for _ in range(80):
        rep = random_quasi_rep(rng, max_d=10)
        if rep.n < 3:
            continue
        m = quasi_matroid(rep)
        for i, h in enumerate(rep.members):
            if h.bit_count() < rep.n - 1:
                continue
            if any(j != i and h & other == h for j, other in enumerate(rep.members)):
                continue
            assert m.rank(h) == rep.n - 1
            checked += 1
    assert checked > 50


def test_pairwise_intersection_flats_example():
    rep = REP_B()
    flats = pairwise_intersection_flats(rep)
    assert flats == [(0, 1, m1(1, 6, 7))]
    m = quasi_matroid(rep)
    assert m.rank(m1(1, 6, 7)) == 1
    assert brute_closure(m.circuits(), m1(1, 6, 7), rep.d) == m1(1, 6, 7)


def test_pairwise_intersection_flats_disjoint():
    rep = quasi_rep(8, 3, [m1(1, 2, 3), m1(4, 5, 6)])
    assert pairwise_intersection_flats(rep) == []


def test_grid_cells_are_flats_of_merged_rows_cols():
    # rows and columns of the 3x3 grid as six members: each cell meets one row
    # and one column, so it is a rank-1 flat
    from pavemat.families import GridLayout

    layout = GridLayout(3, 3)
    rep = quasi_rep(9, 3, layout.row_masks() + layout.col_masks())
    m = quasi_matroid(rep)
    flats = pairwise_intersection_flats(rep)
    cells = [f for (_, _, f) in flats if f.bit_count() == 1]
    assert len(cells) == 9
    for f in cells:
        assert brute_closure(m.circuits(), f, rep.d) == f
        assert m.rank(f) == 1


def test_flats_verified_on_random_reps():
    rng = random.Random(53)
    for _ in range(40):
        rep = random_quasi_rep(rng, max_d=9)
        if rep.n < 3:
            continue
        m = quasi_matroid(rep)
        for (_, _, f) in pairwise_intersection_flats(rep):
            assert brute_closure(m.circuits(), f, rep.d) == f
            assert m.rank(f) == min(rep.n - 2, f.bit_count())


def test_principal_extension_parallel_point():
    # two lines {1,2,3}, {1,4,5}; extending into the flat {1} makes {1,6} a circuit
    base = matroid_from_circuits(
        5, 3, [m1(1, 2, 3), m1(1, 4, 5)] + [mask_of(c) for c in combinations(range(5), 4)
                                            if not (set(c) >= {0, 1, 2} or set(c) >= {0, 3, 4})]
    )
    ext = principal_extension(base, m1(1))
    assert ext.d == 6 and ext.rank_value == 3
    assert not ext.is_independent(m1(1, 6))
    assert ext.is_independent(m1(2, 6))


def test_principal_extension_spanning_flat_is_free():
    base = matroid_from_circuits(4, 2, [mask_of(c) for c in combinations(range(4), 3)])
    ext = principal_extension(base, (1 << 4) - 1)
    assert ext.rank_value == 2
    assert ext.is_independent(m1(1, 5))
    assert not ext.is_independent(m1(1, 2, 5))


def test_principal_extension_empty_flat_is_loop():
    base = matroid_from_circuits(3, 3, [])
    ext = principal_extension(base, 0)
    assert not ext.is_independent(m1(4))


def test_principal_extension_rejects_non_flat():
    base = matroid_from_circuits(3, 2, [m1(1, 2, 3)])
    with pytest.raises(NotAFlat):
        principal_extension(base, m1(1, 2))


def test_decompose_to_tame_example_b():
    rep = REP_B()
    dec = decompose_to_tame(rep)
    assert [s.element for s in dec.steps] == [6, 5]  # peel 7 then 6 (1-based)
    assert dec.core_elements == (0, 1, 2, 3, 4)
    assert set(dec.core.hyperplanes) == {0b00111, 0b11001}  # lines {1,2,3}, {1,4,5}


def test_decompose_to_tame_example_a():
    rep = REP_A()
    dec = decompose_to_tame(rep)
    assert [s.element for s in dec.steps] == [8, 7, 6]
    assert [bits_tuple(s.flat) for s in dec.steps] == [(5,), (2,), (0,)]
    assert dec.core_elements == (0, 1, 2, 3, 4, 5)
    assert set(dec.core.hyperplanes) == {m1(1, 2, 3), m1(1, 5, 6), m1(2, 4, 6), m1(3, 4, 5)}


def test_decompose_already_tame():
    rep = quasi_rep(6, 3, [m1(1, 2, 3), m1(1, 4, 5)])
    dec = decompose_to_tame(rep)
    assert dec.steps == ()
    assert dec.core_elements == tuple(range(6))


def test_decompose_rejects_rank_deficient():
    rep = quasi_rep(5, 3, [(1 << 5) - 1])  # rank 2
    with pytest.raises(RankDeficient):
        decompose_to_tame(rep)


def test_replay_examples_exactly():
    for make in (REP_A, REP_B):
        rep = make()
        m = quasi_matroid(rep)
        replayed = replay_extensions(decompose_to_tame(rep), rep.d)
        for s in range(1 << rep.d):
            assert replayed.is_independent(s) == m.is_independent(s)


def test_replay_random_orders_confluent():
    rng = random.Random(59)
    for _ in range(15):
        rep = random_full_rank_rep(rng, max_d=9)
        m = quasi_matroid(rep)
        reference = decompose_to_tame(rep)
        shuffled = decompose_to_tame(rep, pick=rng.choice)
        # cores agree structurally whatever the peeling order
        assert shuffled.core.d == reference.core.d
        assert sorted(l.bit_count() for l in shuffled.core.hyperplanes) == sorted(
            l.bit_count() for l in reference.core.hyperplanes
        )
        for dec in (reference, shuffled):
            replayed = replay_extensions(dec, rep.d)
            for s in range(1 << rep.d):
                assert replayed.is_independent(s) == m.is_independent(s)


def _full_rank_tame_reps(seed, per_level):
    """Seeded tame representations of full rank n, per_level of each level
    from 2 to 5, on at most 9 elements."""
    rng = random.Random(seed)
    found = {n: [] for n in range(2, 6)}
    while any(len(reps) < per_level for reps in found.values()):
        rep = random_tame_rep(rng, max_d=9)
        if len(found[rep.n]) < per_level and quasi_matroid(rep).rank_value == rep.n:
            found[rep.n].append(rep)
    return [rep for reps in found.values() for rep in reps]


def test_decompose_to_tame_flats_are_the_closures():
    # Each step's flat is the closure of the rest of the peeled intersection
    # in the matroid of the peeled members, read off brute circuit lists; at
    # level 2 that closure is every loop. The replay rebuilds the brute
    # independence predicate on every subset.
    steps_at = Counter()
    grown = 0  # level-2 flats holding loops outside the peeled intersection
    for rep in _full_rank_tame_reps(109, 60):
        dec = decompose_to_tame(rep)
        members = list(rep.members)
        for step in dec.steps:
            i, j = step.source_pair
            bit = 1 << step.element
            raw = (members[i] & members[j]) ^ bit
            members = [h & ~bit for h in members]
            peeled = brute_quasi_circuits(QuasiRep(rep.d, rep.n, tuple(members)))
            assert step.flat == brute_closure(peeled, raw, rep.d), (rep, step)
            steps_at[rep.n] += 1
            grown += step.flat != raw
        replayed = replay_extensions(dec, rep.d)
        circuits = brute_quasi_circuits(rep)
        for s in range(1 << rep.d):
            assert replayed.is_independent(s) == brute_independent(circuits, s), (rep, s)
    assert all(steps_at[n] >= 10 for n in range(2, 6)), steps_at
    assert grown


def test_quasi_deletion_example():
    rep = REP_B()
    smaller, kept = quasi_deletion(rep, m1(6, 7))
    assert kept == (0, 1, 2, 3, 4)
    assert set(smaller.members) == {0b00111, 0b11001}


def test_quasi_deletion_identity_and_everything():
    rep = REP_B()
    same, kept = quasi_deletion(rep, 0)
    assert same.members == rep.members and kept == tuple(range(7))
    empty, kept = quasi_deletion(rep, (1 << 7) - 1)
    assert empty.d == 0 and kept == ()
    assert quasi_matroid(empty).rank_value == 0


def test_quasi_deletion_commutes_with_construction():
    rng = random.Random(61)
    for _ in range(25):
        rep = random_quasi_rep(rng, max_d=8)
        z = rng.randrange(1 << rep.d)
        m = quasi_matroid(rep)
        deleted_matroid, kept1 = delete(m, z)
        smaller, kept2 = quasi_deletion(rep, z)
        assert kept1 == kept2
        constructed = quasi_matroid(smaller)
        for s in range(1 << smaller.d):
            assert constructed.is_independent(s) == deleted_matroid.is_independent(s)


def test_matroid_deletion_matches_golden_two_lines():
    rep = REP_B()
    m = quasi_matroid(rep)
    deleted, kept = delete(m, m1(6, 7))
    assert kept == (0, 1, 2, 3, 4)
    two_lines = paving_to_matroid(paving_from_hyperplanes(5, 3, [m1(1, 2, 3), m1(1, 4, 5)]))
    assert sorted(deleted.circuits()) == sorted(two_lines.circuits())


def test_principal_extension_preserves_rank_and_basis_count():
    base = matroid_from_circuits(
        5, 3, [m1(1, 2, 3)] + [mask_of(c) for c in combinations(range(5), 4)
                               if not set(c) >= {0, 1, 2}]
    )
    flat = brute_closure(base.circuits(), m1(1, 2), 5)
    ext = principal_extension(base, flat)
    assert ext.rank_value == base.rank_value == 3
    old = set(bases(base))
    new = set(bases(ext))
    assert old <= new
    swaps = {(lam ^ (1 << e)) | (1 << 5) for lam in old for e in bits_tuple(lam & flat)}
    assert new == old | swaps


def _family_component_reps():
    """The merged representation of every component of the small grids and
    line arrangements."""
    from pavemat import decompose_grid, decompose_lines

    results = [decompose_grid(k, l) for k, l in ((3, 3), (3, 4), (3, 5), (4, 4), (4, 5))]
    results += [decompose_lines(n) for n in range(4, 8)]
    for res in results:
        for report in res.components:
            members = [reduce(or_, (res.hyperplane_masks[i] for i in block)) for block in report.blocks]
            yield quasi_rep(report.rep.d, 3, members)


def _random_tame_reps(seed, count):
    rng = random.Random(seed)
    return [random_tame_rep(rng) for _ in range(count)]


def test_random_tame_reps_cover_the_edge_cases():
    reps = _random_tame_reps(67, 400)
    assert {rep.n for rep in reps} == {2, 3, 4, 5}
    assert any(not rep.members for rep in reps)
    assert any(0 in rep.members for rep in reps)
    assert any(rep.n > rep.d for rep in reps)
    assert any(len(set(rep.members)) < len(rep.members) for rep in reps if 0 not in rep.members)


def test_type3_count_matches_brute_force():
    for rep in [*_random_tame_reps(67, 400), *_family_component_reps()]:
        assert type3_count(rep) == len(brute_type3_circuits(rep)), rep


def test_small_circuits_match_brute_force():
    for rep in [*_random_tame_reps(71, 400), *_family_component_reps()]:
        assert small_circuits(rep) == brute_small_circuits(rep), rep


def _canonical_order_reps() -> list[QuasiRep]:
    """Inputs for the walks that give quasi_circuits its order with no sort:
    members equal in pairs, level 2 (where type 1 is the loops), the
    hyperplanes of the family pavings, and pavings with an element in three
    or more hyperplanes (three concurrent lines, the Fano plane, random
    systems)."""
    reps = [
        quasi_rep(8, 3, [m1(1, 2, 3, 4), m1(1, 2, 3, 4), m1(5, 6, 7)]),
        quasi_rep(9, 3, [m1(1, 2, 3), m1(1, 2, 3), m1(4, 5, 6, 7), m1(6, 7, 8, 9)]),
        quasi_rep(7, 2, [m1(1, 2), m1(1, 2), m1(3, 4, 5)]),
        quasi_rep(8, 4, [m1(1, 2, 3, 4, 5), m1(1, 2, 3, 4, 5), m1(6, 7, 8)]),
    ]
    rng = random.Random(113)
    reps += [QuasiRep(rep.d, 2, rep.members) for rep in (random_tame_rep(rng) for _ in range(200))]
    pavings = [grid_matroid(k, l) for k, l in ((3, 3), (3, 4), (3, 5), (4, 4), (4, 5))]
    pavings += [line_matroid(n) for n in range(4, 8)]
    pavings.append(paving_from_hyperplanes(7, 3, [m1(1, 2, 3), m1(1, 4, 5), m1(1, 6, 7)]))
    fano = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]
    pavings.append(paving_from_hyperplanes(7, 3, [m1(*line) for line in fano]))
    pavings += [random_paving(rng, max_d=10) for _ in range(60)]
    reps += [QuasiRep(p.d, p.n, p.hyperplanes) for p in pavings]
    assert any(len(set(rep.members)) < len(rep.members) for rep in reps)
    assert any(overlaps(rep.members)[2] for rep in reps)
    return reps


def test_quasi_circuits_match_brute_force_in_order():
    for rep in [*_random_tame_reps(73, 300), *_family_component_reps()]:
        assert quasi_matroid(rep).circuits() == brute_quasi_circuits(rep), rep
    for rep in _canonical_order_reps():
        assert quasi_circuits(rep) == brute_quasi_circuits(rep), rep


def test_circuit_rows_write_the_brute_circuits_in_order():
    for rep in [*_random_tame_reps(73, 100), *_family_component_reps(), *_canonical_order_reps()]:
        expected = brute_quasi_circuits(rep)
        for text in (("  ", " ", "\n"), (",[", ",", "]")):
            assert "".join(circuit_rows(rep, *text)) == label_rows(expected, *text), rep


def test_circuit_rows_are_refused_before_any_piece():
    rep = quasi_rep(60, 5, [range(30), range(30, 60)])
    with pytest.raises(TooLarge, match="circuit materialization"):
        circuit_rows(rep, "  ", " ", "\n")


def test_independence_oracle_matches_the_brute_circuits():
    # The cap oracle itself, on every subset, against the brute circuit
    # lists: tame representations at levels 2 to 5, random pavings, three
    # concurrent lines and the Fano plane (elements on three hyperplanes).
    rng = random.Random(107)
    reps = [random_tame_rep(rng, max_d=9) for _ in range(200)]
    assert {rep.n for rep in reps} == {2, 3, 4, 5}
    cases = [(quasi_matroid(rep), brute_quasi_circuits(rep)) for rep in reps]
    pavings = [random_paving(rng, max_d=9) for _ in range(60)]
    pavings.append(paving_from_hyperplanes(7, 3, [m1(1, 2, 3), m1(1, 4, 5), m1(1, 6, 7)]))
    fano = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]
    pavings.append(paving_from_hyperplanes(7, 3, [m1(*line) for line in fano]))
    cases += [(paving_to_matroid(p), brute_paving_circuits(p)) for p in pavings]
    for m, circuits in cases:
        for s in range(1 << m.d):
            assert m.is_independent(s) == brute_independent(circuits, s), (m, circuits, s)


def test_paving_circuits_match_brute_force_in_order():
    rng = random.Random(79)
    for _ in range(150):
        p = random_paving(rng)
        assert paving_to_matroid(p).circuits() == brute_paving_circuits(p), p


def test_circuit_profile_counts_the_small_circuits():
    for rep in [*_random_tame_reps(83, 400), *_family_component_reps()]:
        profile = circuit_profile(rep)
        sizes = [c.bit_count() for c in small_circuits(rep)]
        assert profile.type1 == sizes.count(rep.n - 1), rep
        assert profile.type2 == sizes.count(rep.n), rep


def test_circuit_profile_rank_is_the_greedy_rank():
    # Every listed component of lines 4-10 and grids k <= l <= 6 carries the
    # profile a fresh circuit_profile gives; the rank read off the counts
    # equals Matroid.rank's greedy pass there and on random tame reps.
    from pavemat import decompose_grid, decompose_lines

    results = [decompose_grid(k, l) for k in range(3, 7) for l in range(k, 7)]
    results += [decompose_lines(n) for n in range(4, 11)]
    for res in results:
        for report in res.components:
            profile = circuit_profile(report.rep)
            assert report.profile == profile, (res.params, report.blocks)
            assert profile.rank == quasi_matroid(report.rep).rank_value, report.rep
    ranks = set()
    for rep in _random_tame_reps(103, 600):
        rank = circuit_profile(rep).rank
        assert rank == quasi_matroid(rep).rank_value, rep
        ranks.add((rep.n, rank))
    assert {(n, r) for n in range(2, 6) for r in range(n + 1)} <= ranks


def test_circuit_profile_at_levels_above_the_ground_size():
    # At n = d + 1 two members equal to the ground set still give one type-1
    # circuit, the ground set; from n = d + 2 on no set has n - 1 elements.
    # The brute-force oracles take no combination longer than d, so they
    # stay cheap at n = 10**12, where a list of n + 2 coefficients could
    # not be built.
    reps = [*_random_tame_reps(127, 200), *_family_component_reps(), quasi_rep(3, 3, [0b111, 0b111])]
    seen_type1 = False
    for rep in reps:
        for n in (rep.d + 1, rep.d + 2, 10**12):
            if n < 2:
                continue
            high = rep._replace(n=n)
            profile = circuit_profile(high)
            sizes = [c.bit_count() for c in brute_small_circuits(high)]
            assert profile.type1 == sizes.count(n - 1), high
            assert profile.type2 == sizes.count(n), high
            assert profile.type3 == len(brute_type3_circuits(high)), high
            assert profile.rank == quasi_matroid(high).rank_value, high
            assert profile.key == circuit_key(high), high
            seen_type1 = seen_type1 or profile.type1 > 0
    assert seen_type1


def test_subset_counts_are_the_cell_by_cell_product():
    # The folded row and the products over the coefficients reached so far
    # against the product of every cell's truncated binomial, cell by cell.
    rng = random.Random(131)
    for _ in range(400):
        top = rng.randint(1, 30)
        cells = [(rng.randint(0, 40), rng.randint(0, 35), ()) for _ in range(rng.randint(0, 6))]
        want = [1] + [0] * top
        for size, cap, _ in cells:
            p = [comb(size, t) for t in range(min(size, cap) + 1)]
            want = [sum(p[t] * want[k - t] for t in range(min(k, len(p) - 1) + 1)) for k in range(top + 1)]
        assert _subset_counts(cells, top) == want, (cells, top)


def test_circuit_key_is_the_polynomial_key():
    # Every listed component of lines 4-10 and grids k <= l <= 6, and random
    # tame reps: levels 2-5, equal members and empty members among them.
    from pavemat import decompose_grid, decompose_lines

    reps = _random_tame_reps(109, 800)
    assert {rep.n for rep in reps} == {2, 3, 4, 5}
    assert any(0 in rep.members for rep in reps)
    assert any(len(set(rep.members)) < len(rep.members) for rep in reps if 0 not in rep.members)
    results = [decompose_grid(k, l) for k in range(3, 7) for l in range(k, 7)]
    results += [decompose_lines(n) for n in range(4, 11)]
    reps += [report.rep for res in results for report in res.components]
    actives = set()
    for rep in reps:
        key = circuit_key(rep)
        assert key == polynomial_circuit_key(rep), rep
        actives.add((rep.n, len(key[1])))
    # some keys have no active member and some several, at every level
    assert {(n, 0) for n in range(2, 6)} <= actives
    assert {(n, 2) for n in range(2, 6)} <= actives


def test_circuit_profile_keys_agree_exactly_when_small_circuits_do():
    # Small grounds make many representations share their small circuits.
    rng = random.Random(89)
    reps = [*_random_tame_reps(89, 400), *(random_tame_rep(rng, max_d=6) for _ in range(3000))]
    sig_of_key, key_of_sig = {}, {}
    for rep in reps:
        key = (rep.d, rep.n, circuit_profile(rep).key)
        sig = (rep.d, rep.n, small_circuits(rep))
        assert sig_of_key.setdefault(key, sig) == sig, rep
        assert key_of_sig.setdefault(sig, key) == key, rep
    assert len(sig_of_key) < len(reps)  # some classes hold several reps
    assert {n for _, n, _ in sig_of_key} == {2, 3, 4, 5}


def test_classification_matches_the_signature_rules():
    rng = random.Random(97)
    reps = [*_random_tame_reps(97, 300), *(random_tame_rep(rng, max_d=6) for _ in range(1500))]
    bases = {}
    kinds = set()
    for rep in reps:
        base = bases.setdefault((rep.d, rep.n), rep)
        m = quasi_matroid(rep)
        got = _classify(rep.d, rep.n, circuit_profile(rep), circuit_profile(base).key)
        want = signature_classification(rep, small_circuits(rep), small_circuits(base), m.rank_value)
        assert got == want, rep
        kinds.add(got.kind)
    assert kinds == {"uniform", "equals-base", "other"}


def test_histogram_is_the_materialized_one():
    for rep in [*_random_tame_reps(101, 300), *_family_component_reps()]:
        listed = Counter(c.bit_count() for c in quasi_matroid(rep).circuits())
        assert count_by_size(rep.n, circuit_profile(rep)) == listed, rep
