import random
from itertools import combinations
from math import comb

import pytest

import pavemat.core
from pavemat import check_circuit_axioms, check_circuit_list, grid_matroid, line_matroid, mask_of
from pavemat.bitset import canonical_masks, remap
from pavemat.errors import (
    AxiomViolation,
    BadParams,
    ContainmentViolation,
    InvariantViolated,
    MatroidError,
    OutOfRange,
    RankMismatch,
    TooLarge,
)

from helpers import (
    brute_closure,
    brute_independent,
    brute_rank,
    clutters,
    m1,
    random_paving,
    random_quasi_rep,
    random_tame_rep,
)
from oracles import (
    BadRank,
    GroundMismatch,
    Matroid,
    bases,
    ci_matroid,
    delete,
    dependency_leq,
    is_uniform,
    matroid_from_circuits,
    paving_to_matroid,
    quasi_matroid,
    relabel,
    uniform,
)


def test_uniform_2_7():
    m = uniform(2, 7)
    assert m.d == 7 and m.rank_value == 2
    assert len(m.circuits()) == 35
    assert all(c.bit_count() == 3 for c in m.circuits())
    assert m.is_independent(m1(1, 2))
    assert not m.is_independent(m1(1, 2, 3))


def test_free_matroid():
    m = matroid_from_circuits(3, 3, [])
    assert m.is_independent(m1(1, 2, 3))
    assert bases(m) == (0b111,)
    assert is_uniform(m) == (3, 3)


def test_uniform_bad_rank():
    with pytest.raises(BadRank):
        uniform(5, 3)


def test_elimination_violation():
    with pytest.raises(AxiomViolation) as err:
        check_circuit_list(4, None, [m1(1, 2), m1(1, 3)])
    assert err.value.x == 0  # the shared element 1


def test_circuit_list_check_order():
    # the ground set first, then the axioms (an empty circuit among them),
    # and the declared rank only once the axioms hold
    with pytest.raises(OutOfRange):
        check_circuit_list(3, 2, [m1(1, 2), m1(1, 3), m1(4)])
    with pytest.raises(OutOfRange):
        check_circuit_list(3, 2, [0, m1(4)])
    with pytest.raises(BadParams, match="the empty set cannot be a circuit"):
        check_circuit_list(3, 2, [m1(1, 2), 0, m1(1, 3)])
    with pytest.raises(AxiomViolation):
        check_circuit_list(4, 3, [m1(1, 2), m1(1, 3)])
    with pytest.raises(ContainmentViolation):
        check_circuit_list(4, 3, [m1(1, 2), m1(1, 2, 3)])
    with pytest.raises(RankMismatch) as err:
        check_circuit_list(4, 2, [m1(1, 2, 3)])
    assert (err.value.declared, err.value.computed) == (2, 3)
    assert check_circuit_list(4, None, [m1(1, 2, 3), m1(1, 2, 3)]) == (3, 1)
    assert check_circuit_list(0, 0, []) == (0, 0)


def _list_outcome(check, d, rank, circuits):
    """(rank, count) of a circuit list checked by check, or the type and
    message of the error it raised."""
    try:
        return check(d, rank, circuits)
    except MatroidError as exc:
        return type(exc), str(exc)


def _reference_list_check(d, rank, circuits):
    m = matroid_from_circuits(d, rank, circuits)
    return m.rank_value, len(m.circuits())


def test_circuit_list_check_matches_the_reference_matroid():
    # every clutter on up to 5 elements, in random order with a repeat; then
    # the circuit lists of random tame representations and of random
    # pavings, whole, with a circuit dropped and with the ground set added
    rng = random.Random(227)
    cases = []
    for d in range(6):
        for clutter in clutters(d):
            circuits = list(clutter) + list(clutter[:1])
            rng.shuffle(circuits)
            cases.append((d, circuits))
    for _ in range(60):
        for m in (quasi_matroid(random_tame_rep(rng, max_d=10)), paving_to_matroid(random_paving(rng, max_d=10))):
            circuits = list(m.circuits())
            cases.append((m.d, circuits))
            if circuits:
                cases.append((m.d, circuits[1:]))
                cases.append((m.d, circuits + [(1 << m.d) - 1]))
    kinds = set()
    for d, circuits in cases:
        want = _list_outcome(_reference_list_check, d, None, circuits)
        valid = not isinstance(want[0], type)
        # a valid list with its rank and one above declared, an invalid one
        # with a rank no list on d elements has
        for declared in (None, want[0], want[0] + 1) if valid else (None, d + 1):
            want = _list_outcome(_reference_list_check, d, declared, circuits)
            assert _list_outcome(check_circuit_list, d, declared, circuits) == want, (d, declared, circuits)
            kinds.add("valid" if not isinstance(want[0], type) else want[0])
    assert kinds == {"valid", AxiomViolation, ContainmentViolation, RankMismatch}


def test_containment_violation():
    with pytest.raises(ContainmentViolation):
        check_circuit_axioms(4, (m1(1, 2), m1(1, 2, 3)))


def _axiom_verdict(d, circuits):
    """None when the circuits pass, else the exception type and its witness."""
    try:
        check_circuit_axioms(d, circuits)
    except (AxiomViolation, ContainmentViolation) as exc:
        return type(exc), vars(exc)
    return None


def test_axiom_check_fallback_matches_dependence_table(monkeypatch):
    # the containment-test pair scan must reach the verdict and the witness of
    # the bitset decision, on valid lists, with a circuit dropped and with a
    # random set added
    rng, other = random.Random(53), random.Random(54)
    cases = [(4, (m1(1, 2), m1(1, 3))), (4, (m1(1, 2), m1(1, 2, 3)))]
    for _ in range(30):
        rep = random_quasi_rep(rng)
        circuits = quasi_matroid(rep).circuits()
        cases.append((rep.d, circuits))
        if circuits:
            drop = rng.randrange(len(circuits))
            cases.append((rep.d, circuits[:drop] + circuits[drop + 1 :]))
        cases.append((rep.d, canonical_masks(circuits + (other.randrange(1, 1 << rep.d),))))
    for _ in range(30):
        for m in (
            quasi_matroid(random_tame_rep(other, max_d=10)),
            paving_to_matroid(random_paving(other, max_d=10)),
        ):
            circuits = m.circuits()
            cases.append((m.d, circuits))
            if circuits:
                drop = other.randrange(len(circuits))
                cases.append((m.d, circuits[:drop] + circuits[drop + 1 :]))
            if m.d:
                cases.append((m.d, canonical_masks(circuits + (other.randrange(1, 1 << m.d),))))
    table = [_axiom_verdict(d, cs) for d, cs in cases]
    monkeypatch.setattr(pavemat.core, "_DP_GROUND_LIMIT", 0)
    assert [_axiom_verdict(d, cs) for d, cs in cases] == table
    kinds = {None if v is None else v[0] for v in table}
    assert kinds == {None, AxiomViolation, ContainmentViolation}


def test_axiom_decision_on_every_clutter(monkeypatch):
    # with the empty list, the accepted clutters are the labelled matroids on
    # 1..5 elements (OEIS A058673)
    accepted = []
    for d in range(1, 6):
        lists = [canonical_masks(c) for c in clutters(d) if c]
        table = [_axiom_verdict(d, cs) for cs in lists]
        with monkeypatch.context() as patch:
            patch.setattr(pavemat.core, "_DP_GROUND_LIMIT", 0)
            assert [_axiom_verdict(d, cs) for cs in lists] == table
        accepted.append(1 + table.count(None))
    assert accepted == [2, 5, 16, 68, 406]


def _first_contained_pair(circuits):
    """The pair scan: sizes in ascending pairs, then the smaller circuit, then
    the larger, each in list order."""
    sizes = sorted({c.bit_count() for c in circuits})
    for i, small_size in enumerate(sizes):
        for big_size in sizes[i + 1 :]:
            for small in (c for c in circuits if c.bit_count() == small_size):
                for big in (c for c in circuits if c.bit_count() == big_size):
                    if small & big == small:
                        return small, big
    return None


def test_bitset_minimality_names_the_pair_scan_witness():
    # random clutters on up to 12 elements, half of them with a planted
    # superset or subset of one of their members, in random order
    rng = random.Random(211)
    found = 0
    for _ in range(400):
        d = rng.randint(2, 12)
        circuits = []
        for c in (rng.randrange(1, 1 << d) for _ in range(rng.randint(1, 15))):
            if all(k & c not in (k, c) for k in circuits):
                circuits.append(c)
        if rng.randrange(2):
            c = rng.choice(circuits)
            circuits.append(rng.choice([c | rng.randrange(1 << d), c & rng.randrange(1 << d) or c]))
        rng.shuffle(circuits)
        circuits = tuple(circuits)
        expected = _first_contained_pair(circuits)
        try:
            check_circuit_axioms(d, circuits)
            got = None
        except ContainmentViolation as exc:
            got = exc.small, exc.big
        except AxiomViolation:
            got = None
        assert got == expected, (d, circuits)
        found += expected is not None
    assert 100 < found < 200


@pytest.mark.parametrize("build", [lambda: grid_matroid(4, 5), lambda: line_matroid(7)])
def test_axiom_check_on_grounds_20_and_21(build):
    m = paving_to_matroid(build())
    circuits = m.circuits()
    assert m.d in (20, 21) and m.d <= pavemat.core._DP_GROUND_LIMIT
    assert check_circuit_list(m.d, m.rank_value, circuits) == (m.rank_value, len(circuits))
    for drop in (0, len(circuits) // 2, len(circuits) - 1):
        kept = circuits[:drop] + circuits[drop + 1 :]
        with pytest.raises(AxiomViolation) as err:
            check_circuit_list(m.d, None, kept)
        c1, c2, x = err.value.c1, err.value.c2, err.value.x
        assert c1 in kept and c2 in kept and (c1 & c2) >> x & 1
        assert brute_independent(kept, (c1 | c2) & ~(1 << x))


def test_axiom_check_reports_a_disagreement(monkeypatch):
    monkeypatch.setattr(pavemat.core, "_rank_axioms_hold", lambda *args: False)
    with pytest.raises(InvariantViolated):
        check_circuit_axioms(4, uniform(1, 4).circuits())


def test_axiom_check_above_the_table_limit():
    d = pavemat.core._DP_GROUND_LIMIT + 1
    circuits = uniform(1, d).circuits()
    check_circuit_axioms(d, circuits)
    with pytest.raises(AxiomViolation):
        check_circuit_axioms(d, circuits[1:])


def test_axiom_pair_budget_applies_above_16():
    # C(17, 5)^2 and C(16, 6)^2 both exceed the pair budget, which bounds only
    # pair scans: the bitset decision settles both lists, and on 17 elements
    # a list that fails it is refused before its witness scan
    circuits = uniform(4, 17).circuits()
    check_circuit_axioms(17, circuits)
    with pytest.raises(TooLarge):
        check_circuit_axioms(17, circuits[1:])
    check_circuit_axioms(16, uniform(5, 16).circuits())


def test_rank_mismatch():
    with pytest.raises(RankMismatch):
        check_circuit_list(7, 3, [mask_of(c) for c in combinations(range(7), 3)])


def test_duplicates_and_order_are_canonicalized():
    assert check_circuit_list(4, 2, [m1(3, 4), m1(1, 2), m1(3, 4)]) == (2, 2)
    m = matroid_from_circuits(4, 2, [m1(3, 4), m1(1, 2), m1(3, 4)])
    assert m.circuits() == (m1(1, 2), m1(3, 4))


def test_out_of_range():
    m = uniform(2, 5)
    with pytest.raises(OutOfRange):
        m.is_independent(1 << 9)


def test_rank_examples():
    u = uniform(2, 7)
    assert u.rank(m1(1, 2, 3, 4)) == 2
    assert u.rank(0) == 0
    assert u.rank() == 2


def test_closure_examples():
    assert brute_closure((), m1(2), 3) == m1(2)
    u = uniform(2, 7)
    assert brute_closure(u.circuits(), m1(1, 2), 7) == (1 << 7) - 1


def test_bases_u24():
    m = uniform(2, 4)
    assert len(bases(m)) == 6
    assert bases(m) == tuple(mask_of(c) for c in combinations(range(4), 2))


def test_deletion_uniform():
    u = uniform(2, 7)
    deleted, kept = delete(u, m1(7))
    assert kept == tuple(range(6))
    v = uniform(2, 6)
    assert deleted.circuits() == v.circuits()
    same, kept_all = delete(u, 0)
    assert kept_all == tuple(range(7))
    assert same.circuits() == u.circuits()


def test_deletion_reindexes():
    # elements 1, 3, 4 pairwise parallel; element 2 free
    m = matroid_from_circuits(4, 2, [m1(1, 3), m1(1, 4), m1(3, 4)])
    deleted, kept = delete(m, m1(2))
    assert kept == (0, 2, 3)
    assert deleted.circuits() == (0b011, 0b101, 0b110)


def test_dependency_order_reflexive_and_witness():
    u = uniform(2, 4)
    free = matroid_from_circuits(4, 4, [])
    assert dependency_leq(u, u).leq
    verdict = dependency_leq(u, free)
    assert not verdict.leq
    assert verdict.witness is not None and verdict.witness.bit_count() == 3
    up = dependency_leq(free, u)  # free has no circuits, so anything is above it
    assert up.leq and up.witness is None


def test_dependency_order_ground_mismatch():
    with pytest.raises(GroundMismatch):
        dependency_leq(uniform(2, 4), uniform(2, 5))


def test_uniform_circuit_count():
    assert len(uniform(2, 12).circuits()) == comb(12, 3) == 220


def test_is_uniform_rejects_grid():
    m = paving_to_matroid(grid_matroid(3, 4))
    assert is_uniform(m) is None


def test_is_uniform_oracle_mode():
    m = Matroid(6, 2, oracle=lambda s: s.bit_count() <= 2)
    assert is_uniform(m) == (2, 6)
    holed = Matroid(6, 2, oracle=lambda s: s.bit_count() <= 2 and s != 0b11)
    holed.rank_value = holed.rank()
    assert is_uniform(holed) is None


def test_rank_value_defaults_to_the_greedy_rank():
    holed = Matroid(6, oracle=lambda s: s.bit_count() <= 2 and s & 0b11 != 0b11)
    assert holed.rank_value == 2
    assert Matroid(4, oracle=lambda s: s == 0).rank_value == 0
    assert Matroid(6, circuits=(0b11, 0b111100)).rank_value == 4
    assert Matroid(6, 3, oracle=lambda s: s.bit_count() <= 2).rank_value == 3  # given, not checked


def test_rank_monotone_and_submodular():
    rng = random.Random(7)
    for _ in range(40):
        rep = random_quasi_rep(rng, max_d=9)
        m = quasi_matroid(rep)
        full = (1 << rep.d) - 1
        for _ in range(25):
            a = rng.randrange(1 << rep.d)
            b = rng.randrange(1 << rep.d)
            assert m.rank(a) <= m.rank(a | b)
            assert m.rank(a | b) + m.rank(a & b) <= m.rank(a) + m.rank(b)
            assert m.rank(a) <= m.rank(full)


def test_closure_idempotent_extensive():
    rng = random.Random(11)
    for _ in range(30):
        rep = random_quasi_rep(rng, max_d=9)
        circuits = quasi_matroid(rep).circuits()
        for _ in range(10):
            s = rng.randrange(1 << rep.d)
            cl = brute_closure(circuits, s, rep.d)
            assert cl & s == s
            assert brute_closure(circuits, cl, rep.d) == cl


def test_dependency_partial_order_random():
    rng = random.Random(13)
    # matroids on a shared ground set, ordered by their dependence predicates
    mats = []
    while len(mats) < 12:
        rep = random_quasi_rep(rng, max_d=7)
        if rep.d == 7:
            mats.append(quasi_matroid(rep))
    for a in mats:
        assert dependency_leq(a, a).leq
    for a in mats:
        for b in mats:
            ab, ba = dependency_leq(a, b), dependency_leq(b, a)
            if ab.leq and ba.leq:
                assert a.circuits() == b.circuits()
            for c in mats:
                if ab.leq and dependency_leq(b, c).leq:
                    assert dependency_leq(a, c).leq


def test_oracle_matches_explicit_small():
    rng = random.Random(17)
    for _ in range(25):
        rep = random_quasi_rep(rng, max_d=8)
        m = quasi_matroid(rep)
        circuits = m.circuits()
        explicit = Matroid(rep.d, m.rank_value, circuits=circuits)
        for s in range(1 << rep.d):
            if s.bit_count() <= rep.n + 1:
                assert m.is_independent(s) == explicit.is_independent(s)


def test_brute_force_agreement():
    rng = random.Random(19)
    for _ in range(15):
        rep = random_quasi_rep(rng, max_d=7)
        m = quasi_matroid(rep)
        circuits = m.circuits()
        for s in range(1 << rep.d):
            assert m.is_independent(s) == brute_independent(circuits, s)
        for _ in range(8):
            s = rng.randrange(1 << rep.d)
            assert m.rank(s) == brute_rank(circuits, s)


def test_independence_answers_agree_before_and_after_circuits():
    # An oracle-backed matroid answers from its oracle also once circuits()
    # has listed the circuits; the answers must not change.
    rng = random.Random(103)
    matroids = [ci_matroid(3, 3, 3, 3, 3), ci_matroid(4, 4, 3, 4, 4)]
    matroids += [quasi_matroid(random_tame_rep(rng)) for _ in range(40)]
    for m in matroids:
        masks = [rng.getrandbits(m.d) for _ in range(300)] + [0, (1 << m.d) - 1]
        before = [m.is_independent(s) for s in masks]
        circuits = m.circuits()
        assert [m.is_independent(s) for s in masks] == before
        assert before == [brute_independent(circuits, s) for s in masks]


def test_oracle_is_asked_once_circuits_are_listed():
    asked = []
    m = Matroid(3, 3, oracle=lambda s: asked.append(s) or True, circuit_fn=lambda: ())
    m.circuits()
    assert m.is_independent(0b101) and asked == [0b101]


def test_remap_takes_a_sequence_or_a_dict():
    assert remap(0, (3, 1)) == 0
    assert remap(mask_of([0, 2]), (5, 0, 1)) == mask_of([5, 1])
    assert remap(mask_of([70, 4]), {4: 0, 70: 130}) == mask_of([0, 130])


def test_relabel_roundtrip():
    rng = random.Random(23)
    m = quasi_matroid(random_quasi_rep(rng, max_d=8))
    perm = list(range(m.d))
    rng.shuffle(perm)
    back = [0] * m.d
    for old, new in enumerate(perm):
        back[new] = old
    twice = relabel(relabel(m, tuple(perm)), tuple(back))
    for s in range(1 << m.d):
        assert twice.is_independent(s) == m.is_independent(s)


def test_axiom_check_on_families():
    for m in (
        paving_to_matroid(grid_matroid(3, 4)),
        paving_to_matroid(line_matroid(4)),
        uniform(3, 8),
    ):
        check_circuit_axioms(m.d, m.circuits())


def test_uniform_budget_fallback_oracle():
    # C(200, 4) blows the circuit budget, so this must come back oracle-backed
    big = uniform(3, 200)
    assert big.rank_value == 3
    assert big.is_independent(mask_of([0, 99, 199]))
    assert not big.is_independent(mask_of([0, 1, 2, 3]))
    assert big.rank(mask_of(range(10, 60))) == 3
    with pytest.raises(MatroidError):  # an oracle alone cannot list circuits
        big.circuits()


def test_paving_budget_fallback_matches_explicit():
    p = grid_matroid(3, 4)
    explicit = Matroid(p.d, 3, circuits=paving_to_matroid(p).circuits())
    oracle = paving_to_matroid(p, budget=0)
    with pytest.raises(TooLarge):
        oracle.circuits()
    for s in range(1 << p.d):
        if s.bit_count() <= 4:
            assert explicit.is_independent(s) == oracle.is_independent(s)
