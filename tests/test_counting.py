import random
from fractions import Fraction
from math import factorial, prod

import pytest

from pavemat import (
    TruncatedEGF,
    admissible_partition_count,
    forbidden_sizes,
    grid_component_count,
    grid_excluded_count,
    grid_forbidden,
    line_component_count,
    partition_count_series,
)
from pavemat import counting
from pavemat.counting import (
    ForbiddenProfiles,
    _boxed_vectors,
    _exp_1d,
    _exp_2d,
    _partition_sum,
    admissible_codes,
    grid_component_codes,
    line_component_codes,
)
from pavemat.errors import BadParams, EnumerationBudgetExceeded, InvariantViolated, RangeUnsupported

from helpers import (
    brute_admissible_count,
    brute_vector_partitions,
    cellwise_exp_2d,
    coefficient,
    fraction_exp_1d,
    fraction_exp_2d,
    iter_rgs,
    iter_set_partitions,
    rgs_to_blocks,
    set_partitions,
    vector_partitions,
)
from oracles import (
    grid_component_partitions,
    line_component_partitions,
    recursive_admissible_codes,
    recursive_weighted_partitions,
    weighted_partitions,
)

TABLE_GRID = {(4, 4): 2, (4, 5): 22, (5, 5): 127, (4, 6): 86, (5, 6): 417}
TABLE_LINES = {4: 2, 5: 2, 6: 17, 7: 58, 8: 191}


def test_vector_partitions_grid_target_4_4():
    parts = list(vector_partitions((4, 4), grid_forbidden()))
    assert len(parts) == 4
    assert ((4, 4),) in parts
    assert ((4, 3), (0, 1)) in parts
    assert ((3, 4), (1, 0)) in parts
    assert ((1, 0),) * 4 + ((0, 1),) * 4 in parts
    for p in parts:
        assert list(p) == sorted(p, reverse=True)


def test_vector_partitions_zero_target():
    assert list(vector_partitions((0, 0), grid_forbidden())) == [()]
    assert list(vector_partitions(0, forbidden_sizes({2, 3}))) == [()]


def test_vector_partitions_rejects_a_bad_target_when_called():
    with pytest.raises(BadParams):
        vector_partitions((1, 2, 3), grid_forbidden())


def test_vector_partitions_one_dimensional():
    parts = list(vector_partitions(5, forbidden_sizes({2, 3})))
    assert sorted(parts) == sorted([((5,),), ((4,), (1,)), ((1,),) * 5])


def test_admissible_counts_examples():
    assert admissible_partition_count(5, forbidden_sizes({2, 3})) == 7
    assert admissible_partition_count((4, 4), grid_forbidden()) == 10
    assert admissible_partition_count(0, forbidden_sizes({2, 3})) == 1


def test_admissible_counts_match_brute_force_1d():
    forb = forbidden_sizes({2, 3})
    for n in range(10):
        brute = sum(
            1
            for p in set_partitions(list(range(n)))
            if all(len(b) not in (2, 3) for b in p)
        )
        assert admissible_partition_count(n, forb) == brute


def test_admissible_counts_match_brute_force_2d():
    forb = grid_forbidden()
    for k in range(1, 6):
        for l in range(1, 6):
            if k + l > 9:
                continue
            items = [("r", i) for i in range(k)] + [("c", j) for j in range(l)]
            brute = 0
            for p in set_partitions(items):
                ok = True
                for block in p:
                    a = sum(1 for kind, _ in block if kind == "r")
                    b = len(block) - a
                    if not forb.allows((a, b)):
                        ok = False
                        break
                brute += ok
            assert admissible_partition_count((k, l), forb) == brute


def test_series_1d_known_counts():
    series = partition_count_series(forbidden_sizes({2, 3}), 6)
    assert [series.count(n) for n in range(7)] == [1, 1, 1, 1, 2, 7, 23]


def test_series_2d_matches_multinomial():
    forb = grid_forbidden()
    series = partition_count_series(forb, (5, 5))
    for k in range(6):
        for l in range(6):
            assert series.count((k, l)) == admissible_partition_count((k, l), forb)


def test_series_empty_allowed_set_is_one():
    everything = forbidden_sizes(range(1, 20))
    series = partition_count_series(everything, 8)
    assert coefficient(series, 0) == 1
    assert all(coefficient(series, n) == 0 for n in range(1, 9))


def test_series_counts_are_integral_and_nonnegative():
    series = partition_count_series(grid_forbidden(), (6, 6))
    for k in range(7):
        for l in range(7):
            value = coefficient(series, (k, l)) * factorial(k) * factorial(l)
            assert value.denominator == 1
            assert value >= 0


def test_series_closed_form_1d():
    # the allowed-size series for forbidden {2,3} is exactly e^x - 1 - x^2/2 - x^3/6;
    # m! [x^m] of it is the integer weight _exp_1d takes at m
    bound = 10
    inner = [1] * (bound + 1)
    inner[0] = 0
    inner[2] = 0
    inner[3] = 0
    closed = TruncatedEGF((bound,), tuple(_exp_1d(inner, bound)))
    series = partition_count_series(forbidden_sizes({2, 3}), bound)
    for n in range(bound + 1):
        assert coefficient(closed, n) == coefficient(series, n)


def test_excluded_count_values():
    assert grid_excluded_count(4, 4) == 8
    assert grid_excluded_count(4, 5) == 19
    assert grid_excluded_count(5, 5) == 30
    with pytest.raises(RangeUnsupported):
        grid_excluded_count(3, 5)


def test_excluded_count_matches_brute_force():
    forb = grid_forbidden()
    for k, l in ((4, 4), (4, 5), (5, 4), (5, 5)):
        brute = 0
        for blocks in iter_set_partitions(k + l):
            ok = True
            covering = False
            for block in blocks:
                a = sum(1 for h in block if h < k)
                b = len(block) - a
                if not forb.allows((a, b)):
                    ok = False
                    break
                if a == k or b == l:
                    covering = True
            if ok and covering and len(blocks) > 1:
                brute += 1
        assert grid_excluded_count(k, l) == brute


def test_grid_counts_reference_table():
    for (k, l), expected in TABLE_GRID.items():
        for method in ("enumerate", "formula", "egf"):
            assert grid_component_count(k, l, method) == expected


def test_grid_counts_three_way_agreement():
    for k in range(4, 8):
        for l in range(4, 8):
            if k + l > 11:
                continue
            e = grid_component_count(k, l, "enumerate")
            f = grid_component_count(k, l, "formula")
            g = grid_component_count(k, l, "egf")
            assert e == f == g


def test_formula_and_egf_agree_wherever_both_run():
    for n in range(5, 41):
        assert line_component_count(n, "formula") == line_component_count(n, "egf")
    for k in range(4, 15):
        for l in range(k, 29 - k):
            assert grid_component_count(k, l, "formula") == grid_component_count(k, l, "egf")


def test_grid_counts_symmetry():
    for k, l in ((4, 5), (4, 6), (5, 6)):
        for method in ("enumerate", "formula", "egf"):
            assert grid_component_count(k, l, method) == grid_component_count(l, k, method)
    # egf sums the columns of a row and the rows of a column differently
    for k, l in ((4, 9), (5, 17), (8, 32), (13, 40), (4, 116)):
        assert grid_component_count(k, l, "egf") == grid_component_count(l, k, "egf")


def test_grid_count_enumerate_matches_plain_filter():
    for k in range(3, 7):
        for l in range(3, 7):
            if k + l > 10:
                continue
            plain = list(grid_component_partitions(k, l))
            assert [rgs_to_blocks(c) for c in grid_component_codes(k, l)] == plain
            assert grid_component_count(k, l, "enumerate") == len(plain)


def test_grid_count_small_cases():
    assert grid_component_count(3, 3, "enumerate") == 1
    for l in range(4, 9):
        assert grid_component_count(3, l, "enumerate") == 2


def test_grid_count_range_errors():
    with pytest.raises(RangeUnsupported):
        grid_component_count(3, 6, "formula")
    with pytest.raises(RangeUnsupported):
        grid_component_count(2, 6, "enumerate")


def test_line_counts_reference_table():
    for n, expected in TABLE_LINES.items():
        assert line_component_count(n, "enumerate") == expected
        if n >= 5:
            assert line_component_count(n, "formula") == expected
            assert line_component_count(n, "egf") == expected


def test_line_count_formula_bound():
    # at n = 4 the size-3 exclusion already covers the would-be subtraction
    with pytest.raises(RangeUnsupported):
        line_component_count(4, "formula")
    with pytest.raises(RangeUnsupported):
        line_component_count(4, "egf")


def test_line_codes_refuse_fewer_than_four_lines():
    # as grid_component_codes refuses k or l below 3, before any code
    for n in range(4):
        with pytest.raises(RangeUnsupported, match=rf"^line components need n >= 4, got {n}$"):
            line_component_codes(n)
        with pytest.raises(RangeUnsupported, match=rf"^line components need n >= 4, got {n}$"):
            line_component_count(n, "enumerate")


def test_line_count_enumerate_matches_plain_filter():
    for n in range(4, 11):
        plain = list(line_component_partitions(n))
        assert [rgs_to_blocks(c) for c in line_component_codes(n)] == plain
        assert line_component_count(n, "enumerate") == len(plain)


def test_line_count_formula_identity():
    for n in range(5, 10):
        q = admissible_partition_count(n, forbidden_sizes({2, 3}))
        assert line_component_count(n, "formula") == q - n


def test_profiles_have_dimension_1_or_2():
    with pytest.raises(BadParams):
        ForbiddenProfiles(3, lambda v: False)


def test_series_reads_counts_and_coefficients_only_within_bounds():
    line = partition_count_series(forbidden_sizes({2, 3}), 6)
    grid = partition_count_series(grid_forbidden(), (5, 7))
    for series, outside in ((line, [7, 8]), (grid, [(6, 0), (0, 8), (6, 8)])):
        for n in outside:
            with pytest.raises(BadParams):
                series.count(n)
            with pytest.raises(BadParams):
                coefficient(series, n)
    for a in range(6):
        for b in range(8):
            value = coefficient(grid, (a, b)) * factorial(a) * factorial(b)
            assert value == grid.count((a, b))
    assert coefficient(grid, (4, 4)) == Fraction(10, 24 * 24)


def test_formula_budgets(monkeypatch):
    for count, args, name, value, limit in (
        (grid_component_count, (21, 20), "grid formula", 41, 40),
        (line_component_count, (61,), "line formula", 61, 60),
    ):
        with pytest.raises(EnumerationBudgetExceeded) as err:
            count(*args, "formula")
        assert (err.value.budget_name, err.value.value, err.value.limit) == (name, value, limit)
    # the limits are inclusive; lowered here so the runs at the limit stay quick
    monkeypatch.setattr(counting, "GRID_FORMULA_BUDGET", 9)
    monkeypatch.setattr(counting, "LINE_FORMULA_BUDGET", 6)
    assert grid_component_count(4, 5, "formula") == 22
    assert line_component_count(6, "formula") == 17
    with pytest.raises(EnumerationBudgetExceeded):
        grid_component_count(5, 5, "formula")
    with pytest.raises(EnumerationBudgetExceeded):
        line_component_count(7, "formula")
    # the egf route has budgets of its own
    assert grid_component_count(5, 5, "egf") == 127
    assert line_component_count(7, "egf") == 58


def test_egf_budgets(monkeypatch):
    for count, args, name, value, limit in (
        (grid_component_count, (61, 60), "grid egf", 121, 120),
        (line_component_count, (801,), "line egf", 801, 800),
    ):
        with pytest.raises(EnumerationBudgetExceeded) as err:
            count(*args, "egf")
        assert (err.value.budget_name, err.value.value, err.value.limit) == (name, value, limit)
    # the limits are inclusive; lowered here so the runs at the limit stay quick
    monkeypatch.setattr(counting, "GRID_EGF_BUDGET", 9)
    monkeypatch.setattr(counting, "LINE_EGF_BUDGET", 6)
    assert grid_component_count(4, 5, "egf") == 22
    assert line_component_count(6, "egf") == 17
    with pytest.raises(EnumerationBudgetExceeded):
        grid_component_count(5, 5, "egf")
    with pytest.raises(EnumerationBudgetExceeded):
        line_component_count(7, "egf")


def _random_forbidden(rng: random.Random, bound: tuple[int, ...]) -> ForbiddenProfiles:
    """Forbid a random share of the nonzero vectors within the bound."""
    share = rng.choice((0.0, 0.2, 0.5, 0.8))
    fixed = frozenset(v for v in _boxed_vectors(bound) if rng.random() < share)
    return ForbiddenProfiles(len(bound), lambda v: v in fixed)


def test_series_matches_fraction_recurrence_on_random_profiles():
    rng = random.Random(4101)
    for _ in range(12):
        bound = rng.randint(0, 40)
        forb = _random_forbidden(rng, (bound,))
        alpha = [
            Fraction(1, factorial(m)) if forb.allows((m,)) else Fraction(0)
            for m in range(bound + 1)
        ]
        oracle = fraction_exp_1d(alpha, bound)
        series = partition_count_series(forb, bound)
        assert [coefficient(series, m) for m in range(bound + 1)] == oracle
    for _ in range(12):
        bounds = (rng.randint(0, 10), rng.randint(0, 10))
        forb = _random_forbidden(rng, bounds)
        alpha2 = {
            v: Fraction(1, factorial(v[0]) * factorial(v[1]))
            for v in _boxed_vectors(bounds)
            if forb.allows(v)
        }
        oracle2 = fraction_exp_2d(alpha2, bounds)
        series = partition_count_series(forb, bounds)
        for a in range(bounds[0] + 1):
            for b in range(bounds[1] + 1):
                assert coefficient(series, (a, b)) == oracle2[a][b]


def test_exp_kernels_match_fraction_recurrence_on_integer_weights():
    rng = random.Random(4103)
    for _ in range(8):
        bound = rng.randint(0, 25)
        weights = [rng.choice((0, 1, 2, 5)) for _ in range(bound + 1)]
        oracle = fraction_exp_1d([Fraction(w, factorial(i)) for i, w in enumerate(weights)], bound)
        assert [Fraction(c, factorial(n)) for n, c in enumerate(_exp_1d(weights, bound))] == oracle
    for _ in range(8):
        bounds = (rng.randint(0, 8), rng.randint(0, 8))
        weights2 = {v: rng.choice((0, 1, 3)) for v in _boxed_vectors(bounds)}
        oracle2 = fraction_exp_2d(
            {v: Fraction(w, factorial(v[0]) * factorial(v[1])) for v, w in weights2.items()}, bounds
        )
        counts = _exp_2d(weights2, bounds)
        for a in range(bounds[0] + 1):
            for b in range(bounds[1] + 1):
                assert Fraction(counts[a][b], factorial(a) * factorial(b)) == oracle2[a][b]


def _grid_weights(bounds: tuple[int, int]) -> dict[tuple[int, int], int]:
    allowed = grid_forbidden().allows
    return {v: 1 for v in _boxed_vectors(bounds) if allowed(v)}


def test_exp_2d_matches_cellwise_sums_on_grid_weights():
    shapes = [(k, k) for k in range(13)] + [(18, 18), (30, 30), (4, 40), (40, 4), (3, 17), (17, 3)]
    for bounds in shapes:
        weights = _grid_weights(bounds)
        assert _exp_2d(weights, bounds) == cellwise_exp_2d(weights, bounds)


def test_exp_2d_matches_cellwise_sums_on_repeated_weight_rows():
    rng = random.Random(4104)
    for _ in range(40):
        b1, b2 = rng.randint(1, 14), rng.randint(1, 14)
        # 2 or 3 rows, each size i taking one; some weights fall outside the bounds
        rows = [
            {j: rng.choice((1, 2, 3)) for j in range(b2 + 3) if rng.random() < 0.6}
            for _ in range(rng.randint(2, 3))
        ]
        weights = {(i, j): w for i in range(b1 + 3) for j, w in rng.choice(rows).items()}
        assert _exp_2d(weights, (b1, b2)) == cellwise_exp_2d(weights, (b1, b2))


def test_exp_2d_on_a_single_line_and_on_zero_weights():
    rng = random.Random(4105)
    for n in (0, 1, 5, 12):
        for bounds in ((0, n), (n, 0)):
            for weights in (
                _grid_weights(bounds),
                {v: rng.choice((0, 1, 2, 3)) for v in _boxed_vectors(bounds)},
            ):
                assert _exp_2d(weights, bounds) == cellwise_exp_2d(weights, bounds)
    for bounds in ((0, 0), (3, 5), (6, 2)):
        zero = {v: 0 for v in _boxed_vectors(bounds)}
        counts = _exp_2d(zero, bounds)
        assert counts == cellwise_exp_2d(zero, bounds)
        assert counts == [[int(a == b == 0) for b in range(bounds[1] + 1)] for a in range(bounds[0] + 1)]


# The edge targets that both random-profile walk tests take before their random ones.
EDGE_TARGETS = [(0,), (0, 0), (1,), (1, 0), (0, 1), (0, 4), (5, 0)]


def test_vector_partitions_match_brute_walk_on_random_profiles():
    rng = random.Random(4102)
    targets = list(EDGE_TARGETS)
    targets += [(rng.randint(1, 25),) for _ in range(12)]
    targets += [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(12)]
    for tgt in targets:
        forb = _random_forbidden(rng, tgt)
        target = tgt[0] if len(tgt) == 1 else tgt
        parts = list(vector_partitions(target, forb))
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert list(p) == sorted(p, reverse=True)
        assert sorted(parts) == sorted(brute_vector_partitions(tgt, forb))
        assert admissible_partition_count(target, forb) == brute_admissible_count(tgt, forb)
        # in order, each leaf's parts and multiplicities (smallest part first) and denom
        assert list(weighted_partitions(tgt, forb)) == list(recursive_weighted_partitions(tgt, forb))


def test_partition_sum_matches_the_oracle_walk_and_brute_count():
    """The carried quotients sum to tgt!/denom over the oracle walk's leaves,
    on random profiles, with the singletons (1,), (1, 0) and (0, 1) and the
    pair (1, 1) forbidden too, and on targets that no multiset reaches."""
    rng = random.Random(4105)
    targets = [(n,) for n in range(15)] + [(0, 0), (0, 6), (7, 0)]
    targets += [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(24)]
    cases = []
    for tgt in targets:
        forb = _random_forbidden(rng, tgt)
        cases.append((tgt, forb))
        extra = [{(1,)}] if len(tgt) == 1 else [{(1, 0)}, {(0, 1)}, {(1, 0), (0, 1)}, {(1, 1)}]
        for banned in extra:
            forbids = lambda v, s=banned, f=forb.forbids: v in s or f(v)
            cases.append((tgt, ForbiddenProfiles(len(tgt), forbids)))
    # only even sizes, or only even rows with even columns: odd targets have no multiset
    even = ForbiddenProfiles(1, lambda v: v[0] % 2)
    even2 = ForbiddenProfiles(2, lambda v: v[0] % 2 or v[1] % 2)
    cases += [((7,), even), ((13,), even), ((8,), even), ((3, 4), even2), ((4, 5), even2), ((4, 6), even2)]
    for tgt, f in cases:
        numer = prod(map(factorial, tgt))
        walk = [divmod(numer, denom) for _, denom in weighted_partitions(tgt, f)]
        assert all(r == 0 for _, r in walk)
        count = _partition_sum(tgt, f)
        assert count == sum(q for q, _ in walk) == brute_admissible_count(tgt, f)
        if f in (even, even2):
            assert (count == 0) == any(x % 2 for x in tgt)


def test_partition_sum_raises_on_an_inexact_quotient(monkeypatch):
    """A quotient with a remainder raises, under python -O too, and no count
    comes back: with 3! read as 7, the (3,) part divides 4! by 7 and the
    (4, 3) block divides 4! 4! by 4! 7."""
    monkeypatch.setattr(counting, "factorial", lambda x: 7 if x == 3 else factorial(x))
    with pytest.raises(InvariantViolated):
        admissible_partition_count(4, forbidden_sizes(()))
    with pytest.raises(InvariantViolated):
        grid_component_count(4, 4, method="formula")


def test_admissible_codes_match_filtered_rgs_on_random_profiles():
    rng = random.Random(4104)
    targets = list(EDGE_TARGETS)
    targets += [(rng.randint(1, 9),) for _ in range(12)]
    targets += [(rng.randint(0, 5), rng.randint(0, 4)) for _ in range(16)]
    for tgt in targets:
        forb = _random_forbidden(rng, tgt)
        a, m = tgt[0], sum(tgt)

        def allowed(block: list[int]) -> bool:
            sort0 = sum(1 for i in block if i < a)
            return forb.allows((sort0, len(block) - sort0)[: len(tgt)])

        plain = [
            tuple(code)
            for code in iter_rgs(m)
            if all(allowed(block) for block in rgs_to_blocks(code))
        ]
        target = tgt[0] if len(tgt) == 1 else tgt
        codes = list(admissible_codes(target, forb))
        assert codes == plain == list(recursive_admissible_codes(target, forb))
        assert len(codes) == admissible_partition_count(target, forb)


def test_weighted_partitions_force_the_multiplicity_of_the_last_column_filler():
    # (0, 3) is the only allowed part with columns, so its multiplicity is
    # forced by the columns left: a multiple of 3, or no partition
    forb = ForbiddenProfiles(2, lambda v: v[1] and v != (0, 3))
    for tgt in [(4, 6), (4, 7), (0, 9), (3, 0), (2, 3)]:
        walk = list(weighted_partitions(tgt, forb))
        assert walk == list(recursive_weighted_partitions(tgt, forb))
        assert bool(walk) == (tgt[1] % 3 == 0)
        if tgt[1]:  # the smallest part, (0, 3), with its forced multiplicity
            assert {path[:2] for path, _ in walk} <= {((0, 3), tgt[1] // 3)}
        assert sorted(vector_partitions(tgt, forb)) == sorted(brute_vector_partitions(tgt, forb))


def test_walks_match_recursive_walks_on_family_targets(monkeypatch):
    """Grid 3x3 to 7x7 and lines 4 to 11: the formula walk on the families'
    profiles, and the enumerate walk on the profiles that grid_component_codes
    and line_component_codes hand to admissible_codes."""
    grids = [(k, l) for k in range(3, 8) for l in range(k, 8)]
    lines = range(4, 12)
    for tgt, forb in [(g, grid_forbidden()) for g in grids] + [((n,), forbidden_sizes({2, 3})) for n in lines]:
        assert list(weighted_partitions(tgt, forb)) == list(recursive_weighted_partitions(tgt, forb))
    monkeypatch.setattr(counting, "admissible_codes", lambda target, forb: (target, forb))
    handed = [grid_component_codes(k, l) for k, l in grids] + [line_component_codes(n) for n in lines]
    monkeypatch.undo()
    for target, forb in handed:
        assert list(admissible_codes(target, forb)) == list(recursive_admissible_codes(target, forb))


def test_admissible_codes_is_lazy():
    calls = []

    def forbids(v):
        calls.append(v)
        return v[0] == 2

    codes = admissible_codes(6, ForbiddenProfiles(1, forbids))
    assert calls == []  # grid_component_count checks its budget at this point
    assert next(codes) == (0, 0, 0, 0, 0, 0) and calls
    # two walks of one target, interleaved, keep their own state
    alone = list(admissible_codes((4, 5), grid_forbidden()))
    pairs = list(zip(admissible_codes((4, 5), grid_forbidden()), admissible_codes((4, 5), grid_forbidden())))
    assert [x for x, _ in pairs] == [y for _, y in pairs] == alone
