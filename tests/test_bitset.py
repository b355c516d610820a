import gc
import random
from collections import Counter

import pytest

from pavemat import line_matroid, quasi_rep
from pavemat.bitset import _ROWS_PER_PIECE, capped_rows, capped_subsets, overlaps, subsets_of_size

from helpers import label_rows


def brute_capped(ground, r, caps, within=None):
    return [
        s
        for s in subsets_of_size(ground, r)
        if all((s & m).bit_count() < t for m, t in caps)
        and (within is None or any(s & ~w == 0 for w in within))
    ]


# The text rows of `matroid --circuits` and of a JSON export's circuit list.
ROW_FORMATS = [("  ", " ", "\n"), (",\n    [\n      ", ",\n      ", "\n    ]")]


def assert_rows_match(ground, r, caps, within=None):
    """capped_rows writes label_rows of capped_subsets byte for byte, in
    nonempty pieces of _ROWS_PER_PIECE rows up to fewer than d more, only the
    last piece shorter; returns the number of pieces."""
    masks = capped_subsets(ground, r, caps, within)
    for before, sep, end in ROW_FORMATS:
        pieces = list(capped_rows(ground, r, caps, within, before, sep, end))
        assert "".join(pieces) == label_rows(masks, before, sep, end), (ground, r, caps, within)
        # end closes each row and occurs nowhere else in either format
        counts = [piece.count(end) for piece in pieces]
        assert sum(counts) == len(masks) and all(counts)
        assert all(c < _ROWS_PER_PIECE + max(1, ground.bit_count()) for c in counts)
        assert all(c >= _ROWS_PER_PIECE for c in counts[:-1])
    return len(pieces)


def test_capped_subsets_matches_the_brute_force_filter():
    rng = random.Random(13)
    for _ in range(3000):
        d = rng.randint(0, 12)
        ground = rng.getrandbits(d) if rng.random() < 0.5 else (1 << d) - 1
        r = rng.randint(0, 6)
        # masks may reach two elements past the ground set
        caps = [(rng.getrandbits(d + 2), rng.randint(1, 5)) for _ in range(rng.randint(0, 6))]
        if caps and rng.random() < 0.2:
            caps.append(caps[0])
        if rng.random() < 0.05:
            caps.append((rng.getrandbits(d + 2), 0))
        assert capped_subsets(ground, r, caps) == brute_capped(ground, r, caps), (ground, r, caps)
        assert_rows_match(ground, r, caps)


@pytest.mark.parametrize(
    "ground, r, caps",
    [
        (0b111111, 3, [(0b000111, 0)]),  # t = 0: every set breaks the cap
        (0b111111, 0, [(0b000111, 0)]),
        (0b111111, 3, [(0, 0)]),  # even a cap with no elements
        (0b111111, 3, [(0b000111, 1)]),  # t = 1 takes the cap's elements out
        (0b111111, 1, [(0b000111, 1)]),
        (0b111111, 3, [(0b111111, 1)]),
        (0b111111, 0, []),  # r = 0: the empty set
        (0b111111, 0, [(0b000111, 1)]),
        (0b111111, 1, []),  # r = 1: the singletons
        (0b111111, 1, [(0b000111, 2)]),
        (0, 0, []),  # empty ground
        (0, 2, [(0b11, 1)]),
        (0, 1, []),
        (0b111, 4, []),  # r above the ground size
        (0b101101, 3, [(0b111111000, 2), (0b010010, 1)]),  # caps outside the ground
        (0b111111, 4, [(0b111000, 2), (0b111000, 2)]),  # repeated caps
        (0b111111, 4, [(0b111000, 3), (0b011100, 2), (0b011100, 2)]),
        (0b11111111, 5, [(0b11110000, 3), (0b00111100, 3), (0b00001111, 3)]),
    ],
)
def test_capped_subsets_edge_cases(ground, r, caps):
    assert capped_subsets(ground, r, caps) == brute_capped(ground, r, caps)
    assert_rows_match(ground, r, caps)


def test_capped_subsets_within_matches_the_brute_force_filter():
    rng = random.Random(19)
    kinds = Counter()
    for _ in range(4000):
        d = rng.randint(0, 12)
        ground = rng.getrandbits(d) if rng.random() < 0.5 else (1 << d) - 1
        r = rng.randint(0, 4)
        caps = [(rng.getrandbits(d + 2), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))]
        kind = rng.choice(["none", "empty", "masks", "equal"])
        within = None if kind == "none" else []
        if kind in ("masks", "equal"):
            # masks may reach past the ground set, and overlap
            within = [rng.getrandbits(d + 1) | rng.getrandbits(d + 1) for _ in range(rng.randint(1, 5))]
            if kind == "equal":
                within.insert(rng.randrange(len(within)), rng.choice(within))
        got = capped_subsets(ground, r, caps, within)
        assert got == brute_capped(ground, r, caps, within), (ground, r, caps, within)
        assert_rows_match(ground, r, caps, within)
        kinds[kind, r, bool(got)] += 1
    # every kind at every r, and the masks kinds with sets listed at every r
    for r in range(5):
        assert all(kinds[kind, r, False] + kinds[kind, r, True] for kind in ("none", "empty"))
        assert all(kinds[kind, r, True] for kind in ("masks", "equal"))


@pytest.mark.parametrize(
    "ground, r, within",
    [
        (0b1111, 0, []),  # no mask holds even the empty set
        (0b1111, 2, []),
        (0b1111, 0, [0]),  # the empty set lies in every mask
        (0b1111, 1, [0]),
        (0b1111, 0, None),
        (0b111111, 3, [0b000111, 0b000111]),  # equal masks: each set once
        (0b111111, 3, [0b001111, 0b111100]),  # overlapping masks
        (0b111111, 2, [0b110011, 0b011110, 0b000111]),
        (0b11111111, 3, [0b00001111, 0b11110000, 0b00111100]),
        (0b1011, 2, [0b1111]),  # a mask wider than the ground set
    ],
)
def test_capped_subsets_within_edge_cases(ground, r, within):
    assert capped_subsets(ground, r, [], within) == brute_capped(ground, r, [], within)
    assert_rows_match(ground, r, [], within)


@pytest.mark.parametrize("d", [7, 8, 9, 15, 16, 17, 63, 64, 65])
def test_capped_rows_at_byte_boundaries(d):
    # grounds that meet or cross a byte of the masks; above 17 elements the
    # sets lie within small masks, so that the lists stay short
    rng = random.Random(310 + d)
    for _ in range(40):
        ground = (1 << d) - 1 if rng.random() < 0.5 else rng.getrandbits(d) | 1 << (d - 1)
        r = rng.randint(0, 4)
        caps = [(rng.getrandbits(d), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))]
        within = None
        if d > 17 or rng.random() < 0.3:
            within = [sum(1 << rng.randrange(d) for _ in range(12)) for _ in range(rng.randint(1, 3))]
        assert_rows_match(ground, r, caps, within)
    # every 2-subset of 65 elements, and 3-subsets under caps: lists of more
    # than one piece
    assert assert_rows_match((1 << 65) - 1, 2, []) == 2
    caps = [((1 << 65) - 1 ^ (1 << 40) - 1, 2), ((1 << 20) - 1, 3)]
    assert assert_rows_match((1 << 65) - 1, 3, caps) > 3


@pytest.mark.parametrize("d", [2, 3, 9, 10, 24, 33, 40])
def test_capped_rows_with_tails_unblocked_blocked_and_mixed(d):
    # the rows ending in a set's last element are written as one batch per
    # set: from the slice of the last texts when no element above it is
    # blocked, else from the unblocked elements alone
    rng = random.Random(400 + d)
    full = (1 << d) - 1
    top = 1 << (d - 1)
    small = min(d, 12)
    for r in range(4):
        # no caps and no within masks: every tail is unblocked
        assert_rows_match(full, r, [])
        # the top element blocked from the start: no tail is unblocked
        assert_rows_match(full, r, [(top, 1)])
        assert_rows_match(full, r, [(top | 1, 1), (full, 3)])
        assert_rows_match(full, r, [], [full ^ top, full ^ top ^ 1])
    for _ in range(30):
        # caps and within masks that block some tails and leave others
        ground = full if rng.random() < 0.5 else rng.getrandbits(d) | top
        r = rng.randint(2, 4)
        caps = [(rng.getrandbits(d), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
        within = None
        if r == 4 or rng.random() < 0.5:
            within = [sum(1 << rng.randrange(d) for _ in range(small)) for _ in range(rng.randint(1, 3))]
        assert_rows_match(ground, r, caps, within)


def test_capped_rows_on_a_sparse_ground_with_labels_above_256():
    elems = [0, 5, 9, 255, 256, 257, 300, 511, 512, 1000, 4094, 4095]
    ground = sum(1 << e for e in elems)
    rng = random.Random(41)
    for _ in range(60):
        r = rng.randint(0, 5)
        caps = [(sum(1 << e for e in rng.sample(elems, 5)), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
        within = None if rng.random() < 0.5 else [
            sum(1 << e for e in rng.sample(elems, 7)) for _ in range(rng.randint(1, 3))
        ]
        assert_rows_match(ground, r, caps, within)
    text = "".join(capped_rows(ground, 2, [], [1 << 4095 | 1 << 257 | 1 << 9], "  ", " ", "\n"))
    assert text == "  10 258\n  10 4096\n  258 4096\n"


@pytest.mark.parametrize(
    "r, caps, within, rows",
    [
        (0, [], None, ["  \n"]),  # the empty set
        (0, [(0b111, 1)], [0b1], ["  \n"]),
        (1, [], None, ["  1\n", "  2\n", "  3\n", "  4\n"]),  # the loops of level 2
        (1, [(0b0101, 1)], None, ["  2\n", "  4\n"]),
        (1, [], [0b1000, 0b0010], ["  2\n", "  4\n"]),
        (1, [(0b1111, 1)], None, []),  # every element blocked
        (2, [(0b1111, 2)], None, []),
        (3, [(0b0001, 0)], None, []),  # a cap broken by every set
        (2, [], [], []),  # no mask to lie in
        (5, [], None, []),  # more elements than the ground
    ],
)
def test_capped_rows_small_sizes_and_empty_lists(r, caps, within, rows):
    assert list(capped_rows(0b1111, r, caps, within, "  ", " ", "\n")) == (["".join(rows)] if rows else [])
    assert_rows_match(0b1111, r, caps, within)


def test_capped_subsets_leaves_no_garbage():
    # the type-3 caps of the lines 7 base representation, as quasi_circuits
    # builds them; a reference cycle would keep the result for the collector
    p = line_matroid(7)
    rep = quasi_rep(p.d, p.n, p.hyperplanes)
    n = rep.n
    pairs = [a & b for i, a in enumerate(rep.members) for b in rep.members[i + 1 :]]
    caps = [(pm, n - 1) for pm in pairs if pm.bit_count() >= n - 1] + [(h, n) for h in rep.members]
    gc.collect()
    out = capped_subsets((1 << rep.d) - 1, n + 1, caps)
    assert out
    del out
    assert gc.collect() == 0
    # the rows as text, read to the end, and dropped after the first of
    # their two pieces
    text = "".join(capped_rows((1 << rep.d) - 1, n + 1, caps, None, "  ", " ", "\n"))
    assert text.count("\n") > _ROWS_PER_PIECE
    del text
    assert gc.collect() == 0
    pieces = capped_rows((1 << rep.d) - 1, n + 1, caps, None, "  ", " ", "\n")
    assert next(pieces)
    del pieces
    assert gc.collect() == 0


def test_overlaps_matches_the_membership_counts():
    rng = random.Random(17)
    lists = [[]] + [
        [rng.getrandbits(rng.randint(0, 12)) for _ in range(rng.randint(1, 6))] for _ in range(500)
    ]
    for masks in lists:
        counts = [sum(m >> e & 1 for m in masks) for e in range(12)]
        want = tuple(sum(1 << e for e, c in enumerate(counts) if c >= k) for k in (1, 2, 3))
        assert overlaps(masks) == want, masks
    assert overlaps([]) == (0, 0, 0)
    assert overlaps(iter([0b011, 0b110, 0b111])) == (0b111, 0b111, 0b010)
