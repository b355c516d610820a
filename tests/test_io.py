import enum
import json
import random
from functools import partial

import pytest

from pavemat.bitset import _ROWS_PER_PIECE, bit_list, bits_tuple, sort_key
from pavemat.errors import BadParams, InvariantViolated, OutOfRange
from pavemat.io import _HOLE, json_list, json_pieces, labels_to_mask, mask_to_labels, rows_list, tame_pieces
from pavemat.paving import PavingMatroid
from pavemat.quasi import ExtensionStep, TameDecomposition

from helpers import joined_json, json_oracle, label_pieces


class _Level(enum.IntEnum):
    THREE = 3


class _Spelled(int):
    """An int whose str is not its digits, which json.dumps still writes."""

    def __str__(self):
        return "three"


EDGE_VALUES = [
    [[[1, 2]], 5],
    [[[15, 48, 12]], 10**20],
    [[1], []],
    [[True]],
    [[1, 2], [3, False]],
    [[-3, 0, 2**70], [-(2**65)]],
    ([4, 5], [6]),
    [(4, 5), [6]],
    [[1.0]],
    [[1]],
    [[1], "[2]"],
    {"a,[]": ["],[", [[1, 2]]], "": {}, "z": [], "m": [{}, [], [[]]]},
    {},
    [],
    [[]],
    {"b": [[1, 2], [3]], "a": {"c": [[7]], "d": None}},
    {2: [[1]], 10: "x"},
    {"k": {1.5: True, 3: [[2]]}},
    "text \"quoted\" ,[]\n é",
    2**70,
    -1,
    None,
    float("inf"),
    # ints that are not plain ints: json.dumps writes their int value
    [_Level.THREE, {"n": _Level.THREE}],
    [_Spelled(3), {"n": _Spelled(3)}],
    [[[True, 1, False]]],
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_to_json_matches_stdlib_on_edge_values(value):
    assert joined_json(value) == json_oracle(value)


def _random_value(rng: random.Random, depth: int):
    kind = rng.randrange(9 if depth < 4 else 4)
    if kind == 0:
        return rng.choice([0, 1, -7, 2**64, -(2**70), 12345678901234567890])
    if kind == 1:
        return rng.choice([True, False, None, 0.5, -2.0])
    if kind == 2:
        return rng.choice(["", ",", "[", "]", "],[", "a,b", "x\ty", "ü", '"'])
    if kind == 3:
        rows = [
            [rng.choice([rng.randint(-5, 40), rng.getrandbits(70)]) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, 5))
        ]
        spoil = rng.randrange(6)
        if spoil == 0:
            rows[rng.randrange(len(rows))] = []
        elif spoil == 1:
            rows[rng.randrange(len(rows))].append(rng.choice([True, False, 1.0, "1", None, [2]]))
        elif spoil == 2:
            rows.append(rng.choice([3, "3", None, (3, 4), {"a": 1}]))
        return rows
    if kind in (4, 5):
        return [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {
        rng.choice(["a", "b", "c,d", "[e]", "", "f\"g"]): _random_value(rng, depth + 1)
        for _ in range(rng.randint(0, 4))
    }


def test_to_json_matches_stdlib_on_random_values():
    rng = random.Random(61)
    for _ in range(2000):
        value = _random_value(rng, 0)
        assert joined_json(value) == json_oracle(value)


def test_bit_list_matches_a_bit_scan():
    rng = random.Random(67)
    masks = [0, 1, 255, 256, 2**64 - 1, 2**64, 2**200 + 2**63 + 5]
    masks += [rng.getrandbits(rng.choice([8, 16, 40, 64, 65, 130])) for _ in range(3000)]
    for mask in masks:
        expected = [e for e in range(mask.bit_length()) if mask >> e & 1]
        assert bit_list(mask) == expected
        assert bits_tuple(mask) == tuple(expected)
        assert bit_list(mask, 1) == mask_to_labels(mask) == [e + 1 for e in expected]


def test_sort_key_orders_as_the_member_lists():
    rng = random.Random(71)
    masks = [0, 1, 2, 3, 4, 5, 6, 255, 256, 2**64 - 1, 2**64, 2**200 + 2**63 + 5]
    masks += [rng.getrandbits(rng.choice([1, 3, 8, 9, 20, 64, 65, 300])) for _ in range(5000)]
    masks += [sum(1 << e for e in rng.sample(range(12), 4)) for _ in range(2000)]
    old = lambda m: (m.bit_count(), bits_tuple(m))
    assert sorted(masks, key=sort_key) == sorted(masks, key=old)
    for _ in range(20000):
        a, b = rng.choice(masks), rng.choice(masks)
        assert (sort_key(a) < sort_key(b)) == (old(a) < old(b)), (a, b)


# Each size meets or crosses a byte boundary of the masks.
GROUND_SIZES = (1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 130)


def _random_masks(rng: random.Random, d: int) -> list[int]:
    """Random nonempty masks on d elements, some narrower than d, with
    single-element rows mixed in."""
    width = rng.choice([d, rng.randint(1, d)])
    masks = []
    for _ in range(rng.randint(1, 12)):
        if rng.randrange(3) == 0:
            masks.append(1 << rng.randrange(width))
        else:
            masks.append(rng.getrandbits(width) or 1)
    return masks


def _rows(masks):
    """A fill that writes the masks' label lists through rows_list, as
    circuit_list writes a representation's circuits."""
    return partial(rows_list, partial(label_pieces, masks))


# A list alone and at the nesting depths of the JSON exports: depth 1 in
# `matroid --format json`, depth 3 in `decompose --list --circuits`.
LAYOUTS = [
    lambda x: x,
    lambda x: {"circuits": x, "d": 9, "hyperplanes": [[1, 2], [3]], "rank": 3},
    lambda x: {"a": [{"circuits": x}, x]},
    lambda x: {
        "component_count": 1,
        "components": [{"matroid": {"circuits": x, "d": 9, "rank": 3}, "partition": [["R1"]]}],
    },
]


def _holed(layout, fill) -> str:
    """The text of a layout with a hole for each of its lists, each hole
    written by fill."""
    obj = layout(_HOLE)
    return joined_json(obj, *[fill] * json_oracle(obj).count('"\\u0000"'))


def _labels(masks) -> list:
    return [mask_to_labels(m) for m in masks]


@pytest.mark.parametrize("d", GROUND_SIZES)
def test_mask_rows_match_stdlib_on_label_lists(d):
    rng = random.Random(8000 + d)
    for _ in range(60):
        masks = _random_masks(rng, d)
        for layout in LAYOUTS:
            assert _holed(layout, _rows(masks)) == json_oracle(layout(_labels(masks)))


@pytest.mark.parametrize(
    "masks",
    [(), (1,), (1 << 64,), (1, 1 << 7, 1), (1 << 8, 1 << 8 | 1), (2**130 - 1, 5)],
    ids=repr,
)
def test_mask_rows_edge_lists(masks):
    for layout in LAYOUTS:
        assert _holed(layout, _rows(masks)) == json_oracle(layout(_labels(masks)))


P = _ROWS_PER_PIECE


@pytest.mark.parametrize("length", [0, 1, P - 1, P, P + 1, 2 * P + 1])
def test_json_pieces_write_mask_rows_in_pieces(length):
    # rows_list at the boundaries of the row writer's pieces, and on an
    # empty writer, which it writes as []
    rng = random.Random(89 + length)
    masks = [rng.getrandbits(40) | 1 for _ in range(length)]
    calls = []

    def written(before, sep, end):
        calls.append(1)
        return label_pieces(masks, before, sep, end)

    for layout in LAYOUTS:
        assert _holed(layout, partial(rows_list, written)) == json_oracle(layout(_labels(masks)))
    assert len(calls) == 5  # once per list written: one layout holds two
    # "[" and the first rows, the later pieces of rows, "\n]"
    pieces = list(rows_list(written, "\n"))
    assert len(pieces) == (-(-length // P) + 1 if length else 1)
    assert length or pieces == ["[]"]


def _item(value, newline: str):
    """The text of a json_list item on lines ending in newline: value, or an
    (object, masks) pair whose hole _rows of the masks fills."""
    if isinstance(value, tuple):
        obj, masks = value
        return json_pieces(obj, _rows(masks), newline=newline)
    return json_pieces(value, newline=newline)


def _expected(value):
    """A json_list item as _item writes it, with its hole's list in place."""
    if isinstance(value, tuple):
        obj, masks = value
        return {k: _labels(masks) if v == _HOLE else v for k, v in obj.items()}
    return value


@pytest.mark.parametrize(
    "items",
    [[], [1], ["a", None, 2.5], [[]], [{}, {"b": [1, []]}], [({"c": _HOLE}, [0b101, 0b10]), [3]]],
    ids=["empty", "one", "scalars", "empty-list", "dicts", "mask-rows"],
)
def test_json_pieces_write_a_generator_as_its_list(items):
    # json_list writes the generator of items that its argument returns, as
    # their list, an empty one as []
    for wrap in (lambda v: v, lambda v: {"a": v, "z": 0}, lambda v: [[v], 1]):
        written, drawn = [], []

        def each(newline):
            for item in items:
                drawn.append(len("".join(written)))
                yield _item(item, newline)

        for piece in json_pieces(wrap(_HOLE), partial(json_list, each)):
            written.append(piece)
        assert "".join(written) == json_oracle(wrap([_expected(item) for item in items]))
        # each item is drawn only once the items before it are written
        assert drawn == sorted(set(drawn)) and len(drawn) == len(items)
    assert "".join(json_list(lambda newline: iter([]), "\n    ")) == "[]"


def _with_holes(rng: random.Random, value, fills: list):
    """value with holes put into its dicts at random, and value with each
    hole's list in its place. Each hole's fill is appended to fills in the
    order of the text, the dicts' keys sorted: a list of label lists through
    rows_list, or a list of random values through json_list."""
    if isinstance(value, list):
        pairs = [_with_holes(rng, v, fills) for v in value]
        return [p[0] for p in pairs], [p[1] for p in pairs]
    if not isinstance(value, dict):
        return value, value
    holed = {k: None for k in value if rng.randrange(3) == 0}
    if rng.randrange(2):
        holed[rng.choice(["circuits", "components", "steps", "a", ""])] = None
    obj, filled = {}, {}
    for k in sorted({*value, *holed}):
        if k in holed:
            if rng.randrange(2):
                masks = _random_masks(rng, rng.choice(GROUND_SIZES))
                fills.append(_rows(masks))
                filled[k] = _labels(masks)
            else:
                items = [_random_value(rng, 2) for _ in range(rng.randint(0, 3))]
                fills.append(partial(json_list, lambda newline, items=items: (_item(v, newline) for v in items)))
                filled[k] = items
            obj[k] = _HOLE
        else:
            obj[k], filled[k] = _with_holes(rng, value[k], fills)
    return obj, filled


def test_holes_at_random_depths_match_stdlib():
    rng = random.Random(97)
    planted = 0
    for _ in range(1500):
        fills = []
        obj, filled = _with_holes(rng, _random_value(rng, 0), fills)
        planted += len(fills)
        assert joined_json(obj, *fills) == json_oracle(filled)
    assert planted > 1000


def test_json_pieces_refuse_a_hole_count_mismatch():
    fill = _rows([1, 2])
    for obj, fills in [({"a": _HOLE}, []), ({"a": 1}, [fill]), ({"a": _HOLE, "b": [_HOLE]}, [fill])]:
        with pytest.raises(InvariantViolated, match="holes in the JSON text"):
            next(json_pieces(obj, *fills))
    # a hole inside a longer string is text, not a hole
    with pytest.raises(InvariantViolated):
        next(json_pieces({"a": "x" + _HOLE}, fill))


def _tame_dict(dec):
    """The object tame_pieces writes for dec, built whole."""
    core = {
        "elements": [e + 1 for e in dec.core_elements],
        "d": dec.core.d,
        "n": dec.core.n,
        "hyperplanes": [[dec.core_elements[e] + 1 for e in bit_list(h)] for h in dec.core.hyperplanes],
    }
    steps = [
        {"element": s.element + 1, "flat": mask_to_labels(s.flat), "member_pair": [i + 1 for i in s.source_pair]}
        for s in dec.steps
    ]
    return {"core": core, "steps": steps}


def test_tame_pieces_match_stdlib_on_random_decompositions():
    rng = random.Random(29)
    empty_flats = 0
    for _ in range(300):
        d = rng.randint(0, 40)
        kept = sorted(rng.sample(range(d), rng.randint(0, d)))
        hyperplanes = tuple(rng.getrandbits(len(kept)) for _ in range(rng.randint(0, 4)))
        core = PavingMatroid(len(kept), rng.randint(1, 5), hyperplanes)
        steps = tuple(
            ExtensionStep(rng.randrange(max(d, 1)), rng.getrandbits(d) if rng.random() < 0.8 else 0, (i, i + 1))
            for i in range(rng.randint(0, 6))
        )
        empty_flats += sum(not s.flat for s in steps)
        dec = TameDecomposition(core, tuple(kept), steps)
        assert "".join(tame_pieces(dec)) == json_oracle(_tame_dict(dec)), dec
    assert empty_flats > 20
    # a flat past the first byte of its mask, and one step with no flat
    steps = (ExtensionStep(299, 1 << 299 | 1, (0, 1)), ExtensionStep(0, 0, (1, 2)))
    dec = TameDecomposition(PavingMatroid(0, 2, ()), (), steps)
    assert "".join(tame_pieces(dec)) == json_oracle(_tame_dict(dec))


def test_labels_to_mask_messages():
    assert labels_to_mask([3, 1, 3], 3) == 0b101
    assert labels_to_mask((), 0) == 0
    # an int subclass in range is a label; bools are refused first
    assert labels_to_mask([_Level.THREE], 3) == 0b100
    for labels, error, message in [
        ([1, True], BadParams, "label True is not an integer"),
        ([False], BadParams, "label False is not an integer"),
        (["3"], OutOfRange, "label '3' outside 1..4"),
        ([2.0], OutOfRange, "label 2.0 outside 1..4"),
        ([None], OutOfRange, "label None outside 1..4"),
        ([1, 0], OutOfRange, "label 0 outside 1..4"),
        ([5], OutOfRange, "label 5 outside 1..4"),
        ([2**70], OutOfRange, f"label {2**70} outside 1..4"),
        ([_Level.THREE, _Level(3) + 2], OutOfRange, "label 5 outside 1..4"),
        ("12", BadParams, "expected a list of labels, got '12'"),
        ({1, 2}, BadParams, "expected a list of labels, got {1, 2}"),
    ]:
        with pytest.raises(error) as info:
            labels_to_mask(labels, 4)
        assert type(info.value) is error and str(info.value) == message, labels
    with pytest.raises(OutOfRange, match=r"^label <_Level.THREE: 3> outside 1..2$"):
        labels_to_mask([_Level.THREE], 2)
