"""JSON and CSV serialization. Files use 1-based element labels; everything
in memory is 0-based. Writers emit canonical ordering, readers are lenient."""

from __future__ import annotations

import json
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from .bitset import bit_list, label_rows, mask_of
from .core import Matroid, matroid_from_circuits
from .decomposition import DecompositionResult
from .errors import BadParams, OutOfRange
from .families import MinorGenerator
from .quasi import QuasiRep, check_circuit_budget, quasi_circuits, quasi_rep

CIRCUIT_LIST_INLINE_LIMIT = 20_000
# The readers refuse larger grounds: building a matroid costs time quadratic
# in d (core.Matroid.rank), about 0.3 s at this limit on a 2-core Xeon VM.
GROUND_SIZE_LIMIT = 4096

_INDENTED = json.JSONEncoder(indent=2, sort_keys=True)
# Rows per piece of written label text: about 180 kB for 4-element rows at
# the depth of a listing's circuits.
_ROWS_PER_PIECE = 2048


class MaskRows:
    """A list of masks that json_pieces writes as a list of 1-based label
    lists, or the function that lists them, called when the writer reaches
    the list.

    It is not a list or tuple, so that ``json.dumps`` refuses it instead of
    writing the masks as bare ints.
    """

    __slots__ = ("masks",)

    def __init__(self, masks: Sequence[int] | Callable[[], Sequence[int]]):
        self.masks = masks


def label_pieces(masks: Sequence[int], before: str, sep: str, end: str) -> Iterator[str]:
    """``bitset.label_rows`` of the masks, written _ROWS_PER_PIECE rows at a
    time."""
    for start in range(0, len(masks), _ROWS_PER_PIECE):
        yield label_rows(masks[start : start + _ROWS_PER_PIECE], before, sep, end)


def json_pieces(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, byte for
    byte, in pieces, with each MaskRows written as its list of label lists.

    Dicts with str keys and lists are walked here. A MaskRows, the form of
    every circuit and hyperplane list, is written straight from its masks by
    ``bitset.label_rows``, a bounded number of rows per piece. Everything
    else is left to the stdlib encoder with the same settings.
    """
    return _encode(obj, "\n")


def _encode(value, newline: str) -> Iterator[str]:
    """value as indented JSON, with newline ("\\n" plus the indentation of the
    line value starts on) ending each of its lines but the last."""
    inner = newline + "  "
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        sep = "{" + inner
        for k, v in sorted(value.items()):
            yield sep + _INDENTED.encode(k) + ": "
            yield from _encode(v, inner)
            sep = "," + inner
        yield newline + "}"
    elif isinstance(value, MaskRows):
        yield from _mask_rows(value, newline)
    elif isinstance(value, (list, tuple)) and value:
        sep = "[" + inner
        for v in value:
            yield sep
            yield from _encode(v, inner)
            sep = "," + inner
        yield newline + "]"
    else:
        yield _INDENTED.encode(value).replace("\n", newline)


def _mask_rows(rows: MaskRows, newline: str) -> Iterator[str]:
    """The pieces of one MaskRows. Each row is written with the separator in
    front of it, so only the first piece is trimmed: its leading "," becomes
    the list's "[". Only the empty mask, which no circuit is, makes an empty
    row, written [] on one line. A list made by a function lives until its
    last piece is written."""
    masks = rows.masks() if callable(rows.masks) else rows.masks
    if not masks:
        yield "[]"
        return
    inner = newline + "  "
    row = inner + "  "
    pieces = label_pieces(masks, "," + inner + "[" + row, "," + row, inner + "]")
    if 0 in masks:
        empty = "[" + row + inner + "]"
        pieces = (piece.replace(empty, "[]") for piece in pieces)
    yield "[" + next(pieces)[1:]
    yield from pieces
    yield newline + "]"


def mask_to_labels(mask: int) -> list[int]:
    return bit_list(mask, 1)


def labels_to_mask(labels: Iterable[int], d: int) -> int:
    if not isinstance(labels, (list, tuple)):
        raise BadParams(f"expected a list of labels, got {labels!r}")
    out = []
    for x in labels:
        if isinstance(x, bool):
            raise BadParams(f"label {x!r} is not an integer")
        if not isinstance(x, int) or x < 1 or x > d:
            raise OutOfRange(f"label {x!r} outside 1..{d}")
        out.append(x - 1)
    return mask_of(out)


def _integer(value, name: str) -> int:
    """int(value), refusing a number with a fractional part, which int()
    would truncate."""
    out = int(value)
    if isinstance(value, float) and out != value:
        raise BadParams(f"{name} must be an integer, got {value!r}")
    return out


def _ground_size(obj: dict) -> int:
    """A file's ground size d, from 0 to GROUND_SIZE_LIMIT."""
    d = _integer(obj["d"], "ground size d")
    if d < 0:
        raise BadParams(f"ground size d must be >= 0, got {d}")
    if d > GROUND_SIZE_LIMIT:
        raise BadParams(f"ground size d={d} exceeds limit {GROUND_SIZE_LIMIT}")
    return d


def _label_lists(key: str, lists, d: int) -> list[int]:
    """The masks of a file's list of label lists, stored under key."""
    if not isinstance(lists, (list, tuple)):
        raise BadParams(f"{key} must be a list of label lists, got {lists!r}")
    return [labels_to_mask(labels, d) for labels in lists]


def matroid_to_dict(m: Matroid, *, include_circuits: bool = True) -> dict:
    out: dict = {"d": m.d, "rank": m.rank_value}
    if include_circuits:
        out["circuits"] = MaskRows(m.circuits())
    else:
        out["circuit_count_by_size"] = {
            str(size): count for size, count in sorted(m.circuit_count_by_size().items())
        }
    return out


def matroid_from_dict(obj: dict, *, validate: bool = True) -> Matroid:
    try:
        d = _ground_size(obj)
        declared = obj.get("rank")
        rank = _integer(declared, "rank") if declared is not None else None
        circuits = obj["circuits"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadParams(f"matroid file needs d, rank, circuits: {exc}")
    masks = _label_lists("circuits", circuits, d)
    return matroid_from_circuits(d, rank, masks, validate=validate)


def quasi_to_dict(rep: QuasiRep) -> dict:
    return {"d": rep.d, "n": rep.n, "H": [mask_to_labels(h) for h in rep.members]}


def quasi_from_dict(obj: dict, *, n_override: int | None = None) -> QuasiRep:
    try:
        d = _ground_size(obj)
        n = _integer(obj["n"], "n") if n_override is None else n_override
        members = obj["H"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadParams(f"hypergraph file needs d, n, H: {exc}")
    return quasi_rep(d, n, _label_lists("H", members, d))


def decomposition_to_dict(result: DecompositionResult, *, include_circuits: bool = False) -> dict:
    labels = result.hyperplane_labels
    components = []
    for report in result.components:
        classification: dict = {"kind": report.classification.kind}
        if report.classification.uniform_params is not None:
            r, d = report.classification.uniform_params
            classification["uniform"] = {"rank": r, "d": d}
        if report.classification.histogram is not None:
            classification["circuit_count_by_size"] = {
                str(size): count
                for size, count in sorted(report.classification.histogram.items())
            }
        profile = report.profile
        matroid_obj: dict = {"d": report.rep.d, "rank": profile.rank}
        if include_circuits and profile.type1 + profile.type2 + profile.type3 <= CIRCUIT_LIST_INLINE_LIMIT:
            # refused here, before anything is written, and listed by the writer
            check_circuit_budget(report.rep)
            matroid_obj["circuits"] = MaskRows(partial(quasi_circuits, report.rep))
        components.append(
            {
                "partition": [[labels[i] for i in block] for block in report.blocks],
                "classification": classification,
                "matroid": matroid_obj,
            }
        )
    return {
        "family": result.family,
        "params": result.params,
        "hyperplanes": {
            label: mask_to_labels(mask)
            for label, mask in zip(labels, result.hyperplane_masks)
        },
        "component_count": len(result.components),
        "components": components,
    }


def generators_to_csv(gens: Iterable[MinorGenerator]) -> str:
    lines = []
    for g in gens:
        a = ",".join(str(r + 1) for r in g.rows)
        b = ",".join(str(c + 1) for c in g.cols)
        lines.append(f"{a};{b}")
    return "\n".join(lines) + "\n"
