"""JSON and CSV serialization. Files use 1-based element labels; everything
in memory is 0-based. Writers emit canonical ordering, readers are lenient."""

from __future__ import annotations

import json
from functools import partial
from types import GeneratorType
from typing import Callable, Iterable, Iterator

from .bitset import bit_list, mask_of
from .core import check_circuit_list
from .decomposition import DecompositionResult
from .errors import BadParams, OutOfRange
from .families import MinorGenerator
from .quasi import CircuitProfile, QuasiRep, check_circuit_budget, circuit_rows, count_by_size, quasi_rep

CIRCUIT_LIST_INLINE_LIMIT = 20_000
# The readers refuse larger grounds: validate's check_circuit_list costs time
# quadratic in d (axiom check, greedy rank), about 2 s at this limit for d
# loops on a 2-core Xeon VM. Hypergraph commands read the rank off the cells.
GROUND_SIZE_LIMIT = 4096

_INDENTED = json.JSONEncoder(indent=2, sort_keys=True)


class MaskRows:
    """A list that json_pieces writes as a list of 1-based label lists, from
    a row writer called when the writer reaches the list. A row writer, such
    as ``quasi.circuit_rows`` of one representation, takes (before, sep,
    end) and returns an iterator of nonempty pieces of text: for each set in
    the list, before, its 1-based labels joined by sep, then end. None of
    its sets is empty.

    Only json_pieces writes it; ``json.dumps`` refuses it.
    """

    __slots__ = ("write",)

    def __init__(self, write: Callable[[str, str, str], Iterator[str]]):
        self.write = write


def json_pieces(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, byte for
    byte, in pieces, with each MaskRows written as its list of label lists.

    Dicts with str keys, lists and generators are walked here; a generator
    is written as a list, each item encoded as it is drawn. A MaskRows, such
    as a circuit list, is written by its row writer a bounded number of rows
    per piece, straight from the walk that lists it. A plain int is written
    as its decimal digits; everything else is left to the stdlib encoder
    with the same settings.
    """
    return _encode(obj, "\n")


def _encode(value, newline: str) -> Iterator[str]:
    """value as indented JSON, with newline ("\\n" plus the indentation of the
    line value starts on) ending each of its lines but the last."""
    if type(value) is int:  # not bool or an int subclass, whose text may differ
        yield str(value)
        return
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
    elif isinstance(value, (list, tuple, GeneratorType)):
        sep = "[" + inner
        for v in value:
            yield sep
            yield from _encode(v, inner)
            sep = "," + inner
        yield "[]" if sep[0] == "[" else newline + "]"
    else:
        yield _INDENTED.encode(value).replace("\n", newline)


def _mask_rows(rows: MaskRows, newline: str) -> Iterator[str]:
    """The pieces of one MaskRows. Each row is written with the separator in
    front of it, so only the first piece is trimmed: its leading "," becomes
    the list's "["."""
    inner = newline + "  "
    row = inner + "  "
    pieces = rows.write("," + inner + "[" + row, "," + row, inner + "]")
    first = next(pieces, None)
    if first is None:
        yield "[]"
        return
    yield "[" + first[1:]
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
    """value as an int, from an int or a float with no fractional part (int()
    raises on inf and nan); a bool or a string of digits is refused."""
    if type(value) is int or isinstance(value, float) and int(value) == value:
        return int(value)
    raise BadParams(f"{name} must be an integer, got {value!r}")


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


def matroid_to_dict(rep: QuasiRep, profile: CircuitProfile, *, include_circuits: bool) -> dict:
    """The matroid of rep, whose circuit_profile is profile: its ground size,
    its rank, and its circuit list or its circuit counts by size. The list
    is written by rep's walks (quasi.circuit_rows), refused here by
    check_circuit_budget."""
    out: dict = {"d": rep.d, "rank": profile.rank}
    if include_circuits:
        check_circuit_budget(rep)
        out["circuits"] = MaskRows(partial(circuit_rows, rep))
    else:
        out["circuit_count_by_size"] = {
            str(size): count for size, count in sorted(count_by_size(rep.n, profile).items())
        }
    return out


def matroid_from_dict(obj: dict) -> tuple[int, int, int]:
    """The ground size, the rank and the number of circuits of a matroid
    file, whose circuit list core.check_circuit_list checks."""
    try:
        d = _ground_size(obj)
        declared = obj.get("rank")
        rank = _integer(declared, "rank") if declared is not None else None
        circuits = obj["circuits"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadParams(f"matroid file needs d, rank, circuits: {exc}")
    masks = _label_lists("circuits", circuits, d)
    return (d, *check_circuit_list(d, rank, masks))


def quasi_from_dict(obj: dict, *, n_override: int | None = None) -> QuasiRep:
    try:
        d = _ground_size(obj)
        n = _integer(obj["n"], "n") if n_override is None else n_override
        members = obj["H"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadParams(f"hypergraph file needs d, n, H: {exc}")
    return quasi_rep(d, n, _label_lists("H", members, d))


def decomposition_to_dict(result: DecompositionResult, *, include_circuits: bool = False) -> dict:
    """The listing as a dict whose components are a generator, each
    component's dict made when json_pieces reaches it."""
    labels = result.hyperplane_labels
    return {
        "family": result.family,
        "params": result.params,
        "hyperplanes": {
            label: mask_to_labels(mask)
            for label, mask in zip(labels, result.hyperplane_masks)
        },
        "component_count": result.component_count,
        "components": _component_dicts(result, include_circuits),
    }


def _component_dicts(result: DecompositionResult, include_circuits: bool) -> Iterator[dict]:
    labels = result.hyperplane_labels
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
            # refused here, before this component is written, and listed by the writer
            check_circuit_budget(report.rep)
            matroid_obj["circuits"] = MaskRows(partial(circuit_rows, report.rep))
        yield {
            "partition": [[labels[i] for i in block] for block in report.blocks],
            "classification": classification,
            "matroid": matroid_obj,
        }


def generators_to_csv(gens: Iterable[MinorGenerator]) -> str:
    lines = []
    for g in gens:
        a = ",".join(str(r + 1) for r in g.rows)
        b = ",".join(str(c + 1) for c in g.cols)
        lines.append(f"{a};{b}")
    return "\n".join(lines) + "\n"
