"""JSON and CSV serialization. Files use 1-based element labels; everything
in memory is 0-based. Writers emit canonical ordering, readers are lenient."""

from __future__ import annotations

import json
from functools import partial
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from .bitset import bit_list, remap
from .core import check_circuit_list
from .decomposition import ComponentReport, DecompositionResult
from .errors import BadParams, InvariantViolated, OutOfRange
from .families import MinorGenerator
from .quasi import (
    CircuitProfile, QuasiRep, TameDecomposition, check_circuit_budget, circuit_rows, count_by_size, quasi_rep
)

CIRCUIT_LIST_INLINE_LIMIT = 20_000
# The readers refuse larger grounds: validate's check_circuit_list costs time
# quadratic in d (axiom check, greedy rank), about 2 s at this limit for d
# loops on a 2-core Xeon VM. Hypergraph commands read the rank off the cells.
GROUND_SIZE_LIMIT = 4096

_INDENTED = json.JSONEncoder(indent=2, sort_keys=True)
# The value standing for a long list in an object given to json_pieces, and
# its text there. No other string of such an object may hold "\0".
_HOLE = "\0"
_HOLE_TEXT = _INDENTED.encode(_HOLE)

# A hole's list, written as text in pieces for the newline of the hole's line.
Fill = Callable[[str], Iterable[str]]


def json_pieces(obj, *fills: Fill, newline: str = "\n") -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, each "\\n"
    of it replaced by newline, in pieces. The i-th hole (_HOLE) of that text
    is written by fills[i], when the writer reaches it. A number of holes
    other than the number of fills raises InvariantViolated at the first
    piece."""
    return _filled(_layout(obj, newline), fills)


def _layout(obj, newline: str) -> tuple[list[str], list[str]]:
    """The encoder's text of obj cut at its holes, each "\\n" replaced by
    newline, and the newline of each hole's line. Each value inside a list
    or a dict starts a line of its own, so the text before a hole holds the
    start of its line, unless the hole is the whole text."""
    parts = _INDENTED.encode(obj).split(_HOLE_TEXT)
    lines = [part[part.rfind("\n") + 1 :] for part in parts[:-1]]
    newlines = [newline + " " * (len(line) - len(line.lstrip(" "))) for line in lines]
    return [part.replace("\n", newline) for part in parts], newlines


def _filled(layout: tuple[list[str], list[str]], fills: Sequence[Fill]) -> Iterator[str]:
    """The text of a _layout, each hole written by its fill when reached."""
    parts, newlines = layout
    if len(fills) != len(newlines):
        raise InvariantViolated(f"{len(newlines)} holes in the JSON text for {len(fills)} lists")
    yield parts[0]
    for fill, newline, part in zip(fills, newlines, parts[1:]):
        yield from fill(newline)
        yield part


def json_list(items: Callable[[str], Iterable[Iterable[str]]], newline: str) -> Iterator[str]:
    """A list on a line ending in newline of what items(the newline of the
    items' lines) yields, each item's text in pieces, drawn once the items
    before it are written."""
    inner = newline + "  "
    return _listed(chain.from_iterable(chain(("," + inner,), item) for item in items(inner)), newline)


def rows_list(write: Callable[[str, str, str], Iterator[str]], newline: str) -> Iterator[str]:
    """A list of label lists on a line ending in newline, from a row writer,
    such as quasi.circuit_rows of one representation: write(before, sep,
    end) returns nonempty pieces of text holding, for each set of the list,
    before, its 1-based labels joined by sep, then end. No set is empty."""
    inner = newline + "  "
    row = inner + "  "
    return _listed(write("," + inner + "[" + row, "," + row, inner + "]"), newline)


def _listed(pieces: Iterator[str], newline: str) -> Iterator[str]:
    """A list on a line ending in newline, from its items' text in pieces,
    each item led by ",": the first piece's leading "," becomes "["."""
    first = next(pieces, None)
    if first is None:
        return iter(("[]",))
    return chain(("[" + first[1:],), pieces, (newline + "]",))


def circuit_list(rep: QuasiRep) -> Fill:
    """The fill of a hole for rep's circuit list, written by its walks
    (quasi.circuit_rows); refused here by check_circuit_budget."""
    check_circuit_budget(rep)
    return partial(rows_list, partial(circuit_rows, rep))


def mask_to_labels(mask: int) -> list[int]:
    return bit_list(mask, 1)


def labels_to_mask(labels: Iterable[int], d: int) -> int:
    """The mask of a list of 1-based labels from 1 to d. A bool is refused
    with BadParams, any other label that is not an int in range with
    OutOfRange; an int subclass in range is accepted."""
    if not isinstance(labels, (list, tuple)):
        raise BadParams(f"expected a list of labels, got {labels!r}")
    mask = 0
    for x in labels:
        if type(x) is not int or not 0 < x <= d:
            _check_label(x, d)
        mask |= 1 << (x - 1)
    return mask


def _check_label(x, d: int) -> None:
    """Raise for a label labels_to_mask refuses."""
    if isinstance(x, bool):
        raise BadParams(f"label {x!r} is not an integer")
    if not isinstance(x, int) or x < 1 or x > d:
        raise OutOfRange(f"label {x!r} outside 1..{d}")


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
    its rank, and its circuit list, a hole that circuit_list(rep) fills, or
    its circuit counts by size."""
    out: dict = {"d": rep.d, "rank": profile.rank}
    if include_circuits:
        out["circuits"] = _HOLE
    else:
        counts = count_by_size(rep.n, profile)
        out["circuit_count_by_size"] = {str(size): count for size, count in counts.items()}
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


def listing_pieces(result: DecompositionResult, *, include_circuits: bool) -> Iterator[str]:
    """The JSON text of a listing, in pieces, each component written as the
    listing yields it (see _components)."""
    obj = {
        "family": result.family,
        "params": result.params,
        "hyperplanes": dict(zip(result.hyperplane_labels, map(mask_to_labels, result.hyperplane_masks))),
        "component_count": result.component_count,
        "components": _HOLE,
    }
    return json_pieces(obj, partial(json_list, partial(_components, result, include_circuits)))


def _components(result: DecompositionResult, include_circuits: bool, newline: str) -> Iterator[Iterator[str]]:
    """The text of each component of result on lines ending in newline, made
    as the listing yields it. Its classification, its matroid summary and
    whether its circuits are listed (at most CIRCUIT_LIST_INLINE_LIMIT of
    them) depend only on its shape, so each shape's text is laid out once,
    with holes for the circuits and the partition."""
    quoted = [_INDENTED.encode(label) for label in result.hyperplane_labels]
    layouts: dict[tuple, tuple[list[str], list[str]]] = {}
    for report in result.components:
        p = report.profile
        listed = include_circuits and p.type1 + p.type2 + p.type3 <= CIRCUIT_LIST_INLINE_LIMIT
        # a list is refused here, before any of its component is written
        fills = [circuit_list(report.rep)] if listed else []
        if report.shape not in layouts:
            layouts[report.shape] = _layout(_component_dict(report, listed), newline)
        yield _filled(layouts[report.shape], [*fills, partial(_partition, quoted, report.blocks)])


def _component_dict(report: ComponentReport, listed: bool) -> dict:
    """A component's object, with holes for its partition and listed circuits."""
    c = report.classification
    classification: dict = {"kind": c.kind}
    if c.uniform_params is not None:
        r, d = c.uniform_params
        classification["uniform"] = {"rank": r, "d": d}
    if c.histogram is not None:
        classification["circuit_count_by_size"] = {str(size): count for size, count in c.histogram.items()}
    matroid: dict = {"d": report.rep.d, "rank": report.profile.rank}
    if listed:
        matroid["circuits"] = _HOLE
    return {"classification": classification, "matroid": matroid, "partition": _HOLE}


def _partition(quoted: Sequence[str], blocks: Sequence[Sequence[int]], newline: str) -> tuple[str]:
    """A partition's blocks of hyperplane indices, none empty, as a list of
    lists of their quoted labels, on a line ending in newline."""
    block = newline + "  "
    label = block + "  "
    rows = ("[" + label + ("," + label).join([quoted[i] for i in b]) + block + "]" for b in blocks)
    return ("[" + block + ("," + block).join(rows) + newline + "]",)


def tame_pieces(dec: TameDecomposition) -> Iterator[str]:
    """The JSON text of a peeling, in pieces: its core, and its steps, each
    encoded as the writer reaches it, so that the list is never whole."""
    core = {
        "elements": [e + 1 for e in dec.core_elements],
        "d": dec.core.d,
        "n": dec.core.n,
        "hyperplanes": [mask_to_labels(remap(h, dec.core_elements)) for h in dec.core.hyperplanes],
    }
    return json_pieces({"core": core, "steps": _HOLE}, partial(json_list, partial(_steps, dec)))


def _steps(dec: TameDecomposition, newline: str) -> Iterator[Iterator[str]]:
    """The text of each peel of dec on lines ending in newline, its flat
    written into a hole."""
    for s in dec.steps:
        pair = [s.source_pair[0] + 1, s.source_pair[1] + 1]
        obj = {"element": s.element + 1, "flat": _HOLE, "member_pair": pair}
        yield json_pieces(obj, partial(_label_list, s.flat), newline=newline)


def _label_list(mask: int, newline: str) -> tuple[str]:
    """The 1-based labels of mask as a list on a line ending in newline."""
    if not mask:
        return ("[]",)
    inner = newline + "  "
    return ("[" + inner + ("," + inner).join(map(str, bit_list(mask, 1))) + newline + "]",)


def generators_to_csv(gens: Iterable[MinorGenerator]) -> str:
    lines = []
    for g in gens:
        a = ",".join(str(r + 1) for r in g.rows)
        b = ",".join(str(c + 1) for c in g.cols)
        lines.append(f"{a};{b}")
    return "\n".join(lines) + "\n"
