"""JSON and CSV serialization. Files use 1-based element labels; everything
in memory is 0-based. Writers emit canonical ordering, readers are lenient."""

from __future__ import annotations

from typing import Iterable

from .bitset import bits_tuple, mask_of
from .core import Matroid, matroid_from_circuits
from .decomposition import DecompositionResult
from .errors import BadParams, OutOfRange
from .families import MinorGenerator
from .paving import PavingMatroid, paving_from_hyperplanes
from .quasi import QuasiRep, quasi_rep

CIRCUIT_LIST_INLINE_LIMIT = 20_000


def mask_to_labels(mask: int) -> list[int]:
    return [e + 1 for e in bits_tuple(mask)]


def labels_to_mask(labels: Iterable[int], d: int) -> int:
    if not isinstance(labels, (list, tuple)):
        raise BadParams(f"expected a list of labels, got {labels!r}")
    out = []
    for x in labels:
        if not isinstance(x, int) or x < 1 or x > d:
            raise OutOfRange(f"label {x!r} outside 1..{d}")
        out.append(x - 1)
    return mask_of(out)


def _label_lists(key: str, lists, d: int) -> list[int]:
    """The masks of a file's list of label lists, stored under key."""
    if not isinstance(lists, (list, tuple)):
        raise BadParams(f"{key} must be a list of label lists, got {lists!r}")
    return [labels_to_mask(labels, d) for labels in lists]


def matroid_to_dict(m: Matroid, *, include_circuits: bool = True) -> dict:
    out: dict = {"d": m.d, "rank": m.rank_value}
    if include_circuits:
        out["circuits"] = [mask_to_labels(c) for c in m.circuits()]
    else:
        out["circuit_count_by_size"] = {
            str(size): count for size, count in sorted(m.circuit_count_by_size().items())
        }
    return out


def matroid_from_dict(obj: dict, *, validate: bool = True) -> Matroid:
    try:
        d = int(obj["d"])
        declared = obj.get("rank")
        circuits = obj["circuits"]
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParams(f"matroid file needs d, rank, circuits: {exc}")
    masks = _label_lists("circuits", circuits, d)
    return matroid_from_circuits(
        d, int(declared) if declared is not None else None, masks, validate=validate
    )


def paving_to_dict(p: PavingMatroid) -> dict:
    return {
        "d": p.d,
        "n": p.n,
        "hyperplanes": [mask_to_labels(l) for l in p.hyperplanes],
    }


def paving_from_dict(obj: dict) -> PavingMatroid:
    try:
        d = int(obj["d"])
        n = int(obj["n"])
        hyps = obj["hyperplanes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParams(f"paving file needs d, n, hyperplanes: {exc}")
    return paving_from_hyperplanes(d, n, _label_lists("hyperplanes", hyps, d))


def quasi_to_dict(rep: QuasiRep) -> dict:
    return {"d": rep.d, "n": rep.n, "H": [mask_to_labels(h) for h in rep.members]}


def quasi_from_dict(obj: dict, *, n_override: int | None = None) -> QuasiRep:
    try:
        d = int(obj["d"])
        n = int(obj["n"]) if n_override is None else n_override
        members = obj["H"]
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParams(f"hypergraph file needs d, n, H: {exc}")
    return quasi_rep(d, n, _label_lists("H", members, d))


def decomposition_to_dict(result: DecompositionResult, *, include_circuits: bool = False) -> dict:
    label_of = {mask: label for label, mask in zip(result.hyperplane_labels, result.hyperplane_masks)}
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
        matroid_obj: dict = {"d": report.matroid.d, "rank": report.matroid.rank_value}
        if include_circuits:
            circuits = report.matroid.circuits()
            if len(circuits) <= CIRCUIT_LIST_INLINE_LIMIT:
                matroid_obj["circuits"] = [mask_to_labels(c) for c in circuits]
        components.append(
            {
                "partition": [
                    [label_of[mask] for mask in block] for block in report.block_masks
                ],
                "classification": classification,
                "matroid": matroid_obj,
            }
        )
    return {
        "family": result.family,
        "params": result.params,
        "hyperplanes": {
            label: mask_to_labels(mask)
            for label, mask in zip(result.hyperplane_labels, result.hyperplane_masks)
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
