"""The benchmark's workloads: which CLI calls a pass makes, how each output is
checked, and the seeded inputs the calls read.

A case is one ``pavemat`` CLI call. Its ``family`` says which part of
``wall_s`` it counts toward: ``grid`` and ``lines`` feed ``grid_s`` and
``lines_s``, ``quasi`` marks the random-hypergraph calls (reported as
``quasi_s``), and ``None`` counts toward ``wall_s`` only. Its ``check`` says
how the output is verified: ``digest`` compares the sha256 of stdout with the
one recorded in ``golden.json``, ``count`` also compares the printed number
with the reference count there, and ``circuits`` cross-checks an exported
circuit list against the library's own counts (see ``worker.py``).

Argument strings may name ``{work}``, the run's scratch directory, where the
seeded hypergraph files live and where ``export`` cases leave their stdout
for later cases to read.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    family: Optional[str]
    check: str = "digest"
    export: Optional[str] = None


@dataclass(frozen=True)
class Hypergraph:
    """Shape of one seeded tame hypergraph: member i shares `shared` elements
    with member i+1 for each i < `pairs`, every member has `private` elements
    of its own, and the remaining elements lie in no member. No element lies
    in three members, so the hypergraph is tame. The seed picks the labels;
    the shape, and with it the circuit counts and the work, stays fixed."""

    file: str
    d: int
    n: int
    members: int
    pairs: int
    shared: int
    private: int


def _cmd(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def _quasi_case(h: Hypergraph) -> Case:
    return Case(
        f"matroid-quasi-level{h.n}",
        _cmd(f"matroid quasi --file {{work}}/{h.file} --circuits --format json"),
        "quasi",
        check="circuits",
    )


def _export_and_validate(k: int, l: int) -> tuple[Case, Case]:
    export = f"grid-{k}x{l}.json"
    return (
        Case(
            f"matroid-grid-{k}x{l}-export",
            _cmd(f"matroid grid --k {k} --l {l} --circuits --format json"),
            "grid",
            export=export,
        ),
        Case(f"validate-grid-{k}x{l}", _cmd(f"validate --file {{work}}/{export}"), "grid"),
    )


def _count(family: str, flags: str, method: str) -> Case:
    size = "x".join(flags.split()[1::2])
    return Case(
        f"count-{family}-{size}-{method}",
        _cmd(f"count {family} {flags} --method {method}"),
        family,
        check="count",
    )


# Level 3 and level 4 hypergraphs of about equal export cost.
HYPERGRAPHS = (
    Hypergraph("hyper-level3.json", d=36, n=3, members=8, pairs=6, shared=2, private=2),
    Hypergraph("hyper-level4.json", d=26, n=4, members=7, pairs=5, shared=3, private=1),
)
SMOKE_HYPERGRAPHS = (
    Hypergraph("hyper-level3.json", d=12, n=3, members=4, pairs=2, shared=2, private=1),
)

# The cases of each workload, in the order a pass runs them: an export comes
# before the call that reads it. "list" walks hyperplane partitions and runs
# quasi (the type-3 count when listing, every type-3 circuit when exporting);
# "count" runs the three counting routes, where neither happens. No case takes
# much more than a second, so a pass lasts a few seconds and the reference
# timings taken during it track the CPU speed it ran at. The order is fixed
# because peak memory depends on it: the seed varies only the hypergraph
# labels. README.md gives the reasons and the sizes each case stands in for.
WORKLOADS: dict[str, tuple[Case, ...]] = {
    "list": (
        Case("decompose-grid-4x5-list", _cmd("decompose grid --k 4 --l 5 --list"), "grid"),
        Case("decompose-lines-7-list", _cmd("decompose lines --n 7 --list"), "lines"),
        Case(
            "decompose-lines-6-json-circuits",
            _cmd("decompose lines --n 6 --list --format json --circuits"),
            "lines",
        ),
        *_export_and_validate(4, 4),
        *(_quasi_case(h) for h in HYPERGRAPHS),
    ),
    "count": (
        _count("grid", "--k 7 --l 8", "enumerate"),
        _count("lines", "--n 11", "enumerate"),
        Case("tables", _cmd("tables"), None),
        _count("grid", "--k 8 --l 8", "formula"),
        _count("lines", "--n 12", "egf"),
        _count("grid", "--k 18 --l 18", "formula"),
        _count("grid", "--k 18 --l 18", "egf"),
        _count("lines", "--n 50", "formula"),
        _count("lines", "--n 50", "egf"),
        _count("grid", "--k 20 --l 20", "egf"),
        _count("lines", "--n 60", "egf"),
        _count("grid", "--k 30 --l 30", "egf"),
    ),
}

# Tiny inputs that run every workload path in seconds.
SMOKE_WORKLOADS: dict[str, tuple[Case, ...]] = {
    "list": (
        Case("decompose-grid-4x4-list", _cmd("decompose grid --k 4 --l 4 --list"), "grid"),
        Case("decompose-lines-5-list", _cmd("decompose lines --n 5 --list"), "lines"),
        Case(
            "decompose-lines-5-json-circuits",
            _cmd("decompose lines --n 5 --list --format json --circuits"),
            "lines",
        ),
        *_export_and_validate(4, 4),
        *(_quasi_case(h) for h in SMOKE_HYPERGRAPHS),
    ),
    "count": (
        _count("grid", "--k 4 --l 4", "enumerate"),
        _count("lines", "--n 5", "enumerate"),
        Case("tables", _cmd("tables"), None),
        _count("grid", "--k 4 --l 4", "formula"),
        _count("grid", "--k 4 --l 4", "egf"),
        _count("lines", "--n 5", "formula"),
        _count("lines", "--n 5", "egf"),
    ),
}


def hypergraphs(workload: str, smoke: bool) -> tuple[Hypergraph, ...]:
    if workload != "list":
        return ()
    return SMOKE_HYPERGRAPHS if smoke else HYPERGRAPHS


def tame_hypergraph(h: Hypergraph, seed: int) -> dict:
    """The hypergraph file contents for shape h and a seed, 1-based labels."""
    if h.pairs >= h.members or h.pairs * h.shared + h.members * h.private > h.d:
        raise ValueError(f"{h.file}: shape does not fit {h.members} members on {h.d} elements")
    labels = list(range(1, h.d + 1))
    random.Random(f"{h.file}:{seed}").shuffle(labels)
    take = iter(labels)
    members: list[set[int]] = [set() for _ in range(h.members)]
    for i in range(h.pairs):
        for _ in range(h.shared):
            e = next(take)
            members[i].add(e)
            members[i + 1].add(e)
    for member in members:
        for _ in range(h.private):
            member.add(next(take))
    return {"d": h.d, "n": h.n, "H": [sorted(m) for m in members]}


def write_hypergraphs(workload: str, seed: int, smoke: bool, work: Path) -> list[Path]:
    paths = []
    for h in hypergraphs(workload, smoke):
        path = work / h.file
        path.write_text(json.dumps(tame_hypergraph(h, seed), sort_keys=True) + "\n")
        paths.append(path)
    return paths
