import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import types
import weakref
from pathlib import Path

import pytest

from pavemat import (
    QuasiRep,
    bitset,
    cli,
    core,
    counting,
    decompose_grid,
    decompose_lines,
    decomposition,
    grid_matroid,
    io,
    line_matroid,
    quasi,
    quasi_rep,
)
from pavemat.cli import main
from pavemat.io import mask_to_labels, matroid_from_dict, quasi_from_dict
from pavemat.counting import line_component_codes
from pavemat.errors import TooLarge
from pavemat.quasi import CIRCUIT_BUDGET, check_circuit_budget, circuit_rows

from helpers import brute_quasi_circuits, json_oracle, listing_dict, m1, quasi_to_dict
from oracles import matroid_file, paving_to_matroid, quasi_circuits, quasi_matroid, uniform

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matroid_json_roundtrip():
    m = paving_to_matroid(grid_matroid(3, 4))
    back = matroid_from_dict(json.loads(json.dumps(matroid_file(m))))
    assert back == (m.d, m.rank_value, len(m.circuits()))


def test_quasi_json_roundtrip():
    rep = quasi_rep(7, 3, [m1(1, 4, 5, 6, 7), m1(1, 2, 3, 6, 7)])
    assert quasi_from_dict(quasi_to_dict(rep)) == rep


def test_count_grid_formula(capsys):
    code, out, _ = run(capsys, "count", "grid", "--k", "5", "--l", "5", "--method", "formula")
    assert code == 0
    assert out.strip() == "127"


def test_count_at_the_line_egf_budget_prints_below_the_int_str_ceiling(capsys):
    """CPython refuses str() of an int past its digit limit (4,300 by default
    from 3.10.7 on), so a budget raised past it fails here, not in print."""
    code, out, _ = run(capsys, "count", "lines", "--n", str(counting.LINE_EGF_BUDGET), "--method", "egf")
    assert code == 0
    # 0 means the ceiling is lifted here, but not for a default interpreter
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300
    assert out.strip().isdigit() and len(out.strip()) < limit


def test_count_lines_default(capsys):
    code, out, _ = run(capsys, "count", "lines", "--n", "6")
    assert code == 0
    assert out.strip() == "17"


def test_tables_pass(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 10
    assert all(l.endswith("PASS") for l in lines)


def test_decompose_count_and_list(capsys):
    code, out, _ = run(capsys, "decompose", "grid", "--k", "4", "--l", "5")
    assert code == 0 and out.strip() == "22"
    code, out, _ = run(capsys, "decompose", "lines", "--n", "6", "--list", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["component_count"] == 17
    assert len(obj["components"]) == 17
    sizes = sorted(len(c["partition"]) for c in obj["components"])
    assert sizes[0] == 1 and sizes[-1] == 6


def test_decompose_list_text(capsys):
    code, out, _ = run(capsys, "decompose", "grid", "--k", "3", "--l", "4", "--list")
    assert code == 0
    assert "uniform(2,12)" in out
    assert "equals-base" in out


def test_matroid_grid_text(capsys):
    code, out, _ = run(capsys, "matroid", "grid", "--k", "3", "--l", "3")
    assert code == 0
    assert "rank: 3" in out
    assert "6 of size 3" in out and "90 of size 4" in out


def test_matroid_lines_json(capsys):
    code, out, _ = run(capsys, "matroid", "lines", "--n", "4", "--format", "json", "--circuits")
    assert code == 0
    obj = json.loads(out)
    assert obj["d"] == 6 and obj["rank"] == 3
    assert len(obj["hyperplanes"]) == 4


def test_matroid_quasi_from_file(tmp_path, capsys):
    rep = quasi_rep(7, 3, [m1(1, 4, 5, 6, 7), m1(1, 2, 3, 6, 7)])
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(quasi_to_dict(rep)))
    code, out, _ = run(capsys, "matroid", "quasi", "--file", str(path))
    assert code == 0
    assert "rank: 3" in out


def test_validate_good_file(tmp_path, capsys):
    # U(4,17) has more circuit pairs than the pair budget, but no pair is scanned
    for n, d, count in ((2, 5, 10), (4, 17, 6188)):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matroid_file(uniform(n, d))))
        code, out, _ = run(capsys, "validate", "--file", str(path))
        assert code == 0
        assert out == f"valid matroid: d={d} rank={n} circuits={count}\n"


def test_validate_bad_file(tmp_path, capsys):
    bad = {"d": 4, "rank": 2, "circuits": [[1, 2], [1, 3]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 1
    assert "INVALID" in err and "no circuit inside" in err


@pytest.mark.parametrize(
    "obj, message",
    [
        # a label outside the ground set is refused before the axioms are checked
        ({"d": 3, "rank": 2, "circuits": [[1, 2], [1, 3], [4]]}, "label 4 outside 1..3"),
        ({"d": 3, "rank": 1, "circuits": [[1, 2], []]}, "the empty set cannot be a circuit"),
        # the declared rank is compared only once the axioms hold
        ({"d": 4, "rank": 3, "circuits": [[1, 2], [1, 3]]}, "no circuit inside ((0, 1) | (0, 2)) minus element 0"),
        ({"d": 4, "rank": 2, "circuits": [[1, 2], [1, 2, 3]]}, "circuit (0, 1) is contained in circuit (0, 1, 2)"),
        ({"d": 4, "rank": 2, "circuits": [[1, 2, 3]]}, "declared rank 2 but computed rank 3"),
    ],
)
def test_validate_reports_the_first_failure(tmp_path, capsys, obj, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    assert run(capsys, "validate", "--file", str(path)) == (1, "", f"INVALID: {message}\n")


def test_roundtrip_grid_through_validate(tmp_path, capsys):
    code, out, _ = run(capsys, "matroid", "grid", "--k", "3", "--l", "4", "--format", "json", "--circuits")
    assert code == 0
    path = tmp_path / "grid.json"
    path.write_text(out)
    code, out, _ = run(capsys, "validate", "--file", str(path))
    assert code == 0


def test_single_hyperplane_grid_rank_through_validate(tmp_path, capsys):
    # the one hyperplane of a 1x4 grid is the whole ground: every 3-set is a
    # circuit, so the rank is 2, not the declared level 3
    code, out, _ = run(capsys, "matroid", "grid", "--k", "1", "--l", "4", "--format", "json", "--circuits")
    assert code == 0
    assert json.loads(out)["rank"] == 2
    path = tmp_path / "grid.json"
    path.write_text(out)
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 0 and err == ""
    assert out == "valid matroid: d=4 rank=2 circuits=4\n"
    code, out, _ = run(capsys, "matroid", "grid", "--k", "1", "--l", "4")
    assert code == 0
    assert "\nrank: 2\n" in out


def test_matroid_circuit_budget_exit_1(capsys):
    # Listing the circuits still needs them all.
    code, out, err = run(capsys, "matroid", "grid", "--k", "40", "--l", "40", "--circuits")
    assert code == 1
    assert out.startswith("ground size: 1600\nrank: 3\nhyperplanes (80):\n")
    assert err == "error: budget 'circuit materialization' exceeded: about 272044630000 candidates\n"


def test_matroid_histogram_from_the_cell_counts(capsys):
    code, out, err = run(capsys, "matroid", "grid", "--k", "40", "--l", "40")
    assert code == 0 and err == ""
    assert out.startswith("ground size: 1600\nrank: 3\nhyperplanes (80):\n")
    assert out.endswith("\ncircuits: 790400 of size 3, 270803504400 of size 4\n")
    code, out, _ = run(capsys, "matroid", "grid", "--k", "4", "--l", "4")
    assert code == 0 and out.endswith("\ncircuits: 32 of size 3, 1428 of size 4\n")
    code, out, _ = run(capsys, "matroid", "grid", "--k", "40", "--l", "40", "--format", "json")
    assert code == 0
    assert json.loads(out)["circuit_count_by_size"] == {"3": 790400, "4": 270803504400}


# sha256 of the listings' stdout, recorded before components were told apart
# by their cell counts instead of their small circuits.
LISTING_DIGESTS = {
    "decompose lines --n 10 --list": "0aaa6e35397d7dcc5dbcf6c881c791c08afa41d8e930463b140e1f6e2d8810e9",
    "decompose lines --n 10 --list --format json": "dd15da4038f5d7344fd75ca88bb81e4b8bfa4f28c4bb10824d9881022e47e6f8",
    "decompose grid --k 6 --l 6 --list": "d17c900795b953814182bb461d4b2b646dc40a1a27f03b890f67635e88478f65",
    "decompose grid --k 6 --l 6 --list --format json": "7c8eefda23ae25717860ce666d574234301ce0667d875624c2327bb0ba025c72",
}


@pytest.mark.parametrize("argv", sorted(LISTING_DIGESTS))
def test_listing_bytes_are_pinned(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == LISTING_DIGESTS[argv]


# Every listing up to lines 10 and grid 6x6; with --circuits, those whose
# text stays under about 4 MB.
ORACLE_LISTINGS = [f"lines --n {n}" for n in range(4, 11)]
ORACLE_LISTINGS += [f"grid --k {k} --l {l}" for k in range(3, 7) for l in range(k, 7)]
ORACLE_LISTINGS += [f"lines --n {n} --circuits" for n in range(4, 8)]
ORACLE_LISTINGS += [f"grid --k {k} --l {l} --circuits" for k, l in [(3, 3), (3, 4), (3, 5), (3, 6), (4, 4), (4, 5)]]


@pytest.mark.parametrize("args", ORACLE_LISTINGS)
def test_json_listing_equals_the_per_component_oracle(capsys, args):
    # each shape's text is laid out once; the oracle builds every component's dict
    code, out, err = run(capsys, "decompose", *args.split(), "--list", "--format", "json")
    assert code == 0 and err == ""
    family, *options = args.split()
    size = [int(x) for x in options if x.isdigit()]
    result = decompose_grid(*size) if family == "grid" else decompose_lines(*size)
    circuits = quasi_circuits if "--circuits" in options else None
    assert out == json_oracle(listing_dict(result, circuits)) + "\n"


def test_circuit_lists_over_the_inline_limit_are_never_built(capsys, monkeypatch):
    # At a limit of 455 the uniform(2,15) component of lines 6 (455 circuits)
    # keeps its list; the base (795) leaves it out and is not materialized.
    monkeypatch.setattr(io, "CIRCUIT_LIST_INLINE_LIMIT", 455)
    built = []
    monkeypatch.setattr(io, "circuit_rows", lambda rep, *text: built.append(rep) or circuit_rows(rep, *text))
    code, out, err = run(capsys, "decompose", "lines", "--n", "6", "--list", "--format", "json", "--circuits")
    assert code == 0 and err == ""
    # recorded before the limit was tested against the circuit counts
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8121f6498c8d02ca6fc3af907aaf325db3c7a255e7dc20246ed18651d3cdb4e3"
    )
    reports = list(decompose_lines(6).components)
    counts = [c.profile.type1 + c.profile.type2 + c.profile.type3 for c in reports]
    assert len(counts) == 17 and 455 in counts and 795 in counts
    matroids = [c["matroid"] for c in json.loads(out)["components"]]
    listed = [len(m["circuits"]) if "circuits" in m else None for m in matroids]
    assert listed == [count if count <= 455 else None for count in counts]
    assert len(built) == 16


def _refuse_circuit_mask_lists(monkeypatch):
    # the mask form of the capped walk, and validate's check of a circuit list
    def refused(*args, **kwargs):
        raise AssertionError("a circuit mask list was built or checked")

    monkeypatch.setattr(bitset, "capped_subsets", refused)
    monkeypatch.setattr(quasi, "capped_subsets", refused)
    monkeypatch.setattr(core, "check_circuit_axioms", refused)


def _text_rows(label_lists) -> str:
    return "".join("  " + " ".join(map(str, labels)) + "\n" for labels in label_lists)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("family", ["grid", "lines", "quasi", "quasi-empty-member", "quasi-nine"])
def test_matroid_circuit_lists_are_written_from_the_walk(tmp_path, capsys, monkeypatch, family, fmt):
    if family == "grid" or family == "lines":
        p = grid_matroid(4, 4) if family == "grid" else line_matroid(6)
        rep = QuasiRep(p.d, p.n, p.hyperplanes)
        argv = ["matroid", "grid", "--k", "4", "--l", "4"] if family == "grid" else ["matroid", "lines", "--n", "6"]
    else:
        obj = {"quasi": TAME_INPUT, "quasi-empty-member": EMPTY_MEMBER_INPUT, "quasi-nine": NINE_INPUT}[family]
        path = tmp_path / "h.json"
        path.write_text(json.dumps(obj))
        rep = quasi_from_dict(obj)
        argv = ["matroid", "quasi", "--file", str(path)]
    rank = quasi_matroid(rep).rank_value
    hyperplanes = [mask_to_labels(h) for h in rep.members]
    circuits = [mask_to_labels(c) for c in brute_quasi_circuits(rep)]
    _refuse_circuit_mask_lists(monkeypatch)
    code, out, err = run(capsys, *argv, "--circuits", "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "json":
        expected = {"circuits": circuits, "d": rep.d, "hyperplanes": hyperplanes, "rank": rank}
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    else:
        # the header's count, from the closed-form histogram, is the number of rows
        assert out == (
            f"ground size: {rep.d}\nrank: {rank}\nhyperplanes ({len(hyperplanes)}):\n"
            + _text_rows(hyperplanes)
            + f"circuits ({len(circuits)}):\n"
            + _text_rows(circuits)
        )


# Every export call but validate's, {name} standing for the file of that name.
NO_MATROID_CALLS = [
    "matroid grid --k 4 --l 4",
    "matroid grid --k 4 --l 4 --circuits",
    "matroid lines --n 6",
    "matroid lines --n 6 --circuits",
    "matroid quasi --file {tame}",
    "matroid quasi --file {tame} --circuits",
    "matroid quasi --file {empty} --circuits",
    "matroid quasi --file {nine} --n 2",
    "decompose-to-tame --file {ci}",
    "decompose-to-tame --file {ci} --n 2",
    "decompose-to-tame --file {deficient}",
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("call", NO_MATROID_CALLS)
def test_exports_build_no_matroid(tmp_path, capsys, monkeypatch, call, fmt):
    # the rank and the counts come from circuit_profile; only validate checks a circuit list
    files = {
        "tame": TAME_INPUT,
        "empty": EMPTY_MEMBER_INPUT,
        "nine": NINE_INPUT,
        "ci": CI_EXAMPLE_INPUT,
        "deficient": {"d": 4, "n": 3, "H": [[1, 2, 3, 4]]},  # rank 2
    }
    for name, obj in files.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(obj))
    argv = [*call.format(**files).split(), "--format", fmt]
    expected = run(capsys, *argv)
    if "deficient" in call:
        assert expected == (1, "", "error: construction at level 3 does not have rank 3\n")
    else:
        assert expected[0] == 0 and expected[2] == ""

    _refuse_circuit_mask_lists(monkeypatch)
    assert run(capsys, *argv) == expected


def test_listing_circuit_lists_are_written_from_the_walk(capsys, monkeypatch):
    reports = list(decompose_lines(6).components)
    _refuse_circuit_mask_lists(monkeypatch)
    code, out, err = run(capsys, "decompose", "lines", "--n", "6", "--list", "--format", "json", "--circuits")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert len(obj["components"]) == len(reports) == 17
    for component, report in zip(obj["components"], reports):
        assert "circuits" in component["matroid"]
        component["matroid"]["circuits"] = [mask_to_labels(c) for c in brute_quasi_circuits(report.rep)]
    assert out == json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _RecordedStdout:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.writes)


def test_export_is_written_in_small_pieces(tmp_path, monkeypatch):
    # the level-4 hypergraph of the benchmark's list workload: member i shares
    # 3 elements with member i+1 for i < 5, each has 1 of its own, 26 elements
    members = [[] for _ in range(7)]
    labels = iter(range(1, 27))
    for i in range(5):
        for e in (next(labels), next(labels), next(labels)):
            members[i].append(e)
            members[i + 1].append(e)
    for member in members:
        member.append(next(labels))
    path = tmp_path / "level4.json"
    path.write_text(json.dumps({"d": 26, "n": 4, "H": members}))
    stdout = _RecordedStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["matroid", "quasi", "--file", str(path), "--circuits", "--format", "json"])
    monkeypatch.undo()
    text = stdout.text()
    assert code == 0 and len(text) > 3_000_000
    assert len(json.loads(text)["circuits"]) > 40_000
    assert max(map(len, stdout.writes)) < len(text) / 20


def _followed(pieces):
    """pieces, through a generator that a weak reference can follow."""
    yield from pieces


def test_listing_builds_each_circuit_list_after_the_last_is_written(capsys, monkeypatch):
    code, expected, _ = run(capsys, "decompose", "lines", "--n", "7", "--list", "--format", "json", "--circuits")
    assert code == 0
    stdout = _RecordedStdout()
    built = []

    def rows(rep, *text):
        # the writer has reached this component's list, every earlier list
        # is written, and none of their writers is still alive
        written = stdout.text()
        assert written.endswith('"circuits": ')
        assert written.count('"circuits": ') == len(built) + 1
        assert all(ref() is None for ref in built)
        pieces = _followed(circuit_rows(rep, *text))
        built.append(weakref.ref(pieces))
        return pieces

    monkeypatch.setattr(io, "circuit_rows", rows)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["decompose", "lines", "--n", "7", "--list", "--format", "json", "--circuits"])
    monkeypatch.undo()
    assert code == 0 and len(built) == 58
    assert stdout.text() == expected


def test_a_refused_circuit_list_ends_the_listing_after_the_components_before_it(capsys, monkeypatch):
    # The third component's list is refused, as the candidate estimate does
    # above its budget. The listing streams, so the run exits 1 with the first
    # two components written, as an unrefused run writes them, and the third
    # neither written nor its list built.
    argv = ("decompose", "lines", "--n", "7", "--list", "--format", "json", "--circuits")
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    checked, built = [], []

    def refuse_the_third(rep):
        checked.append(rep)
        check_circuit_budget(rep, 0 if len(checked) == 3 else CIRCUIT_BUDGET)

    monkeypatch.setattr(io, "check_circuit_budget", refuse_the_third)
    monkeypatch.setattr(io, "circuit_rows", lambda rep, *text: built.append(rep) or circuit_rows(rep, *text))
    code, out, err = run(capsys, *argv)
    # each component is a dict at depth 2 of the document, closed by "\n    }"
    closed = [m.end() for m in re.finditer("\n    }", expected)]
    assert len(closed) == 58
    assert code == 1 and out == expected[: closed[1]]
    assert len(checked) == 3 and built == checked[:2]
    with pytest.raises(TooLarge) as refused:
        check_circuit_budget(checked[2], 0)
    assert err == f"error: {refused.value}\n"
    assert err.startswith("error: budget 'circuit materialization' exceeded: about ")


class _Report(types.SimpleNamespace):
    """A component report that a weak reference can follow."""


def test_a_listing_is_written_as_it_is_walked(capsys, monkeypatch):
    code, expected, _ = run(capsys, "decompose", "lines", "--n", "7", "--list")
    assert code == 0
    header, first = expected.splitlines(keepends=True)[:2]
    made, before_last = [], []

    class Watched(_RecordedStdout):
        def write(self, text: str) -> int:
            if text.startswith("  {"):
                # the report of this line is the only one alive
                assert [ref() is not None for ref in made] == [False] * (len(made) - 1) + [True]
            return super().write(text)

    stdout = Watched()

    def walk(n):
        # stdout as each walk of the codes is about to yield its last code
        codes = list(line_component_codes(n))
        yield from codes[:-1]
        before_last.append(stdout.text())
        yield codes[-1]

    def report(**fields):
        made.append(weakref.ref(made_report := _Report(**fields)))
        return made_report

    monkeypatch.setattr(decomposition, "line_component_codes", walk)
    monkeypatch.setattr(decomposition, "ComponentReport", report)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["decompose", "lines", "--n", "7", "--list"])
    monkeypatch.undo()
    assert code == 0 and stdout.text() == expected
    assert len(made) == 58 and all(ref() is None for ref in made)
    # the count's walk, then the listing's, which has written the header and
    # the first component before it yields its last code
    assert before_last[0] == "" and before_last[-1].startswith(header + first)


def test_generators_csv(capsys):
    code, out, _ = run(capsys, "ci-generators", "--k", "3", "--l", "3", "--s", "3", "--t", "3", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "1,2,3;1,2,3"


def test_generators_over_the_budget_exit_1(capsys):
    # 40 * C(40, 3) generators from the rows and as many from the columns
    code, out, err = run(capsys, "ci-generators", "--k", "40", "--l", "40", "--s", "3", "--t", "3", "--n", "3")
    assert code == 1 and out == ""
    assert err == "error: budget 'ci generators': requested 790400 exceeds limit 50000\n"


# The hypergraph that the CI workflow exports and peels.
CI_EXAMPLE_INPUT = {"d": 8, "n": 3, "H": [[1, 2, 3, 4], [3, 4, 5, 6], [6, 7, 8]]}

# decompose-to-tame's text, and the sha256 of its JSON, at each level,
# recorded before the replay checks moved out of the library.
DECOMPOSE_TO_TAME_TEXT = {
    ("tame", 2): (
        "extension steps (3):\n"
        "  element 7 over flat {1 6}\n"
        "  element 6 over flat {1}\n"
        "  element 1 over flat {}\n"
        "core on elements [2, 3, 4, 5]:\n"
        "  2 3\n"
        "  4 5\n"
    ),
    ("tame", 3): (
        "extension steps (2):\n"
        "  element 7 over flat {1 6}\n"
        "  element 6 over flat {1}\n"
        "core on elements [1, 2, 3, 4, 5]:\n"
        "  1 2 3\n"
        "  1 4 5\n"
    ),
    ("tame", 4): (
        "extension steps (1):\n"
        "  element 7 over flat {1 6}\n"
        "core on elements [1, 2, 3, 4, 5, 6]:\n"
        "  1 2 3 6\n"
        "  1 4 5 6\n"
    ),
    ("ci", 2): (
        "extension steps (3):\n"
        "  element 6 over flat {3 4}\n"
        "  element 4 over flat {3}\n"
        "  element 3 over flat {}\n"
        "core on elements [1, 2, 5, 7, 8]:\n"
        "  1 2\n"
        "  7 8\n"
    ),
    ("ci", 3): (
        "extension steps (1):\n"
        "  element 4 over flat {3}\n"
        "core on elements [1, 2, 3, 5, 6, 7, 8]:\n"
        "  1 2 3\n"
        "  3 5 6\n"
        "  6 7 8\n"
    ),
    ("ci", 4): (
        "extension steps (0):\n"
        "core on elements [1, 2, 3, 4, 5, 6, 7, 8]:\n"
        "  1 2 3 4\n"
        "  3 4 5 6\n"
    ),
}
DECOMPOSE_TO_TAME_JSON = {
    ("tame", 2): "f1ac8cbb3a51ebdf5848c38474ae4848460537ae96580dd2f5844d1053f9e668",
    ("tame", 3): "513442c538b34e35633075bfaabba8f452776e9d46287b2e8add71ec410b8da6",
    ("tame", 4): "f9fb0fde4922985ff8f01376ec246b05a7d7c82d2afbcaff270e6fc35c23d048",
    ("ci", 2): "75688bfff70182af5e78d63664884652e513bda4608c00f9ba97e2dc464a3d86",
    ("ci", 3): "3ea9197d0f3ec72545a31c8c3f7dfb26883fa5bc3da4c6a192b4d170354a3000",
    ("ci", 4): "ae34794310d8157f08018f9f1b73db7f408047aa34b49f046688150db204ff25",
}


def test_decompose_to_tame_cli(tmp_path, capsys):
    for name, obj in (("tame", TAME_INPUT), ("ci", CI_EXAMPLE_INPUT)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        for n in (2, 3, 4):
            argv = ("decompose-to-tame", "--file", str(path), "--n", str(n))
            assert run(capsys, *argv) == (0, DECOMPOSE_TO_TAME_TEXT[name, n], "")
            code, out, err = run(capsys, *argv, "--format", "json")
            assert code == 0 and err == ""
            assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_TO_TAME_JSON[name, n]


def test_usage_error_exit_2(capsys):
    assert run(capsys, "count", "grid", "--k", "4")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_budget_error_exit_1(capsys):
    code, _, err = run(capsys, "decompose", "grid", "--k", "9", "--l", "9")
    assert code == 1
    assert "budget" in err


def test_count_only_decompose_takes_the_enumerate_count_budget(capsys):
    code, out, _ = run(capsys, "decompose", "grid", "--k", "7", "--l", "8")
    assert code == 0 and out == "38516\n"
    assert run(capsys, "count", "grid", "--k", "7", "--l", "8")[1] == out
    code, out, err = run(capsys, "decompose", "grid", "--k", "7", "--l", "8", "--list")
    assert code == 1 and out == ""
    assert err == "error: budget 'grid hyperplane count': requested 15 exceeds limit 14\n"


def test_count_only_decompose_prints_the_enumerate_count(capsys):
    sizes = [("grid", "--k", str(k), "--l", str(l)) for k in range(3, 6) for l in range(3, 7)]
    sizes += [("lines", "--n", str(n)) for n in range(4, 11)]
    for size in sizes:
        want = run(capsys, "count", *size, "--method", "enumerate")
        assert want[0] == 0 and want[2] == ""
        assert run(capsys, "decompose", *size) == want, size


def test_budget_flag_override(capsys):
    code, out, _ = run(capsys, "decompose", "lines", "--n", "4", "--budget", "4")
    assert code == 0 and out.strip() == "2"


def test_determinism(capsys):
    first = run(capsys, "decompose", "grid", "--k", "3", "--l", "4", "--list", "--format", "json", "--circuits")
    second = run(capsys, "decompose", "grid", "--k", "3", "--l", "4", "--list", "--format", "json", "--circuits")
    assert first == second


def test_missing_file_is_error(capsys):
    code, _, err = run(capsys, "validate", "--file", "/nonexistent/x.json")
    assert code == 1
    assert err


def test_count_csv_format(capsys):
    code, out, _ = run(capsys, "count", "grid", "--k", "4", "--l", "5", "--method", "egf", "--format", "csv")
    assert code == 0
    assert out == "k,l,c\n4,5,22\n"
    code, out, _ = run(capsys, "count", "lines", "--n", "6", "--format", "csv")
    assert out == "n,c\n6,17\n"


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("PAVEMAT_ENUM_BUDGET", "5")
    code, _, err = run(capsys, "decompose", "lines", "--n", "6")
    assert code == 1 and "budget" in err
    monkeypatch.setenv("PAVEMAT_ENUM_BUDGET", "12")
    code, out, _ = run(capsys, "decompose", "lines", "--n", "6")
    assert code == 0 and out.strip() == "17"


def test_matroid_file_labels_key_tolerated(tmp_path, capsys):
    obj = {"d": 4, "rank": 2, "circuits": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]],
           "labels": {"1": "a"}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "validate", "--file", str(path))
    assert code == 0


def test_integral_floats_are_read_as_integers(tmp_path, capsys):
    obj = {"d": 4.0, "rank": 2.0, "circuits": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "validate", "--file", str(path))
    assert code == 0 and out == "valid matroid: d=4 rank=2 circuits=4\n"
    path.write_text(json.dumps({"d": 4.0, "n": 2.0, "H": [[1, 2]]}))
    code, out, _ = run(capsys, "matroid", "quasi", "--file", str(path))
    assert code == 0 and "rank: 2" in out


def test_matroid_quasi_level_override(tmp_path, capsys):
    rep = quasi_rep(6, 3, [[0, 1, 2, 3]])
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(quasi_to_dict(rep)))
    code, out, _ = run(capsys, "matroid", "quasi", "--file", str(path))
    assert code == 0 and "rank: 3" in out
    code, out, _ = run(capsys, "matroid", "quasi", "--file", str(path), "--n", "4")
    assert code == 0 and "rank: 4" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_matroid_quasi_level_far_above_the_ground_size(tmp_path, capsys, fmt):
    # No set reaches n - 1 elements, so there is no circuit and the rank is
    # d; the counts are read off before a product of n + 2 coefficients.
    path = tmp_path / "h.json"
    path.write_text(json.dumps(NINE_INPUT))
    start = time.perf_counter()
    code, out, err = run(capsys, "matroid", "quasi", "--file", str(path), "--n", str(10**12), "--format", fmt)
    assert time.perf_counter() - start < 5
    assert code == 0 and err == ""
    if fmt == "json":
        expected = {"circuit_count_by_size": {}, "d": 9, "hyperplanes": NINE_INPUT["H"], "rank": 9}
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    else:
        assert out == (
            "ground size: 9\nrank: 9\nhyperplanes (3):\n"
            + _text_rows(NINE_INPUT["H"])
            + "circuits: none\n"
        )


def test_hypergraph_commands_at_a_level_near_a_large_ground(tmp_path, capsys):
    # The 4,095 points of 91 lines at level 4,000: every cell's cap reaches
    # its size, so the counts come from one binomial row, with no product
    # taken cell by cell (4 s at this size). The only circuits are the
    # 4,001-sets, and the members are too small to be peeled.
    lines = line_matroid(91)
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"d": lines.d, "n": 3, "H": [mask_to_labels(h) for h in lines.hyperplanes]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "matroid", "quasi", "--file", str(path), "--n", "4000")
    assert code == 0 and err == ""
    assert out.startswith("ground size: 4095\nrank: 4000\nhyperplanes (91):\n")
    assert out.endswith(f"\ncircuits: {math.comb(4095, 4001)} of size 4001\n")
    code, out, err = run(capsys, "decompose-to-tame", "--file", str(path), "--n", "4000")
    assert code == 0 and err == ""
    assert out == f"extension steps (0):\ncore on elements {list(range(1, 4096))}:\n"
    assert time.perf_counter() - start < 2


def test_budget_env_not_an_integer_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("PAVEMAT_ENUM_BUDGET", "abc")
    code, out, err = run(capsys, "decompose", "lines", "--n", "6")
    assert code == 2 and out == ""
    assert err == "error: PAVEMAT_ENUM_BUDGET must be an integer, got 'abc'\n"


@pytest.mark.parametrize(
    "command", [("validate",), ("matroid", "quasi"), ("decompose-to-tame",)]
)
def test_malformed_json_exit_1(tmp_path, capsys, command):
    path = tmp_path / "broken.json"
    path.write_text('{"d": 4,')
    code, out, err = run(capsys, *command, "--file", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}: Expecting property name enclosed in double quotes: line 1 column 9 (char 8)\n"


@pytest.mark.parametrize(
    "command, obj, message",
    [
        (("decompose-to-tame",), {"d": 4, "n": 3, "H": 5}, "error: H must be a list of label lists, got 5\n"),
        (("matroid", "quasi"), {"d": 4, "n": 3, "H": [5]}, "error: expected a list of labels, got 5\n"),
        (("validate",), {"d": 4, "rank": 2, "circuits": [3]}, "INVALID: expected a list of labels, got 3\n"),
        (("validate",), {"d": -1, "rank": 0, "circuits": []}, "INVALID: ground size d must be >= 0, got -1\n"),
        (
            ("validate",),
            {"d": 3, "rank": "x", "circuits": []},
            "INVALID: rank must be an integer, got 'x'\n",
        ),
        (("matroid", "quasi"), {"d": -2, "n": 2, "H": []}, "error: ground size d must be >= 0, got -2\n"),
        (("decompose-to-tame",), {"d": -2, "n": 2, "H": []}, "error: ground size d must be >= 0, got -2\n"),
        (
            ("matroid", "quasi"),
            {"d": float("inf"), "n": 2, "H": []},
            "error: hypergraph file needs d, n, H: cannot convert float infinity to integer\n",
        ),
        (("matroid", "quasi"), {"d": 4, "n": 2, "H": [[True, 2]]}, "error: label True is not an integer\n"),
        (("validate",), {"d": 3, "rank": 1, "circuits": [[1, False]]}, "INVALID: label False is not an integer\n"),
        (
            ("validate",),
            {"d": 4, "rank": 2.9, "circuits": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]},
            "INVALID: rank must be an integer, got 2.9\n",
        ),
        (("validate",), {"d": 4.5, "rank": 2, "circuits": []}, "INVALID: ground size d must be an integer, got 4.5\n"),
        (("matroid", "quasi"), {"d": 4.7, "n": 2, "H": []}, "error: ground size d must be an integer, got 4.7\n"),
        (("matroid", "quasi"), {"d": 4, "n": 2.5, "H": []}, "error: n must be an integer, got 2.5\n"),
        (("decompose-to-tame",), {"d": 4, "n": 3.25, "H": []}, "error: n must be an integer, got 3.25\n"),
        (
            ("validate",),
            {"d": 200000, "rank": 0, "circuits": [[1]]},
            "INVALID: ground size d=200000 exceeds limit 4096\n",
        ),
        (
            ("matroid", "quasi"),
            {"d": 1e9, "n": 2, "H": [[1, 2]]},
            "error: ground size d=1000000000 exceeds limit 4096\n",
        ),
        # a bool or a string is no integer, as for the labels
        (("validate",), {"d": True, "rank": 1, "circuits": []}, "INVALID: ground size d must be an integer, got True\n"),
        (("validate",), {"d": 3, "rank": False, "circuits": []}, "INVALID: rank must be an integer, got False\n"),
        (("matroid", "quasi"), {"d": 4, "n": "3", "H": []}, "error: n must be an integer, got '3'\n"),
        (("matroid", "quasi"), {"d": "1_0", "n": 2, "H": []}, "error: ground size d must be an integer, got '1_0'\n"),
        (("decompose-to-tame",), {"d": 4, "n": True, "H": []}, "error: n must be an integer, got True\n"),
    ],
)
def test_badly_shaped_lists_exit_1(tmp_path, capsys, command, obj, message):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, *command, "--file", str(path))
    assert code == 1 and out == ""
    assert err == message


def test_formula_budget_exit_1(capsys):
    code, out, err = run(capsys, "count", "lines", "--n", "90", "--method", "formula")
    assert code == 1 and out == ""
    assert err == "error: budget 'line formula': requested 90 exceeds limit 60\n"
    code, out, _ = run(capsys, "count", "lines", "--n", "90", "--method", "egf")
    assert code == 0 and int(out) > 0


def test_egf_budget_exit_1(capsys):
    code, out, err = run(capsys, "count", "grid", "--k", "61", "--l", "60", "--method", "egf")
    assert code == 1 and out == ""
    assert err == "error: budget 'grid egf': requested 121 exceeds limit 120\n"
    code, out, err = run(capsys, "count", "lines", "--n", "801", "--method", "egf")
    assert code == 1 and out == ""
    assert err == "error: budget 'line egf': requested 801 exceeds limit 800\n"


@pytest.mark.parametrize(
    "command, message",
    [
        (
            ("grid", "--k", "100000", "--l", "100000"),
            "budget 'grid hyperplane count': requested 200000 exceeds limit 16",
        ),
        (
            ("grid", "--k", "3", "--l", "10000000"),
            "budget 'grid hyperplane count': requested 10000003 exceeds limit 16",
        ),
        (("grid", "--k", "2", "--l", "20"), "grid components need k, l >= 3, got 2, 20"),
        (("lines", "--n", "100000"), "budget 'line count': requested 100000 exceeds limit 12"),
    ],
)
def test_enumerate_refuses_huge_input_before_any_work(capsys, command, message):
    code, out, err = run(capsys, "count", *command)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "family, message",
    [
        (("grid", "--k", "2", "--l", "20"), "grid components need k, l >= 3, got 2, 20"),
        (("grid", "--k", "3", "--l", "2"), "grid components need k, l >= 3, got 3, 2"),
        (("lines", "--n", "3"), "line components need n >= 4, got 3"),
        (("lines", "--n", "0"), "line components need n >= 4, got 0"),
    ],
)
def test_decompose_and_count_refuse_small_sizes_with_one_message(capsys, family, message):
    # both walk the family's component codes, whose generator makes the check
    for command in (("count",), ("decompose",), ("decompose", "--list"), ("decompose", "--list", "--format", "json")):
        code, out, err = run(capsys, *command[:1], *family, *command[1:])
        assert (code, out, err) == (1, "", f"error: {message}\n"), command


TAME_INPUT = quasi_to_dict(quasi_rep(7, 3, [m1(1, 4, 5, 6, 7), m1(1, 2, 3, 6, 7)]))
# A quasi file may hold an empty member; a ground of 9 puts label 9 in a
# second byte of each mask.
EMPTY_MEMBER_INPUT = {"d": 5, "n": 2, "H": [[1, 2], [], [3, 4, 5]]}
NINE_INPUT = {"d": 9, "n": 3, "H": [[1, 2, 3, 9], [3, 4, 5, 8], [6, 7, 8, 9]]}


@pytest.mark.parametrize(
    "argv",
    [
        "matroid grid --k 3 --l 4 --format json",
        "matroid grid --k 3 --l 4 --format json --circuits",
        "matroid lines --n 5 --format json",
        "matroid lines --n 5 --format json --circuits",
        "matroid quasi --file {file} --format json",
        "matroid quasi --file {file} --format json --circuits",
        "matroid quasi --file {empty} --format json",
        "matroid quasi --file {empty} --format json --circuits",
        "matroid quasi --file {nine} --format json --circuits",
        "decompose grid --k 4 --l 4 --list --format json",
        "decompose grid --k 4 --l 4 --list --format json --circuits",
        "decompose lines --n 6 --list --format json",
        "decompose lines --n 6 --list --format json --circuits",
        "decompose-to-tame --file {file} --format json",
    ],
)
def test_json_output_is_the_stdlib_indented_layout(tmp_path, capsys, argv):
    paths = {}
    for name, obj in (("file", TAME_INPUT), ("empty", EMPTY_MEMBER_INPUT), ("nine", NINE_INPUT)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    code, out, err = run(capsys, *argv.format(**paths).split())
    assert code == 0 and err == ""
    assert out == json_oracle(json.loads(out)) + "\n"


# Calls that each command's own parser must answer as the full tree does:
# every command and family, help at each level, and each kind of usage error.
# {h} is a hypergraph file, {m} a matroid file.
PARSER_CORPUS = [
    "matroid grid --k 3 --l 3",
    "matroid lines --n 4 --format json",
    "matroid quasi --file {h} --circuits",
    "decompose grid --k 3 --l 4 --list",
    "decompose lines --n 5 --budget 12",
    "count grid --k 4 --l 4 --method formula",
    "count lines --n 6 --format csv",
    "tables --format csv",
    "validate --file {m}",
    "ci-generators --k 2 --l 3 --s 2 --t 2 --n 3",
    "decompose-to-tame --file {h} --format json",
    "-h",
    "--help",
    "count -h",
    "matroid --help",
    "decompose-to-tame -h",
    "count grid -h",
    "decompose lines --help",
    "matroid quasi -h",
    "",
    "bogus",
    "count",
    "count squares --n 4",
    "decompose --list",
    "matroid lines",
    "count grid --k 3",
    "ci-generators --k 2 --l 3",
    "count grid --k x --l 3",
    "validate --file",
    "count grid --k 3 --l 3 --method guess",
    "tables --format xml",
    "count grid --k 3 --l 3 --bogus",
    "count lines --n 5 --k 3",
    "count grid --k 3 --l 3 extra",
    "count --method egf grid --k 3 --l 3",
    "-- count grid --k 3 --l 3",
    "count -- grid --k 3 --l 3",
    "count grid -- --k 3 --l 3",
    "--k 3 count grid --l 3",
    "-h count grid",
    "count grid --me egf --k 4 --l 5",
    "decompose grid --k 3 --l 3 --li",
    "matroid quasi --f {h}",
]


@pytest.fixture
def corpus_files(tmp_path):
    h = tmp_path / "h.json"
    h.write_text(json.dumps(TAME_INPUT))
    m = tmp_path / "m.json"
    m.write_text(json.dumps(matroid_file(uniform(2, 4))))
    return {"h": h, "m": m}


@pytest.mark.parametrize("argv", PARSER_CORPUS)
def test_each_call_answers_as_the_full_parser(corpus_files, capsys, monkeypatch, argv):
    argv = argv.format(**corpus_files).split()
    got = run(capsys, *argv)
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: build([]))
    assert run(capsys, *argv) == got


def test_the_full_parser_names_a_missing_command(capsys):
    code, out, err = run(capsys)
    assert (code, out) == (2, "")
    assert err.endswith("\npavemat: error: the following arguments are required: command\n")


def test_a_call_builds_only_its_command_and_family():
    parser = cli.build_parser(["count", "grid", "--k", "3", "--l", "3"])
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == ["count"]
    (families,) = [a for a in commands.choices["count"]._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(families.choices) == ["grid", "lines"]
    assert "--k" in families.choices["grid"]._option_string_actions
    assert "--n" not in families.choices["lines"]._option_string_actions


@pytest.mark.parametrize(
    "argv, first_line",
    [
        ("decompose lines --n 10 --list", b"4010 components\n"),
        ("decompose lines --n 10", None),
        ("count grid --help", None),
    ],
)
def test_a_closed_reader_ends_the_call_quietly(argv, first_line):
    # exit 141, 128 + SIGPIPE, with nothing on stderr: once `head -1` has read
    # the first line of a listing far larger than a pipe's buffer, and when
    # the reader is gone before a buffered stdout first writes a count or help
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "pavemat.cli", *argv.split()],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    if first_line is not None:
        assert proc.stdout.readline() == first_line
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (141, b"")
