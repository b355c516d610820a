"""Checks on the library source itself: what it asserts, what it defines,
what importing it loads, and how its record types behave."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pavemat import (
    ExtensionStep,
    GridLayout,
    LineArrangement,
    MinorGenerator,
    TameDecomposition,
    decompose_grid,
    forbidden_sizes,
    grid_matroid,
    partition_count_series,
    quasi_rep,
)
from pavemat.decomposition import Classification

SOURCE = Path(__file__).resolve().parent.parent / "src" / "pavemat"


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so checks must raise instead
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


BENCHMARK = SOURCE.parent.parent / "perfbench"

# Module-level names that no library module uses and that perfbench never
# names, each kept for the reason given: none.
TEST_ONLY_NAMES: dict[str, str] = {}

# The module-level names that no library module uses but perfbench does:
# its worker cross-checks each circuit export with them.
BENCHMARK_ONLY_NAMES = {"quasi.small_circuits", "quasi.type3_count"}


def test_every_library_name_has_a_library_or_benchmark_user():
    # A use is a load of the name in any library module other than the
    # re-exports of __init__, its own module included; perfbench names a
    # target by any mention, as its tracer wraps functions by their names.
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SOURCE.glob("*.py"))
        if path.stem != "__init__"
    }
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    named = {word for path in BENCHMARK.glob("*.py") for word in re.findall(r"\w+", path.read_text())}
    unused = {
        f"{module}.{node.name}": node.name
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in loaded
    }
    assert {qualified for qualified, name in unused.items() if name not in named} == set(TEST_ONLY_NAMES)
    assert set(unused) == BENCHMARK_ONLY_NAMES | set(TEST_ONLY_NAMES)


# Modules a CLI run has no use for: dataclasses pulls in inspect (and with it
# ast, dis and tokenize) and runs generated code for every class; fractions
# pulls in decimal.
STARTUP_FREE = ("dataclasses", "inspect", "fractions", "decimal")


def test_cli_import_loads_no_dataclasses_or_fractions():
    # a fresh interpreter without site, so that nothing but pavemat imports
    code = "import sys; sys.path.insert(0, sys.argv[1]); import pavemat.cli; print(sorted(set(sys.argv[2:]) & set(sys.modules)))"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SOURCE.parent), *STARTUP_FREE],
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout == "[]\n"


RECORDS = {
    "PavingMatroid": lambda: grid_matroid(4, 4),
    "QuasiRep": lambda: quasi_rep(6, 3, [[0, 1, 2], [3, 4, 5]]),
    "ExtensionStep": lambda: ExtensionStep(0, 0b110, (0, 1)),
    "TameDecomposition": lambda: TameDecomposition(grid_matroid(4, 4), tuple(range(16)), ()),
    "Classification": lambda: Classification("equals-base"),
    "ComponentReport": lambda: next(decompose_grid(4, 4).components),
    "DecompositionResult": lambda: decompose_grid(4, 4),
    "GridLayout": lambda: GridLayout(2, 3),
    "LineArrangement": lambda: LineArrangement(4),
    "MinorGenerator": lambda: MinorGenerator((0,), (1,)),
    "ForbiddenProfiles": lambda: forbidden_sizes({2, 3}),
    "TruncatedEGF": lambda: partition_count_series(forbidden_sizes({2, 3}), 4),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_truncated_egf_repr_leaves_out_its_counts():
    series = partition_count_series(forbidden_sizes({2, 3}), 4)
    assert repr(series) == "TruncatedEGF(bounds=(4,))"
