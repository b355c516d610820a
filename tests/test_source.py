"""Checks on the library source itself."""

import ast
import re
from pathlib import Path

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
# names, each kept for the reason given.
TEST_ONLY_NAMES = {
    "core.uniform": "U(n, d), the matroid a listed component is classified against",
    "families.ci_matroid": "the paper's CI matroid, whose generators ci-generators exports",
    "io.quasi_to_dict": "the writer paired with quasi_from_dict, which matroid quasi and decompose-to-tame read",
}


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
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in loaded
        and node.name not in named
    }
    assert unused == set(TEST_ONLY_NAMES)
