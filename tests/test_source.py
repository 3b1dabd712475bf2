"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polycount"


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so invariants must raise InvariantError instead
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources found under {SRC}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
