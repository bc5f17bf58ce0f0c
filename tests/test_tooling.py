"""Source-tree rules that keep invariant checks alive under ``python -O``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hemisystems"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so every check in the package must
    # raise explicitly to keep running in optimized mode
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []
