"""Repository-wide rules checked statically."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rootstrings"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so internal checks must raise instead
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
