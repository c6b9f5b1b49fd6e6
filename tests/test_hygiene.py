"""Repository-wide rules checked statically."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rootstrings"


def package_trees():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in sources]


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so internal checks must raise instead
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path, tree in package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_the_standard_library():
    # the package is stdlib-only: test-time tools such as sympy or hypothesis
    # must never become runtime dependencies
    found = []
    for path, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}"
                      for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []
