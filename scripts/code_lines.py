#!/usr/bin/env python3
"""Count the code lines of the package, per module and in total.

A code line is a line of ``src/rootstrings/*.py`` that holds at least one
token other than a comment and is not part of a docstring (the first
statement of a module, class or function, when it is a string).  Blank
lines and comment-only lines do not count; a string that spans several
lines counts each of them unless it is a docstring.

    python3 scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rootstrings"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in PACKAGE.glob("*.py")}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:>12}  {count:>5}")
    print(f"{'total':>12}  {sum(counts.values()):>5}")


if __name__ == "__main__":
    main()
