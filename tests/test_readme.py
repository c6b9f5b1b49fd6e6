"""The README's Library example runs as written and shows what it returns."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_returns_what_its_comments_show():
    # each line that is an expression ends in a comment that starts with the
    # repr of its value; every other line, blank ones too, runs as it stands
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace, shown = {}, []
    for line in blocks[0].splitlines():
        code, _, comment = line.partition("#")
        statements = ast.parse(code).body
        if statements and isinstance(statements[0], ast.Expr):
            value = repr(eval(code, namespace))
            assert re.match(rf"{re.escape(value)}(,|$)", comment.strip()), (code, value)
            shown.append(value)
        else:
            exec(code, namespace)
    assert shown == ["BValue(5)", "BValue(5)",
                     "(RootVector(coords=(-1, 0)), RootVector(coords=(2, 1)))", "(0, 1)", "'t'"]
