"""Repository-wide rules: static checks on the package, and the hold the
benchmark tracer keeps on its public names."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rootstrings.cartan
import rootstrings.cli
import rootstrings.field

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rootstrings"
FIXTURES = ROOT / "tests" / "fixtures"


#: Modules whose import costs a cold CLI start milliseconds: dataclasses pulls
#: in inspect (and with it ast, dis and tokenize), and annotations are never
#: evaluated, so typing serves nothing at run time.
HEAVY_IMPORTS = ("dataclasses", "inspect", "typing")
#: Modules that a finite-field request leaves unloaded: the CLI reads argv
#: itself, so argparse and with it gettext and locale stay out, and only
#: characteristic 0 needs fractions, which brings decimal.
LAZY_IMPORTS = ("argparse", "gettext", "locale", "fractions", "decimal")


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


def reads_an_optimization_flag(node: ast.AST) -> bool:
    """Whether ``node`` reads __debug__, a __doc__ or sys.flags."""
    if isinstance(node, ast.Name):
        return node.id in ("__debug__", "__doc__")
    if isinstance(node, ast.Attribute):
        return node.attr == "__doc__" or (
            node.attr == "flags" and isinstance(node.value, ast.Name) and node.value.id == "sys")
    if isinstance(node, ast.ImportFrom):
        return node.module == "sys" and any(alias.name == "flags" for alias in node.names)
    return False


def test_package_never_reads_debug():
    # python -O sets __debug__ to False and sys.flags.optimize to 1, and -OO
    # also drops every docstring, so __doc__ reads None; with no assert
    # statement either, no code path of the package can differ under -O or -OO
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path, tree in package_trees()
             for node in ast.walk(tree)
             if reads_an_optimization_flag(node)]
    assert found == []


@pytest.mark.parametrize("source", [
    "x = __debug__", "x = __doc__", "x = f.__doc__", "x = sys.flags.optimize",
    "from sys import flags"])
def test_optimization_flag_reads_are_seen(source):
    assert any(map(reads_an_optimization_flag, ast.walk(ast.parse(source))))


def package_imports():
    """(place, module, whether the import runs when the module is imported)
    for every absolute import in the package."""
    for path, tree in package_trees():
        in_functions = {id(inner) for node in ast.walk(tree)
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            yield from ((f"{path.relative_to(PACKAGE)}:{node.lineno}", name,
                         id(node) not in in_functions) for name in names)


def test_package_imports_only_the_standard_library():
    # the package is stdlib-only: test-time tools such as sympy or hypothesis
    # must never become runtime dependencies
    found = [f"{where}: {name}" for where, name, _ in package_imports()
             if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_package_imports_no_heavy_module():
    found = [f"{where}: {name}" for where, name, _ in package_imports()
             if name.split(".")[0] in HEAVY_IMPORTS]
    assert found == []


def test_package_imports_argparse_nowhere_and_fractions_only_in_a_function():
    found = [f"{where}: {name}" for where, name, eager in package_imports()
             if name == "argparse" or name == "fractions" and eager]
    assert found == []
    assert [name for _, name, _ in package_imports()].count("fractions") == 1


def test_cli_import_loads_no_heavy_module():
    # -S keeps site's .pth hooks, which may import typing themselves, out of
    # the child, so only the package and the stdlib it needs are loaded
    unwanted = (*HEAVY_IMPORTS, *LAZY_IMPORTS)
    code = ("import sys, rootstrings.cli; "
            f"print(' '.join(m for m in {unwanted!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                           capture_output=True, text=True, check=True)
    assert child.stdout.split() == []


@pytest.mark.parametrize("fixture", ["prime.json", "extension.json", "char0.json"])
def test_cli_request_loads_only_what_it_uses(fixture):
    # -X importtime lists the modules the run imports, the package's and
    # runpy's included, so this reads what a whole -m request loads
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "rootstrings",
                            "table", "--input", str(FIXTURES / fixture)],
                           env=env, capture_output=True, text=True, check=True)
    loaded = {line.rsplit("|", 1)[1].strip() for line in child.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"rootstrings", "rootstrings.cli"} <= loaded
    unwanted = set(LAZY_IMPORTS)
    if fixture == "char0.json":
        assert "fractions" in loaded
        unwanted -= {"fractions", "decimal"}
    assert sorted(unwanted & loaded) == []


def test_no_json_call_in_the_package_indents():
    # any indent sends json to its pure-Python encoder; reports are indented
    # by cartanfile.render_document, which encodes each distinct scalar of a
    # document once, with the C encoder, and joins flat lists from those texts
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path, tree in package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords)]
    assert found == []


#: The route functions of cartan.py: each takes the characteristic and
#: coordinate tuples laid out like FieldElement.coeffs, never an element.
ROUTES = ("_walk", "_scale", "_first_zero", "_missed_zero", "_zero_table", "_row_walk",
          "_row_ladder")


def test_the_routes_read_no_field_element():
    # only _pair and _row_ints unwrap a datum's elements; below them a route
    # reads no .coeffs or .spec and names no FieldElement, not even in an
    # annotation, so coordinates are the routes' one entry form
    tree = ast.parse((PACKAGE / "cartan.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = [f"{name}:{node.lineno}" for name in ROUTES for node in ast.walk(functions[name])
             if isinstance(node, ast.Attribute) and node.attr in ("coeffs", "spec")
             or isinstance(node, ast.Name) and node.id == "FieldElement"]
    assert found == []


def test_the_recursion_step_is_entered_only_through_walk():
    tree = ast.parse((PACKAGE / "cartan.py").read_text())
    walk = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_walk")

    def named(root):
        return [node.lineno for node in ast.walk(root)
                if isinstance(node, ast.Name) and node.id == "_walk_coordinate"]

    assert named(walk)
    assert sorted(named(tree)) == sorted(named(walk))


def test_value_types_fill_their_fields_once():
    # each value type checks its arguments and then calls _fill once, so no
    # field is written after it: object.__setattr__ lives in frozen.py only.
    # FieldElement alone keeps a __post_init__, holding its checks, because
    # bench/tracing.py and the elements_built fixture wrap that hook to count
    # validated constructions
    setattrs = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                for path, tree in package_trees() if path.name != "frozen.py"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert setattrs == []
    hooks = [f"{path.relative_to(PACKAGE)}:{node.name}"
             for path, tree in package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for item in node.body
             if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"]
    assert hooks == ["field.py:FieldElement"]


def test_bench_tracer_installs_on_the_package():
    # the benchmark tracer wraps package functions by name: a rename under
    # src/ must fail here, not only in the traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    b_closed = rootstrings.cartan.b_closed
    post_init = rootstrings.field.FieldElement.__dict__["__post_init__"]
    tracer = tracing.Tracer()
    spec = rootstrings.field.FieldSpec(7)
    try:
        tracer.install()
        assert rootstrings.cartan.b_closed is not b_closed
        assert rootstrings.field.FieldElement.__dict__["__post_init__"] is not post_init
        # field.elements_built counts validated constructions: the public
        # constructor makes one, the trusted path behind spec.element none
        built = tracer.counts["elements_built"]
        rootstrings.field.FieldElement(spec, (1,))
        assert tracer.counts["elements_built"] == built + 1
        spec.element(1)
        assert tracer.counts["elements_built"] == built + 1
    finally:
        tracer.uninstall()
    assert rootstrings.cartan.b_closed is b_closed
    assert rootstrings.field.FieldElement.__dict__["__post_init__"] is post_init
