#!/usr/bin/env python3
"""Mutation run over the two routes to a bound, the field's powers, the
document parser, the report renderer and its list builders, and the value
types' checks: show that the tests notice a wrong branch, a wrong step, a wrong
entry, a wrong text or a value that should have been refused.

Each mutant is a named one-line text substitution in one source file: the
closed-form ladder and the recursion of ``cartan.py``, its two places
where a datum's entries become coordinate tuples, and the checks of
``BValue`` and ``CartanDatum``; the places of ``selfcheck.py`` that order
the sweep, record a mismatch, compare the two routes and bound the sweep;
the square-and-multiply of ``field.py`` with the powers and Ben-Or's test
that use it, its coercion of a Fraction, and the checks of ``FieldSpec``
and ``FieldElement``; the entry memo, the row loop, the strict check, the
rational entries, the renderer's flat lists and the builders that mark
them, of ``cartanfile.py``; the bound row of ``cli.py``'s ``reflect``; and
the checks of ``reflection.py``'s ``RootVector``.
Each runs in its own temporary copy of the repository: first the test files
that ``FIRST_TESTS`` names for the mutated file under ``-x``, and, if those
pass, the whole suite under ``-x``.  A mutant is killed when a test fails (or the run passes its time
limit).  A mutant that survives the whole suite must carry a written reason
why it is equivalent to the source; an equivalent mutant that gets killed
means its reason is wrong.  Either exits 1, as does a mutant whose text no
longer occurs exactly once or that does not compile.

    python3 scripts/mutants.py

To look into one mutant, apply its substitution by hand and run pytest.

Stdlib and pytest only; about 2 to 5 seconds per killed mutant on a 2-core
x86_64 host, and a whole suite run (about 25 seconds) per equivalent one.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: What a test run reads: the package, the tests and their fixtures, the
#: scripts and the benchmark modules that some tests load, and the README,
#: whose Library example a test runs.
COPIED = ("src", "tests", "scripts", "bench", "pyproject.toml", "README.md")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
#: The test that each mutant's text occurs once in the source: a mutated
#: copy fails it by construction, so the runs leave it out.
DRIFT_TEST = "tests/test_scripts.py::test_each_mutant_names_text_found_once_in_the_current_source"
#: Seconds before a hung run counts as killed: about five times the whole
#: suite, so two hung mutants still leave the CI job time to report them.
TIME_LIMIT = 120

CARTAN = "src/rootstrings/cartan.py"
SELFCHECK = "src/rootstrings/selfcheck.py"
FIELD = "src/rootstrings/field.py"
CARTANFILE = "src/rootstrings/cartanfile.py"
CLI = "src/rootstrings/cli.py"
REFLECTION = "src/rootstrings/reflection.py"
#: The tests that run first against a mutant of each file, the quickest to
#: kill one.
FIRST_TESTS = {
    CARTAN: ("tests/test_cartan.py", "tests/test_selfcheck.py"),
    SELFCHECK: ("tests/test_cartan.py", "tests/test_selfcheck.py"),
    FIELD: ("tests/test_field.py", "tests/test_gf_oracle.py", "tests/test_values.py"),
    CARTANFILE: ("tests/test_cartanfile.py",),
    CLI: ("tests/test_cli.py",),
    REFLECTION: ("tests/test_reflection.py", "tests/test_values.py"),
}


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    #: Why the mutant cannot change an answer, for one that survives.
    equivalent: str | None = None


MUTANTS = [
    # the closed-form ladder, one rule per row
    Mutant("branch-2-parities-swapped", CARTAN,
           "other = (p - 1 if p else None) if even else 1",
           "other = 1 if even else (p - 1 if p else None)"),
    Mutant("branch-2-infinity-as-0", CARTAN,
           "(p - 1 if p else None)", "(p - 1 if p else 0)"),
    Mutant("branch-2-without-the-zero-test", CARTAN,
           "[other if any(kj) else 0 for kj in kjs]", "[other for kj in kjs]"),
    Mutant("branch-3-keys-swapped", CARTAN,
           "{(0,) * len(kk): 0, kk: 2}", "{(0,) * len(kk): 2, kk: 0}"),
    Mutant("branch-3-default-2", CARTAN,
           "itertools.repeat(3)", "itertools.repeat(2)"),
    Mutant("branch-3-equal-gives-3", CARTAN,
           "kk: 2}", "kk: 3}"),
    Mutant("branch-3-without-the-zero-key", CARTAN,
           "{(0,) * len(kk): 0, kk: 2}", "{kk: 2}"),
    Mutant("branch-4-parities-swapped", CARTAN,
           "independent = p - 1 if even else 2 * p - 1",
           "independent = 2 * p - 1 if even else p - 1"),
    Mutant("odd-branch-5-as-minus-2c", CARTAN,
           "s, t = (2, 1) if even else (1, 2)", "s, t = (2, 1) if even else (2, 1)"),
    Mutant("rationals-infinity-as-0", CARTAN,
           "[None if rest or m < 0 else t * m", "[0 if rest or m < 0 else t * m"),
    Mutant("rationals-without-the-remainder-test", CARTAN,
           "[None if rest or m < 0 else t * m", "[None if m < 0 else t * m"),
    Mutant("rationals-m-0-infinite", CARTAN,
           "rest or m < 0", "rest or m <= 0"),
    Mutant("degree-1-rule-removed", CARTAN,
           "if len(kk) == 1:", "if False:"),
    Mutant("degree-1-ratio-sign-flipped", CARTAN,
           "ratio = -s * inv % p", "ratio = s * inv % p"),
    # any nonzero coordinate gives the same answers, but a short row's table
    # has as many keys as the row has distinct values at that coordinate
    Mutant("points-keyed-on-the-last-nonzero-coordinate", CARTAN,
           "i = next(i for i, b in enumerate(kk) if b)",
           "i = max(i for i, b in enumerate(kk) if b)"),
    Mutant("all-points-from-more-than-p-entries", CARTAN,
           "p <= len(kjs)", "p < len(kjs)"),
    Mutant("all-points-for-every-row", CARTAN,
           "if p <= len(kjs)", "if True"),
    Mutant("occurring-points-from-coordinate-0", CARTAN,
           "{kj[i] for kj in kjs}", "{kj[0] for kj in kjs}"),
    Mutant("points-without-the-inverse", CARTAN,
           "x * inv * b % p", "x * b % p"),
    Mutant("table-without-its-default", CARTAN,
           "list(map(bound_of.get, kjs, itertools.repeat(independent)))",
           "list(map(bound_of.get, kjs))"),
    Mutant("table-sign-flipped", CARTAN,
           "[t * (x * ratio % p) for x in xs]", "[t * (-x * ratio % p) for x in xs]"),
    Mutant("table-columns-reversed", CARTAN,
           "points = zip(*[[x * inv * b % p for x in xs] for b in kk])",
           "points = zip(*[[x * inv * b % p for x in xs] for b in kk[::-1]])"),
    # the two places where a datum's entries become coordinates: _pair for
    # one entry, _row_ints for a row
    Mutant("pair-reads-the-column-diagonal", CARTAN,
           "datum.coords[k - 1][k - 1]", "datum.coords[j - 1][j - 1]"),
    Mutant("pair-reads-a-jk", CARTAN,
           "datum._coords_at(k, j)", "datum._coords_at(j, k)"),
    Mutant("pair-reads-the-column-parity", CARTAN,
           "return datum.parities[k - 1], ", "return datum.parities[j - 1], "),
    Mutant("entry-index-check-skips-j", CARTAN,
           "if not 1 <= k <= n or not 1 <= j <= n:", "if not 1 <= k <= n:"),
    Mutant("row-ints-reads-the-row-above", CARTAN,
           "list(datum.coords[k - 1])", "list(datum.coords[k - 2])"),
    Mutant("row-ints-reads-the-first-diagonal", CARTAN,
           "kk = kjs.pop(k - 1)", "kk = kjs[0]; del kjs[k - 1]"),
    Mutant("b-row-keeps-the-diagonal", CARTAN,
           "kk = kjs.pop(k - 1)", "kk = kjs[k - 1]"),
    Mutant("b-row-diagonal-one-column-right", CARTAN,
           "out.insert(k - 1, None)", "out.insert(k, None)"),
    # b_recursive: its bound is the shared one, and a scan that misses at
    # p = 0 is settled by the ladder
    Mutant("scan-miss-refuses-an-infinite-bound", CARTAN,
           "if closed is not None:", "if closed is None:"),
    Mutant("b-recursive-answers-infinity", CARTAN,
           "return _shared_bound(m)", "return _shared_bound(None)"),
    # the recursion: one step on ints, its first-zero table and the row walk
    Mutant("step-adds-a-kj", CARTAN,
           "(d - c) % p if p else d - c", "(d + c) % p if p else d + c"),
    Mutant("odd-step-adds-a-kj", CARTAN,
           "(c - d) % p if p else c - d", "(-c - d) % p if p else -c - d"),
    Mutant("step-unreduced-at-p-2", CARTAN,
           "(d - c) % p if p else", "(d - c) % p if p > 2 else"),
    Mutant("odd-step-unreduced-at-p-2", CARTAN,
           "(c - d) % p if p else", "(c - d) % p if p > 2 else"),
    Mutant("step-walks-down", CARTAN,
           "count(c, a)", "count(c, -a)"),
    Mutant("walk-skips-step-0", CARTAN,
           "count(c, a)", "count(c + a, a)"),
    Mutant("walk-starts-from-d-1", CARTAN,
           "d, cs = 0, ", "d, cs = 1, "),
    Mutant("parity-branch-inverted", CARTAN,
           "if sign > 0:", "if sign < 0:"),
    Mutant("odd-step-as-even-at-p", CARTAN,
           "(c - d) % p if p", "(d - c) % p if p"),
    Mutant("odd-step-as-even-over-q", CARTAN,
           "if p else c - d", "if p else d - c"),
    Mutant("walk-drops-a-coordinate", CARTAN,
           "for a, c in zip(kk, kj)]", "for a, c in zip(kk[:1], kj)]"),
    Mutant("first-zero-one-step-short", CARTAN,
           "islice(steps, last + 1)", "islice(steps, last)"),
    Mutant("d-sequence-one-step-short", CARTAN,
           "spec.characteristic, kk, kj)), last + 1)", "spec.characteristic, kk, kj)), last)"),
    Mutant("walk-coordinates-swapped", CARTAN,
           "zip(kk, kj)", "zip(kj, kk)"),
    Mutant("scale-only-a-kk", CARTAN,
           "int(c * scale)", "int(c)"),
    Mutant("scale-from-a-kk-alone", CARTAN,
           "for x in kk + kj", "for x in kk"),
    Mutant("scale-as-a-product", CARTAN,
           "math.lcm(*(x.denominator for x in kk + kj))",
           "math.prod(x.denominator for x in kk + kj)",
           equivalent="any common multiple L of the denominators makes L * A_kj and L * A_kk "
                      "ints, and L * d_m vanishes where d_m does"),
    Mutant("zero-test-of-one-coordinate", CARTAN,
           "(zip(*walk), (0,) * len(walk))", "(zip(*walk), (0,))"),
    Mutant("degree-1-zero-test-against-1", CARTAN,
           "(walk[0], 0)", "(walk[0], 1)"),
    Mutant("d-sequence-not-divided", CARTAN,
           "fraction(d, scale)", "fraction(d, 1)"),
    Mutant("zero-table-walks-swapped", CARTAN,
           "(0, 1), (1, 0))", "(1, 0), (0, 1))"),
    Mutant("zero-table-one-step-short", CARTAN,
           "_last_step(p) + 1))", "_last_step(p)))"),
    Mutant("stop-where-beta-vanishes", CARTAN,
           "if step == (0, 0)", "if step[1] == 0"),
    Mutant("flat-skips-m-0", CARTAN,
           "if not alpha), None)", "if not alpha and m), None)"),
    Mutant("walk-past-stop", CARTAN,
           "enumerate(steps[:stop])", "enumerate(steps)"),
    Mutant("last-m-wins", CARTAN,
           "first.setdefault(-beta * pow(alpha, -1, p) % p, m)",
           "first[-beta * pow(alpha, -1, p) % p] = m"),
    Mutant("zero-table-ascending", CARTAN,
           "dict(reversed(first.items()))", "dict(first.items())"),
    Mutant("row-walk-columns-reversed", CARTAN,
           "[[c * b % p for c in first] for b in kk]", "[[c * b % p for c in first] for b in kk[::-1]]"),
    Mutant("row-walk-stop-and-flat-swapped", CARTAN,
           "rest = stop if any(kk) else flat", "rest = flat if any(kk) else stop"),
    Mutant("row-walk-without-its-miss-check", CARTAN,
           "if rest is None and None in zeros:", "if False:"),
    Mutant("row-walk-names-the-first-entry", CARTAN,
           "kjs[zeros.index(None)]", "kjs[0]"),
    Mutant("missed-zero-names-a-kj-twice", CARTAN,
           "({parity.value}, {list(kk)}, {list(kj)})", "({parity.value}, {list(kj)}, {list(kj)})"),
    # selfcheck: the sweep's entries, the comparison of the two routes and
    # the case limit
    Mutant("sweep-order-reversed", SELFCHECK,
           "product(range(p), repeat", "product(range(p)[::-1], repeat"),
    Mutant("mismatch-names-a-kj-as-a-kk", SELFCHECK,
           '"a_kk": list(kk)', '"a_kk": list(kj)'),
    Mutant("fast-path-without-the-ceiling", SELFCHECK,
           "if closed == recursive and max(recursive) <= ceiling:", "if closed == recursive:"),
    Mutant("fast-path-counts-the-ladder", SELFCHECK,
           "b_counts.update(recursive)", "b_counts.update(closed)",
           equivalent="the fast path is taken only when the two lists are equal"),
    Mutant("case-limit-inclusive", SELFCHECK,
           "if cases > MAX_CASES:", "if cases >= MAX_CASES:"),
    Mutant("case-limit-counts-q", SELFCHECK,
           "characteristic ** (2 * d)", "characteristic ** d"),
    # cartanfile: the memo's one kind of key per document, and the rational
    # entries
    Mutant("by-value-keys-admit-bool", CARTANFILE,
           "if types <= {int, str}:", "if types <= {int, str, bool}:"),
    Mutant("list-keys-read-a-bool-coordinate-as-an-int", CARTANFILE,
           "<= {int}):", "<= {int, bool}):"),
    # same answers, but a document of int lists must build no repr
    Mutant("int-list-keys-as-repr", CARTANFILE,
           "key = tuple", "key = repr"),
    # cartanfile: the row loop, which parses each missing value in column
    # order and names a bad one by its place, and the strict check
    Mutant("row-loop-numbers-rows-from-0", CARTANFILE,
           "enumerate(matrix, 1)", "enumerate(matrix)"),
    Mutant("row-loop-numbers-columns-from-0", CARTANFILE,
           "enumerate(zip(keys, row), 1)", "enumerate(zip(keys, row))"),
    Mutant("row-loop-reparses-every-cell", CARTANFILE,
           "if cell not in memo:", "if True:"),
    Mutant("row-loop-keys-on-the-raw-row", CARTANFILE,
           "keys = row if key is None else list(map(key, row))", "keys = row"),
    Mutant("strict-check-off", CARTANFILE,
           "if strict and ", "if False and "),
    Mutant("strict-check-reads-the-padding", CARTANFILE,
           "[:len(given)]", "[:len(given) + 1]"),
    Mutant("rational-integer-string-halved", CARTANFILE,
           "int(den or 1)", "int(den or 2)"),
    Mutant("rational-numerator-abs", CARTANFILE,
           "int(num), ", "abs(int(num)), "),
    # cartanfile: the renderer's text memo, one per document, of the flat
    # lists that the list builders mark, and the builders themselves: the
    # table report's "inf" and its diagonal null, and the marks
    Mutant("render-memo-for-every-list", CARTANFILE,
           "if type(value) is Scalars:", "if isinstance(value, list):"),
    Mutant("render-memo-keeps-non-ascii", CARTANFILE,
           'json.JSONEncoder(separators=("\\n", ": "))',
           'json.JSONEncoder(separators=("\\n", ": "), ensure_ascii=False)'),
    Mutant("render-memo-shared-across-documents", CARTANFILE,
           "_render(doc, 1, out, {})", "_render(doc, 1, out, _render.__dict__)"),
    Mutant("render-join-one-step-out", CARTANFILE,
           '("," + inner).join(map(', '(",\\n" + "  " * (depth - 1)).join(map('),
    Mutant("render-miss-without-the-update", CARTANFILE,
           "texts.update(zip(value, items))", "zip(value, items)"),
    Mutant("render-miss-drops-a-character", CARTANFILE,
           "[1:-1].split(", "[2:-1].split("),
    Mutant("render-miss-opens-without-a-newline", CARTANFILE,
           'out += ("[", inner, ("," + inner).join(items))', 'out += ("[", ("," + inner).join(items))'),
    Mutant("bound-row-drops-inf", CARTANFILE,
           "if None in bounds else", "if False else"),
    Mutant("bound-row-diagonal-one-column-right", CARTANFILE,
           "row.insert(k - 1, None)", "row.insert(k, None)"),
    Mutant("bound-row-unmarked", CARTANFILE,
           'row = Scalars(["inf"', 'row = list(["inf"'),
    Mutant("int-rows-unmarked", CARTANFILE,
           "list(map(Scalars, rows))", "list(map(list, rows))"),
    Mutant("entry-list-unmarked-at-degree-1", CARTANFILE,
           "return Scalars(c for c, in coords)", "return list(c for c, in coords)"),
    Mutant("parity-labels-unmarked", CARTANFILE,
           "return Scalars(q.value for q in parities)", "return [q.value for q in parities]"),
    # cli: reflect's b_row, whose diagonal the builder puts back at k
    Mutant("reflect-b-row-diagonal-at-1", CLI,
           "if b is not None], args.k)", "if b is not None], 1)"),
    # field: a Fraction enters the rationals as it is
    Mutant("element-rebuilds-a-fraction", FIELD,
           "(value if type(value) is fraction else fraction(value),)", "(fraction(value),)"),
    # field: the one square-and-multiply, the powers and Ben-Or's test.
    # _poly_mod's p - 2 is left alone: p - 1 hangs the gcd loop until the
    # time limit
    Mutant("pow-repeats-the-leading-bit", FIELD,
           "for bit in bin(e)[3:]:", "for bit in bin(e)[2:]:"),
    Mutant("pow-multiplies-on-zero-bits", FIELD,
           'if bit == "1":', 'if bit == "0":'),
    Mutant("pow-0-is-the-base", FIELD,
           "h = list(base) if e else [1]", "h = list(base)"),
    Mutant("negative-power-mod-q-2", FIELD,
           "exponent %= spec.order - 1", "exponent %= spec.order - 2"),
    Mutant("zero-to-a-negative-power-allowed", FIELD,
           "if exponent < 0 and not self:", "if False:"),
    Mutant("prime-field-power-mod-1", FIELD,
           "p or None", "p or 1"),
    Mutant("ben-or-one-round-short", FIELD,
           "range((len(coeffs) - 1) // 2)", "range((len(coeffs) - 1) // 2 - 1)"),
    Mutant("ben-or-tests-h-plus-x", FIELD,
           "b[1] = (b[1] - 1) % p", "b[1] = (b[1] + 1) % p"),
    Mutant("ben-or-accepts-a-linear-gcd", FIELD,
           "if len(a) > 1:", "if len(a) > 2:"),
    # the value types' constructor checks, each refusal in its place
    Mutant("bvalue-admits-minus-1", CARTAN,
           "if value < 0:", "if value < -1:"),
    Mutant("datum-admits-rank-0", CARTAN,
           "if n == 0:", "if n < 0:"),
    Mutant("datum-admits-a-foreign-entry", CARTAN,
           "entry.spec != spec", "entry.spec == spec"),
    Mutant("root-admits-bool", REFLECTION,
           "set(map(type, coords)) <= {int}", "set(map(type, coords)) <= {int, bool}"),
    Mutant("spec-admits-a-q-extension", FIELD,
           "if p == 0 and k != 1:", "if False:"),
    Mutant("spec-admits-a-degree-1-modulus", FIELD,
           "if modulus is not None:", "if False:"),
    Mutant("spec-admits-a-long-modulus", FIELD,
           "len(modulus) != k + 1", "len(modulus) < k + 1"),
    Mutant("spec-admits-a-non-monic-modulus", FIELD,
           "modulus[-1] != 1", "not modulus[-1]"),
    Mutant("element-admits-p", FIELD,
           "or not 0 <= c < p:", "or not 0 <= c <= p:"),
]


def check(mutants) -> list[str]:
    """What is wrong with the list itself: a repeated name, a substitution
    that spans lines or changes nothing, a file without ``FIRST_TESTS``, a
    text that does not occur exactly once in its file, a mutated file that
    does not compile."""
    problems = []
    names = [m.name for m in mutants]
    problems += [f"{n}: name listed more than once" for n in sorted(set(names)) if names.count(n) > 1]
    for m in mutants:
        source = (ROOT / m.path).read_text(encoding="utf-8")
        if m.path not in FIRST_TESTS:
            problems.append(f"{m.name}: no first tests for {m.path}")
        elif "\n" in m.old or "\n" in m.new or m.old == m.new:
            problems.append(f"{m.name}: not a one-line substitution")
        elif source.count(m.old) != 1:
            problems.append(f"{m.name}: text occurs {source.count(m.old)} times in {m.path}")
        else:
            try:
                compile(source.replace(m.old, m.new), m.path, "exec")
            except SyntaxError as error:
                problems.append(f"{m.name}: does not compile: {error}")
    return problems


def first_failure(tree: Path, *tests: str) -> str | None:
    """The first test that fails under -x in the copy at ``tree``, or the
    test module that errors while it is collected (``-rfE`` reports both),
    "time limit" for a run that passes ``TIME_LIMIT``, or None if all pass."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
               "--deselect", DRIFT_TEST, *tests]
    try:
        run = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                             timeout=TIME_LIMIT)
    except subprocess.TimeoutExpired:
        return "time limit"
    if run.returncode == 0:
        return None
    failed = [line.split()[1] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit {run.returncode}"


def run(mutant: Mutant) -> tuple[str | None, float]:
    """The first test that kills ``mutant`` (None if it survives), and the
    seconds taken."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=IGNORED)
            else:
                shutil.copy2(source, tree / name)
        target = tree / mutant.path
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                          encoding="utf-8")
        killer = first_failure(tree, *FIRST_TESTS[mutant.path]) or first_failure(tree)
    return killer, time.perf_counter() - start


def main() -> int:
    problems = check(MUTANTS)
    for problem in problems:
        print(f"error: {problem}")
    if problems:
        return 1
    bad = 0
    for m in MUTANTS:
        killer, seconds = run(m)
        if killer is None and m.equivalent:
            line = f"equivalent  {m.name}: {m.equivalent}"
        elif killer is None:
            bad += 1
            line = f"SURVIVED  {m.name}"
        elif m.equivalent:
            bad += 1
            line = f"KILLED, LISTED AS EQUIVALENT  {m.name} by {killer}"
        else:
            line = f"killed  {m.name} by {killer}"
        print(f"{line}  ({seconds:.1f} s)", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} unexplained")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
