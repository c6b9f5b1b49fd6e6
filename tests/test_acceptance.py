"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import contextlib
import io
import random

from rootstrings.cartan import (
    INFINITY,
    CartanDatum,
    Parity,
    b_closed,
    b_recursive,
    d_sequence,
    pair_datum,
)
from rootstrings.cartanfile import parse_cartan, serialize_cartan
from rootstrings.cli import main
from rootstrings.field import FieldSpec
from rootstrings.reflection import RootVector, basis_determinant, reflect

from conftest import FIXTURES, GOLDEN, GOLDEN_CASES, with_fixture_paths
from oracles import sweep_pairs

GF2 = FieldSpec(2)
GF4 = FieldSpec(2, 2, (1, 1, 1))
GF9 = FieldSpec(3, 2, (1, 0, 1))
Q = FieldSpec(0)


def _report(num: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"[acceptance] criterion {num} ({title}): {status}{suffix}")
    assert ok, f"criterion {num} ({title}): {detail}"


def _sweep(spec):
    for parity, a_kk, a_kj in sweep_pairs(spec):
        yield pair_datum(spec, a_kk, a_kj, parity)


def test_criterion_1_prime_field_oracle_equivalence(capsys):
    cases = 0
    mismatches = 0
    for p in (2, 3, 5, 7, 11):
        for datum in _sweep(FieldSpec(p)):
            cases += 1
            if b_closed(datum, 1, 2) != b_recursive(datum, 1, 2):
                mismatches += 1
    with capsys.disabled():
        _report(1, "closed form = recursion on prime fields",
                cases == 416 and mismatches == 0,
                f"{cases} cases, {mismatches} mismatches")


def test_criterion_2_extension_field_oracle_equivalence(capsys):
    cases = 0
    mismatches = 0
    outside_even = 0   # hits of the "ratio outside the prime subfield" branches
    outside_odd = 0
    branches_ok = True
    for spec in (GF4, GF9):
        p = spec.characteristic
        for datum in _sweep(spec):
            cases += 1
            closed = b_closed(datum, 1, 2)
            if closed != b_recursive(datum, 1, 2):
                mismatches += 1
            a_kk, a_kj = datum.entry(1, 1), datum.entry(1, 2)
            if a_kk and a_kj and (a_kj / a_kk).in_prime_subfield() is None:
                if datum.parity(1) is Parity.EVEN:
                    outside_even += 1
                    branches_ok = branches_ok and closed == (3 if p == 2 else p - 1)
                else:
                    outside_odd += 1
                    branches_ok = branches_ok and closed == 2 * p - 1
    ok = (cases == 194 and mismatches == 0 and branches_ok
          and outside_even > 0 and outside_odd > 0)
    with capsys.disabled():
        _report(2, "closed form = recursion on GF(4) and GF(9)", ok,
                f"{cases} cases, {mismatches} mismatches, "
                f"{outside_even + outside_odd} outside-subfield cases")


def test_criterion_3_characteristic_2_even_table(capsys):
    checked = 0
    saw_b2 = saw_b3 = False
    ok = True
    for spec in (GF2, GF4):
        one = spec.one()
        for a_kj in spec.elements():
            datum = pair_datum(spec, one, a_kj, Parity.EVEN)
            seq = d_sequence(datum, 1, 2, 3)
            ok = ok and seq[0] == a_kj and seq[1] == one
            ok = ok and seq[2] == a_kj + one and not seq[3]
            b = b_closed(datum, 1, 2)
            if not a_kj:
                ok = ok and b == 0
            elif a_kj == one:
                ok = ok and b == 2
                saw_b2 = True
            else:
                ok = ok and b == 3
                saw_b3 = True
            ok = ok and b == b_recursive(datum, 1, 2)
            checked += 1
    ok = ok and saw_b2 and saw_b3
    with capsys.disabled():
        _report(3, "characteristic-2 even table", ok,
                f"{checked} cases over GF(2) and GF(4); B=2 and B=3 both observed")


def test_criterion_4_finiteness_bounds(capsys):
    ok = True
    checked = 0
    for p, spec in ((2, GF2), (3, FieldSpec(3)), (5, FieldSpec(5)),
                    (7, FieldSpec(7)), (11, FieldSpec(11)), (2, GF4), (3, GF9)):
        for datum in _sweep(spec):
            checked += 1
            parity = datum.parity(1)
            a_kk = datum.entry(1, 1)
            b = b_recursive(datum, 1, 2)
            ok = ok and b <= 2 * p - 1
            if parity is Parity.EVEN:
                ok = ok and b <= (3 if p == 2 else p - 1)
            if a_kk:
                seq = d_sequence(datum, 1, 2, 2 * p - 1)
                if parity is Parity.ODD:
                    ok = ok and not seq[2 * p - 1]
                elif p == 2:
                    ok = ok and not seq[3]
                else:
                    ok = ok and not seq[p - 1]
    with capsys.disabled():
        _report(4, "finiteness bounds and guaranteed zeros", ok,
                f"{checked} configurations")


def test_criterion_5_characteristic_zero_cross_check(capsys):
    ok = True
    for a_kj, expected in ((-1, 1), (-2, 2), (-3, 3)):
        datum = pair_datum(Q, 2, a_kj, Parity.EVEN)
        ok = ok and b_closed(datum, 1, 2) == expected
        ok = ok and b_recursive(datum, 1, 2) == expected
        seq = d_sequence(datum, 1, 2, expected)
        ok = ok and not seq[expected]
        ok = ok and all(seq[m] for m in range(expected))
    infinite = pair_datum(Q, 2, 1, Parity.EVEN)
    ok = ok and b_closed(infinite, 1, 2) == INFINITY
    seq = d_sequence(infinite, 1, 2, 1000)
    ok = ok and all(seq[m] for m in range(1001))
    with capsys.disabled():
        _report(5, "characteristic-0 classical strings", ok,
                "B = 1, 2, 3 and one certified infinite case scanned to m = 1000")


def test_criterion_6_reflection_structure(capsys):
    rng = random.Random(20260815)
    results = 0
    ok = True
    for _ in range(1000):
        p = rng.choice([2, 3, 5, 7])
        spec = FieldSpec(p)
        n = rng.randint(2, 4)
        built = CartanDatum.build(
            spec,
            [[rng.randrange(p) for _ in range(n)] for _ in range(n)],
            [rng.choice(["ev", "od"]) for _ in range(n)])
        datum = parse_cartan(serialize_cartan(built))   # extra I/O coverage
        ok = ok and datum == built
        for k in range(1, n + 1):
            result = reflect(datum, k)
            results += 1
            ok = ok and result.sigma[k - 1] == -RootVector.simple(n, k)
            for j in range(1, n + 1):
                if j == k:
                    continue
                delta = result.sigma[j - 1] - RootVector.simple(n, j)
                b = b_recursive(datum, k, j)
                ok = ok and delta == RootVector.simple(n, k).scaled(int(b))
            ok = ok and basis_determinant(result.basis_matrix) == -1
    with capsys.disabled():
        _report(6, "reflection structure on random data",
                ok and results >= 1000, f"{results} reflections checked")


def test_criterion_7_io_determinism(capsys):
    ok = True
    for golden_name, argv in GOLDEN_CASES:
        expected = (GOLDEN / golden_name).read_text()
        for _ in range(2):     # byte-identical across repeated runs
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main(with_fixture_paths(argv))
            ok = ok and code == 0 and buffer.getvalue() == expected
    fixtures = sorted(FIXTURES.glob("*.json"))
    for fixture in fixtures:
        datum = parse_cartan(fixture.read_text())
        ok = ok and parse_cartan(serialize_cartan(datum)) == datum
    with capsys.disabled():
        _report(7, "CLI golden outputs and parse/serialize identity", ok,
                f"{len(GOLDEN_CASES)} commands run twice, "
                f"{len(fixtures)} fixtures round-tripped")
