import itertools
import sys

import pytest

from rootstrings import cartan, field
from rootstrings.cartan import CartanDatum, ConsistencyError
from rootstrings.field import FieldSpec
from rootstrings.selfcheck import check_field, field_for, find_irreducible, run_selfcheck


def _count_calls(monkeypatch, original):
    """Replace ``original`` in every rootstrings namespace by a counting wrapper."""
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "rootstrings" or name.startswith("rootstrings."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("p,degree,modulus", [
    (2, 2, (1, 1, 1)),
    (3, 2, (1, 0, 1)),
    (2, 3, (1, 0, 1, 1)),
    (5, 2, (1, 1, 1)),
    (3, 3, (1, 0, 2, 1)),
])
def test_each_candidate_modulus_tested_once(monkeypatch, p, degree, modulus):
    calls = _count_calls(monkeypatch, field.check_irreducible)
    # candidates run in lexicographic order, the constant term most significant
    tried = 1 + sum(c * p ** (degree - 1 - i) for i, c in enumerate(modulus[:-1]))
    assert field_for(p, degree).modulus == modulus
    assert len(calls) == tried
    assert find_irreducible(p, degree) == modulus
    assert len(calls) == 2 * tried


def test_find_irreducible_needs_degree_two():
    with pytest.raises(ValueError):
        find_irreducible(3, 1)
    with pytest.raises(ValueError):
        find_irreducible(4, 2)


def test_find_irreducible_beyond_field_spec_degrees():
    # FieldSpec stops at MAX_EXTENSION_DEGREE; the modulus search does not
    assert field.MAX_EXTENSION_DEGREE < 9
    assert find_irreducible(2, 9) == (1, 0, 0, 0, 0, 0, 0, 0, 1, 1)
    with pytest.raises(field.FieldSpecError) as excinfo:
        field_for(2, 9)
    assert excinfo.value.code == "bad-extension"


@pytest.mark.parametrize("spec", [FieldSpec(3), FieldSpec(3, 2, (1, 0, 1)), FieldSpec(7)], ids=str)
def test_check_field_builds_one_ladder_per_row_and_no_datum(spec, monkeypatch):
    expected = check_field(spec)
    ladders = []

    def counting_ladder(parity, a_kk):
        ladders.append((parity, a_kk.coeffs))
        return cartan._row_ladder(parity, a_kk)

    data = []
    original = CartanDatum.__post_init__

    def counting_datum(self):
        data.append(self)
        original(self)

    monkeypatch.setattr("rootstrings.selfcheck._row_ladder", counting_ladder)
    monkeypatch.setattr(CartanDatum, "__post_init__", counting_datum)
    assert check_field(spec) == expected
    assert len(ladders) == len(set(ladders)) == 2 * spec.order
    assert data == []


def test_a_walk_that_misses_its_zero_raises_on_both_routes(monkeypatch):
    # no step of the faulty walk vanishes; _first_zero alone decides that the
    # zero guaranteed by m = 2p - 1 is missing, for b_recursive and check_field
    monkeypatch.setattr(cartan, "_walk", lambda a_kj, a_kk, parity: itertools.repeat((1,)))
    datum = cartan.pair_datum(FieldSpec(3), 2, 1, cartan.Parity.ODD)
    with pytest.raises(ConsistencyError, match=r"up to m = 5 at \(i_k, A_kk, A_kj\) = \(od, 2, 1\)"):
        cartan.b_recursive(datum, 1, 2)
    with pytest.raises(ConsistencyError, match="up to m = 5"):
        check_field(FieldSpec(3))


@pytest.mark.parametrize("primes,degrees,message", [
    ([3, 3], [1], "prime 3 is listed more than once"),
    ([2, 3], [1, 2, 1], "degree 1 is listed more than once"),
])
def test_repeated_prime_or_degree_refused_before_any_sweep(monkeypatch, primes, degrees, message):
    swept = _count_calls(monkeypatch, check_field)
    with pytest.raises(ValueError, match=message):
        run_selfcheck(primes, degrees)
    assert swept == []
