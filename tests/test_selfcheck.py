import itertools

import pytest

from rootstrings import cartan, field
from rootstrings.cartan import CartanDatum, ConsistencyError
from rootstrings.field import FieldSpec
from rootstrings.selfcheck import check_field, field_for, find_irreducible, run_selfcheck

from oracles import irreducible_by_trial_division


@pytest.mark.parametrize("p,degree,modulus", [
    (2, 2, (1, 1, 1)),
    (3, 2, (1, 0, 1)),
    (2, 3, (1, 0, 1, 1)),
    (5, 2, (1, 1, 1)),
    (3, 3, (1, 0, 2, 1)),
])
def test_each_candidate_modulus_tested_once(count_calls, p, degree, modulus):
    calls = count_calls(field._ben_or)
    # candidates run in lexicographic order, the constant term most significant,
    # from the first one whose constant term is not 0, n = p^(degree - 1)
    n = sum(c * p ** (degree - 1 - i) for i, c in enumerate(modulus[:-1]))
    tried = n - p ** (degree - 1) + 1
    assert field_for(p, degree).modulus == modulus
    assert len(calls) == tried
    assert find_irreducible(p, degree) == modulus
    assert len(calls) == 2 * tried
    assert all(candidate[0] != 0 for candidate, _ in calls)
    assert len({candidate for candidate, _ in calls}) == tried


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("degree", [2, 3, 4])
def test_skipping_constant_term_zero_keeps_the_first_irreducible(p, degree):
    # the full lexicographic order, constant term 0 included, decided by brute force
    first = next(tail + (1,) for tail in itertools.product(range(p), repeat=degree)
                 if irreducible_by_trial_division(tail + (1,), p))
    assert field_for(p, degree).modulus == first


def test_selfcheck_over_gf_32_decides_each_fact_once(count_calls):
    # the modulus 1 + t^3 + t^5 is the third candidate whose constant term is 1
    primality = count_calls(field.is_prime)
    searched = count_calls(field._ben_or)
    assert run_selfcheck([2], [5])["ok"]
    assert primality == [(2,)]
    assert len(searched) == 3


def test_find_irreducible_needs_degree_two():
    with pytest.raises(ValueError):
        find_irreducible(3, 1)
    with pytest.raises(ValueError):
        find_irreducible(4, 2)


@pytest.mark.parametrize("p,degree,code", [
    (-3, 2, "bad-characteristic"),
    (10**25, 2, "bad-characteristic"),
    (2, -1, "bad-extension"),
])
def test_field_for_leaves_refusals_to_field_spec(p, degree, code):
    with pytest.raises(field.FieldSpecError) as excinfo:
        field_for(p, degree)
    assert excinfo.value.code == code


@pytest.mark.parametrize("degree", [1, 2])
def test_field_for_refuses_characteristic_zero(degree):
    # FieldSpec(0) is Q, but a sweep enumerates its field
    with pytest.raises(ValueError, match="finite field"):
        field_for(0, degree)


def test_find_irreducible_stops_where_field_spec_does(count_calls, monkeypatch):
    # the degree is refused before p is checked or a candidate of its length
    # is built, so even an absurd degree costs nothing
    def built(self):
        raise AssertionError(f"{self} built")

    searched = count_calls(field._ben_or)
    monkeypatch.setattr(FieldSpec, "__post_init__", built)
    with pytest.raises(field.FieldSpecError) as excinfo:
        find_irreducible(2, field.MAX_EXTENSION_DEGREE + 1)
    assert excinfo.value.code == "bad-extension"
    assert searched == []


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


@pytest.mark.parametrize("spec", [FieldSpec(3), FieldSpec(3, 2, (1, 0, 1)), FieldSpec(7)], ids=str)
def test_check_field_builds_one_row_walk_per_row_and_walks_no_triple(spec, count_calls):
    walks = count_calls(cartan._row_walk)
    triples = count_calls(cartan._first_zero)
    assert check_field(spec)["cases"] == 2 * spec.order ** 2
    assert len(walks) == 2 * spec.order
    assert triples == []


def test_a_walk_that_misses_its_zero_raises(monkeypatch):
    # no step of the faulty walk vanishes; _first_zero decides that the zero
    # guaranteed by m = 2p - 1 is missing
    monkeypatch.setattr(cartan, "_walk", lambda a_kj, a_kk, parity: itertools.repeat((1,)))
    datum = cartan.pair_datum(FieldSpec(3), 2, 1, cartan.Parity.ODD)
    with pytest.raises(ConsistencyError, match=r"up to m = 5 at \(i_k, A_kk, A_kj\) = \(od, 2, 1\)"):
        cartan.b_recursive(datum, 1, 2)


def test_a_row_walk_that_misses_its_zero_raises(monkeypatch):
    # every step of the faulty walk reads d_m = A_kk, which vanishes for no
    # A_kj once A_kk != 0: the first such row, (ev, 1), finds no zero for A_kj = 0
    monkeypatch.setattr(cartan, "_linear_walk", lambda sign, p: itertools.repeat((0, 1)))
    with pytest.raises(ConsistencyError, match=r"up to m = 5 at \(i_k, A_kk, A_kj\) = \(ev, 1, 0\)"):
        check_field(FieldSpec(3))


@pytest.mark.parametrize("primes,degrees,message", [
    ([3, 3], [1], "prime 3 is listed more than once"),
    ([2, 3], [1, 2, 1], "degree 1 is listed more than once"),
    ([0], [1], "finite field"),
    ([1], [1], "characteristic 1 must be 0 or a prime"),
    ([2, 9], [1, 2], "characteristic 9 must be 0 or a prime"),
    ([10**25], [1, 2], f"characteristic {10**25} is not below"),
    ([2, 3], [1, -1], "extension degree -1 must lie in"),
    ([2], [0], "extension degree 0 must lie in"),
    ([2, 3], [2, 9], "extension degree 9 must lie in"),
    ([3317044064679887385961813], [9], "extension degree 9 must lie in"),
    # a bad value listed after a large prime is refused before any modulus
    # search over that prime's extension begins
    ([10007], [2, 9], "extension degree 9 must lie in"),
    ([10007, 4], [2], "characteristic 4 must be 0 or a prime"),
])
def test_repeated_prime_or_degree_refused_before_any_sweep(count_calls, primes, degrees, message):
    swept = count_calls(check_field)
    searched = count_calls(field._ben_or)
    with pytest.raises(ValueError, match=message):
        run_selfcheck(primes, degrees)
    assert searched == []
    assert swept == []


@pytest.mark.parametrize("primes,degrees", [([7], [1]), ([2], [5]), ([3], [1, 2])],
                         ids=["GF7", "GF32", "GF3-GF9"])
def test_selfcheck_decides_primality_once(count_calls, primes, degrees):
    # the extension fields are searched over the GF(p) already built, so p is
    # not decided again per degree
    calls = count_calls(field.is_prime)
    run_selfcheck(primes, degrees)
    assert calls == [(primes[0],)]
