import itertools
import json
import time

import pytest

from rootstrings import cartan, field, selfcheck
from rootstrings.cartan import CartanDatum, ConsistencyError
from rootstrings.field import FieldSpec
from rootstrings.selfcheck import check_field, field_for, find_irreducible, run_selfcheck

from oracles import irreducible_by_trial_division


FIRST_MODULI = pytest.mark.parametrize("p,degree,modulus", [
    (2, 2, (1, 1, 1)),
    (3, 2, (1, 0, 1)),
    (2, 3, (1, 0, 1, 1)),
    (5, 2, (1, 1, 1)),
    (3, 3, (1, 0, 2, 1)),
])


def candidates_tried(p, degree, modulus):
    """How many candidates the search tests to reach ``modulus``: they run in
    lexicographic order, the constant term most significant, from the first
    one whose constant term is not 0, n = p^(degree - 1)."""
    n = sum(c * p ** (degree - 1 - i) for i, c in enumerate(modulus[:-1]))
    return n - p ** (degree - 1) + 1


@FIRST_MODULI
def test_each_candidate_modulus_tested_once(count_calls, p, degree, modulus):
    calls = count_calls(field._ben_or)
    tried = candidates_tried(p, degree, modulus)
    assert field_for(p, degree).modulus == modulus
    assert len(calls) == tried
    assert all(candidate[0] != 0 for candidate, _ in calls)
    assert len({candidate for candidate, _ in calls}) == tried


@FIRST_MODULI
def test_find_irreducible_searches_as_field_for_does(count_calls, p, degree, modulus):
    calls = count_calls(field._ben_or)
    assert find_irreducible(p, degree) == modulus
    assert len(calls) == candidates_tried(p, degree, modulus)


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
    def built(self, *args):
        raise AssertionError(f"FieldSpec{args} built")

    searched = count_calls(field._ben_or)
    monkeypatch.setattr(FieldSpec, "__init__", built)
    with pytest.raises(field.FieldSpecError) as excinfo:
        find_irreducible(2, field.MAX_EXTENSION_DEGREE + 1)
    assert excinfo.value.code == "bad-extension"
    assert searched == []


@pytest.mark.parametrize("spec", [FieldSpec(3), FieldSpec(3, 2, (1, 0, 1)), FieldSpec(7)], ids=str)
def test_check_field_builds_one_ladder_per_row_and_no_datum(spec, monkeypatch):
    expected = check_field(spec)
    ladders = []

    def counting_ladder(parity, p, kk, kjs):
        ladders.append((parity, kk))
        return cartan._row_ladder(parity, p, kk, kjs)

    data = []
    original = CartanDatum.__init__

    def counting_datum(self, *args):
        data.append(args)
        original(self, *args)

    monkeypatch.setattr("rootstrings.selfcheck._row_ladder", counting_ladder)
    monkeypatch.setattr(CartanDatum, "__init__", counting_datum)
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


def test_check_field_builds_no_field_element(elements_built):
    # the sweep hands both routes coordinate tuples in spec.elements() order
    spec = field_for(3, 3)
    elements_built.clear()
    report = check_field(spec)
    assert (report["cases"], report["failures"]) == (2 * 27 ** 2, 0) == (1458, 0)
    assert elements_built == []


def test_check_field_sweeps_in_the_order_of_the_fields_elements(count_calls):
    spec = field_for(3, 2)
    ladders = count_calls(cartan._row_ladder)
    check_field(spec)
    coeffs = [a.coeffs for a in spec.elements()]
    assert ladders == [(parity, 3, kk, coeffs) for parity in cartan.Parity for kk in coeffs]


def test_a_walk_that_misses_its_zero_raises(monkeypatch):
    # no step of the faulty walk, one stream per coordinate, vanishes;
    # _first_zero decides that the zero guaranteed by m = 2p - 1 is missing
    monkeypatch.setattr(cartan, "_walk", lambda parity, p, kk, kj: [itertools.repeat(1)])
    datum = cartan.pair_datum(FieldSpec(3), 2, 1, cartan.Parity.ODD)
    with pytest.raises(ConsistencyError,
                       match=r"up to m = 5 at \(i_k, A_kk, A_kj\) = \(od, \[2\], \[1\]\)"):
        cartan.b_recursive(datum, 1, 2)


def test_a_row_walk_that_misses_its_zero_raises(monkeypatch):
    # each walk of the faulty step repeats its A_kk, so (alpha_m, beta_m) =
    # (0, 1) at every step and d_m = A_kk, which vanishes for no A_kj once
    # A_kk != 0: the first such row, (ev, 1), finds no zero for A_kj = 0
    monkeypatch.setattr(cartan, "_walk_coordinate", lambda a, c, sign, p: itertools.repeat(a))
    cartan._zero_table.cache_clear()
    try:
        with pytest.raises(ConsistencyError,
                           match=r"up to m = 5 at \(i_k, A_kk, A_kj\) = \(ev, \[1\], \[0\]\)"):
            check_field(FieldSpec(3))
    finally:
        cartan._zero_table.cache_clear()


def test_a_row_walk_names_the_first_a_kj_that_misses_its_zero(monkeypatch):
    # a table without c = 1 and with no stop or flat: over GF(3) the first
    # row, (ev, 0), gives A_kj = 0 the zero tuple's m, and A_kj = 1, its
    # second column, is the first entry in sweep order that gets no m
    monkeypatch.setattr(cartan, "_zero_table", lambda parity, p: ({2: 1, 0: 0}, None, None))
    with pytest.raises(ConsistencyError, match=r"\(i_k, A_kk, A_kj\) = \(ev, \[0\], \[1\]\)"):
        check_field(FieldSpec(3))


def test_two_wronged_entries_of_one_row_are_reported_in_sweep_order(monkeypatch):
    # over GF(7), row (od, 3): the walk is wronged at A_kj = 5 and the
    # ladder at A_kj = 2, so the row's lists differ; the row is then checked
    # entry by entry, and its two mismatches come out in column order, each
    # with both routes' values, while every other case still counts
    spec = FieldSpec(7)
    expected = check_field(spec)
    row = (cartan.Parity.ODD, (3,))
    true_2, true_5 = cartan._row_walk(cartan.Parity.ODD, 7, (3,), [(2,), (5,)])

    def wronged(route, column, shift):
        def answers(parity, p, kk, kjs):
            out = route(parity, p, kk, kjs)
            if (parity, kk) == row:
                out[column] = shift(out[column])
            return out

        return answers

    monkeypatch.setattr(selfcheck, "_row_walk", wronged(cartan._row_walk, 5, lambda m: m + 1))
    monkeypatch.setattr(selfcheck, "_row_ladder",
                        wronged(cartan._row_ladder, 2, lambda b: b + 2))
    report = check_field(spec)
    assert report["mismatches"] == [
        {"parity": "od", "a_kk": [3], "a_kj": [2], "closed": true_2 + 2, "recursive": true_2,
         "ceiling": 13},
        {"parity": "od", "a_kk": [3], "a_kj": [5], "closed": true_5, "recursive": true_5 + 1,
         "ceiling": 13},
    ]
    assert report["failures"] == 2
    assert report["cases"] == expected["cases"] == 2 * 7 ** 2
    counts = dict(expected["b_counts"])
    counts[true_2] -= 1
    counts[true_5] -= 1
    assert report["b_counts"] == [[b, n] for b, n in sorted(counts.items()) if n]


def test_check_field_inverts_once_per_ladder_row_and_step(monkeypatch):
    # each ladder row with A_kk != 0 inverts one coordinate, and the zero
    # table inverts alpha_m at most once per step, once per parity
    spec, calls = FieldSpec(13), []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(cartan, "pow", counting_pow, raising=False)
    cartan._zero_table.cache_clear()
    assert check_field(spec)["failures"] == 0
    p = spec.characteristic
    assert 0 < len(calls) <= 2 * spec.order + 2 * (2 * p)


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
    # the first repeat in list order is named, and True repeats 1
    ([5, 3, 7, 3, 5], [1], "^prime 3 is listed more than once$"),
    ([1, True], [1], "^prime True is listed more than once$"),
])
def test_repeated_prime_or_degree_refused_before_any_sweep(count_calls, primes, degrees, message):
    swept = count_calls(check_field)
    searched = count_calls(field._ben_or)
    with pytest.raises(ValueError, match=message):
        run_selfcheck(primes, degrees)
    assert searched == []
    assert swept == []


def test_a_long_list_of_distinct_values_is_checked_for_repeats_in_one_pass(count_calls):
    # 20,000 distinct values: a check that compares each value with every
    # earlier one took seconds before refusing 4, the first value
    swept = count_calls(check_field)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^characteristic 4 must be 0 or a prime"):
        run_selfcheck(list(range(4, 20004)), [1])
    assert time.perf_counter() - start < 1
    assert swept == []


class _Reached(Exception):
    pass


def _unreachable(*args):
    raise _Reached("a refused sweep began a modulus search or a sweep")


@pytest.mark.parametrize("degrees", ["8", "2"])
def test_a_sweep_over_the_case_limit_is_refused_before_any_search(monkeypatch, run_cli, degrees):
    # 2 * 101^16 and 2 * 101^4 cases: GF(101^8) alone has about 10^16
    # elements to build, and GF(101^2)'s sweep would take minutes
    monkeypatch.setattr(selfcheck, "_extension", _unreachable)
    monkeypatch.setattr(selfcheck, "check_field", _unreachable)
    with pytest.raises(ValueError, match="more than the limit of 10000000$"):
        run_selfcheck([101], [int(degrees)])
    code, out, err = run_cli("selfcheck", "--primes", "101", "--degrees", degrees)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error[invalid]:")


@pytest.mark.parametrize("limit,accepted", [(10**7, True), (274554, True), (274553, False)])
def test_the_case_limit_counts_two_q_squared_per_field(monkeypatch, run_cli, limit, accepted):
    # 2 * q^2 over the twelve fields GF(p^d), p = 2, 3, 5, 7 and d = 1, 2, 3
    def sweep(spec):
        return {"cases": 2 * spec.order ** 2, "failures": 0}

    monkeypatch.setattr(selfcheck, "MAX_CASES", limit)
    monkeypatch.setattr(selfcheck, "check_field", sweep)
    code, out, err = run_cli("selfcheck", "--primes", "2,3,5,7", "--degrees", "1,2,3")
    if accepted:
        assert (code, err) == (0, "")
        assert json.loads(out)["total_cases"] == 274554
    else:
        assert (code, out) == (1, "")
        assert err == f"error[invalid]: the sweep would check 274554 cases, more than the limit of {limit}\n"


@pytest.mark.parametrize("primes,degrees", [([7], [1]), ([2], [5]), ([3], [1, 2])],
                         ids=["GF7", "GF32", "GF3-GF9"])
def test_selfcheck_decides_primality_once(count_calls, primes, degrees):
    # the extension fields are searched over the GF(p) already built, so p is
    # not decided again per degree
    calls = count_calls(field.is_prime)
    run_selfcheck(primes, degrees)
    assert calls == [(primes[0],)]
