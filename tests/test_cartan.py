import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootstrings import cartan
from rootstrings.cartan import (
    INFINITY,
    BValue,
    CartanDatum,
    DSequence,
    Parity,
    _first_zero,
    _row_ladder,
    _row_walk,
    _walk,
    b_closed,
    b_recursive,
    b_row,
    b_table,
    d_next,
    d_sequence,
    pair_datum,
)
from rootstrings.field import FieldElement, FieldSpec, FieldSpecError, is_prime
from rootstrings.reflection import ReflectionUndefinedError, reflect
from rootstrings.selfcheck import field_for

from oracles import (
    _multiple_of,
    b_in_g,
    d_closed_even,
    d_closed_odd,
    entry_ladder,
    fraction_walk,
    relation_scalar,
    relation_values,
    residue_walk,
    sweep_pairs,
)

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)
GF7 = FieldSpec(7)
GF4 = FieldSpec(2, 2, (1, 1, 1))
GF9 = FieldSpec(3, 2, (1, 0, 1))
GF125 = FieldSpec(5, 3, (1, 1, 0, 1))
Q = FieldSpec(0)

SWEEP_FIELDS = [GF2, GF3, GF5, GF7, GF4, GF9]


# --- BValue ----------------------------------------------------------------

def test_bvalue_comparisons():
    assert BValue(2) == 2
    assert 2 == BValue(2)
    assert BValue(2) == BValue(2)
    assert BValue(2) != BValue(3)
    assert BValue(2) < 3
    assert BValue(2) <= BValue(2)
    assert BValue(5) > BValue(4)
    assert INFINITY > 10**9
    assert INFINITY >= INFINITY
    assert not INFINITY < INFINITY
    assert INFINITY != 10**9
    assert BValue(2) != "2"


def test_bvalue_int_str_hash():
    assert int(BValue(7)) == 7
    assert str(BValue(7)) == "7"
    assert str(INFINITY) == "inf"
    assert hash(BValue(7)) == hash(BValue(7))
    assert BValue(7).is_finite
    assert not INFINITY.is_finite
    with pytest.raises(ValueError):
        int(INFINITY)


@pytest.mark.parametrize("bad", [-1, True, "3", 2.0, 1.0])
def test_bvalue_rejects_non_bounds(bad):
    with pytest.raises(ValueError):
        BValue(bad)


def test_public_bvalue_validates_while_the_ladder_shares_bounds():
    # the shared bounds 1 and 0 are cached by value, and True == 1,
    # 1.0 == 1; the public constructor must not hand those out
    datum = CartanDatum.build(GF3, [[0, 1, 0], [1, 0, 1], [2, 2, 2]], ["od", "ev", "ev"])
    assert b_table(datum)[0] == (None, BValue(1), BValue(0))
    for bad in (-1, True, 1.0, False, 0.0):
        with pytest.raises(ValueError):
            BValue(bad)


# --- datum construction -----------------------------------------------------

def test_build_coerces_entries_and_parity_labels():
    datum = CartanDatum.build(GF3, [[0, 1], [1, 0]], ["ev", "od"])
    assert datum.n == 2
    assert datum.entry(1, 2) == GF3.element(1)
    assert datum.parity(2) is Parity.ODD
    assert datum.parity(1).sign == 1
    assert datum.parity(2).sign == -1


def test_datum_validation():
    with pytest.raises(ValueError):
        CartanDatum.build(GF3, [[0, 1]], ["ev", "ev"])          # not square
    with pytest.raises(ValueError):
        CartanDatum.build(GF3, [[0, 1], [1, 0]], ["ev"])        # parity count
    with pytest.raises(ValueError):
        CartanDatum.build(GF3, [], [])                          # rank 0
    with pytest.raises(ValueError):
        CartanDatum(GF3, ((GF5.element(1),),), (Parity.EVEN,))  # foreign entry
    with pytest.raises(TypeError):
        CartanDatum(GF3, ((1,),), (Parity.EVEN,))               # raw int entry
    with pytest.raises(TypeError):
        CartanDatum(GF3, ((GF3.element(1),),), ("ev",))         # raw parity label


def test_pair_datum_layout():
    datum = pair_datum(GF5, 2, 1, Parity.ODD)
    assert datum.entry(1, 1) == GF5.element(2)
    assert datum.entry(1, 2) == GF5.element(1)
    assert not datum.entry(2, 1)
    assert datum.parity(1) is Parity.ODD


def test_index_checks():
    datum = CartanDatum.build(GF3, [[0, 1], [1, 0]], ["ev", "ev"])
    with pytest.raises(IndexError):
        b_closed(datum, 0, 1)
    with pytest.raises(IndexError):
        b_closed(datum, 1, 3)
    with pytest.raises(ValueError):
        b_closed(datum, 2, 2)
    with pytest.raises(ValueError):
        d_sequence(datum, 1, 2, -2)


@pytest.mark.parametrize("k,j", [(0, 1), (1, 0), (-1, 2), (3, 1), (1, 3)])
def test_accessors_refuse_indices_outside_the_rank(k, j):
    # k - 1 = -1 would read A_21 from the end of the matrix
    datum = CartanDatum.build(GF7, [[2, 3], [5, 2]], ["ev", "od"])
    with pytest.raises(IndexError):
        datum.entry(k, j)
    if not 1 <= k <= 2:
        with pytest.raises(IndexError):
            datum.parity(k)
    assert [datum.entry(a, b) for a in (1, 2) for b in (1, 2)] == list(
        map(GF7.element, [2, 3, 5, 2]))
    assert [datum.parity(a) for a in (1, 2)] == [Parity.EVEN, Parity.ODD]


def test_dsequence_indexing():
    datum = CartanDatum.build(GF3, [[0, 1], [1, 0]], ["ev", "ev"])
    seq = d_sequence(datum, 1, 2, 4)
    assert isinstance(seq, DSequence)
    assert seq.last_index == 4
    assert not seq[-1]
    assert seq[0] == GF3.element(2)
    with pytest.raises(IndexError):
        seq[5]
    with pytest.raises(IndexError):
        seq[-2]


# --- frozen worked examples -------------------------------------------------

def test_even_example_gf5():
    # A_kk = 2, A_kj = 1 over GF(5): zero lands at -2*(1/2) = -1 = 4 mod 5
    datum = pair_datum(GF5, 2, 1, Parity.EVEN)
    assert b_closed(datum, 1, 2) == 4
    assert b_recursive(datum, 1, 2) == 4


def test_odd_example_gf3_full_sequence():
    datum = pair_datum(GF3, 1, 1, Parity.ODD)
    seq = d_sequence(datum, 1, 2, 5)
    assert [v.coeffs[0] for v in seq.values] == [0, 1, 1, 2, 2, 0, 0]
    assert b_recursive(datum, 1, 2) == 4
    assert b_closed(datum, 1, 2) == 4


def test_even_sequence_gf3_period():
    datum = pair_datum(GF3, 0, 1, Parity.EVEN)
    seq = d_sequence(datum, 1, 2, 4)
    assert [v.coeffs[0] for v in seq.values] == [0, 2, 1, 0, 2, 1]
    assert b_recursive(datum, 1, 2) == 2


def test_extension_examples_gf9():
    t = GF9.element([0, 1])
    even = pair_datum(GF9, 1, t, Parity.EVEN)
    assert b_closed(even, 1, 2) == 2       # ratio t outside GF(3) -> p - 1
    assert b_recursive(even, 1, 2) == 2
    odd = pair_datum(GF9, 1, t, Parity.ODD)
    assert b_closed(odd, 1, 2) == 5        # ratio t outside GF(3) -> 2p - 1
    assert b_recursive(odd, 1, 2) == 5


def test_d_closed_even_worked_value():
    # m = 3, A_kj = 1, A_kk = 2 over GF(5): -4*1 - 6*2 = -16 = 4 mod 5
    assert d_closed_even(GF5.element(1), GF5.element(2), 3) == GF5.element(4)
    assert not d_closed_even(GF5.element(1), GF5.element(2), -1)


def test_d_closed_odd_worked_values():
    a_kj, a_kk = GF5.element(3), GF5.element(2)
    assert d_closed_odd(a_kj, a_kk, 4) == GF5.element(3 + 2 * 2)   # m = 2l, l = 2
    assert d_closed_odd(a_kj, a_kk, 3) == GF5.element(2 * 2)       # m = 2l-1, l = 2
    assert not d_closed_odd(a_kj, a_kk, -1)


# --- closed forms against the recursion --------------------------------------

@pytest.mark.parametrize("spec", SWEEP_FIELDS, ids=str)
def test_closed_form_d_matches_recursion_everywhere(spec):
    p = spec.characteristic
    for parity, a_kk, a_kj in sweep_pairs(spec):
        datum = pair_datum(spec, a_kk, a_kj, parity)
        seq = d_sequence(datum, 1, 2, 2 * p)
        closed = d_closed_even if parity is Parity.EVEN else d_closed_odd
        for m in range(-1, 2 * p + 1):
            assert seq[m] == closed(a_kj, a_kk, m), (spec, parity, a_kk, a_kj, m)


@pytest.mark.parametrize("spec", SWEEP_FIELDS, ids=str)
def test_b_closed_matches_b_recursive_everywhere(spec):
    for parity, a_kk, a_kj in sweep_pairs(spec):
        datum = pair_datum(spec, a_kk, a_kj, parity)
        assert b_closed(datum, 1, 2) == b_recursive(datum, 1, 2), \
            (spec, parity, str(a_kk), str(a_kj))


@pytest.mark.parametrize("spec", SWEEP_FIELDS, ids=str)
def test_guaranteed_zeros(spec):
    p = spec.characteristic
    for parity, a_kk, a_kj in sweep_pairs(spec):
        datum = pair_datum(spec, a_kk, a_kj, parity)
        seq = d_sequence(datum, 1, 2, 2 * p - 1)
        if parity is Parity.ODD:
            assert not seq[2 * p - 1]
        elif p == 2:
            assert not seq[3]
        else:
            assert not seq[p - 1]


def test_odd_sequence_structure():
    # at odd indices the sequence forgets A_kj entirely: d_{2l-1} = l * A_kk
    for spec in (GF5, GF9):
        for _, a_kk, a_kj in sweep_pairs(spec):
            datum = pair_datum(spec, a_kk, a_kj, Parity.ODD)
            seq = d_sequence(datum, 1, 2, 9)
            for l in range(1, 5):
                assert seq[2 * l - 1] == l * a_kk


@given(st.sampled_from([2, 3, 5, 7, 11, 13, 31, 97]),
       st.integers(0, 96), st.integers(0, 96),
       st.sampled_from([Parity.EVEN, Parity.ODD]))
def test_random_agreement_large_primes(p, a_kk, a_kj, parity):
    spec = FieldSpec(p)
    datum = pair_datum(spec, a_kk, a_kj, parity)
    assert b_closed(datum, 1, 2) == b_recursive(datum, 1, 2)


# --- characteristic 0 --------------------------------------------------------

@pytest.mark.parametrize("a_kj,expected", [(-1, 1), (-2, 2), (-3, 3)])
def test_classical_even_strings(a_kj, expected):
    datum = pair_datum(Q, 2, a_kj, Parity.EVEN)
    assert b_closed(datum, 1, 2) == expected
    assert b_recursive(datum, 1, 2) == expected


def test_characteristic_zero_infinite_cases():
    assert b_closed(pair_datum(Q, 2, 1, Parity.EVEN), 1, 2) == INFINITY
    assert b_closed(pair_datum(Q, 0, 1, Parity.EVEN), 1, 2) == INFINITY
    # non-integer ratio
    assert b_closed(pair_datum(Q, 2, Fraction(-1, 2), Parity.EVEN), 1, 2) == INFINITY
    assert b_closed(pair_datum(Q, 3, -1, Parity.ODD), 1, 2) == INFINITY


def test_characteristic_zero_odd_cases():
    assert b_closed(pair_datum(Q, 0, 5, Parity.ODD), 1, 2) == 1
    datum = pair_datum(Q, 1, -3, Parity.ODD)
    assert b_closed(datum, 1, 2) == 6
    assert b_recursive(datum, 1, 2) == 6
    assert b_closed(pair_datum(Q, 2, -3, Parity.ODD), 1, 2) == INFINITY  # l = 3/2


def test_zero_offdiagonal_gives_zero_everywhere():
    for spec in (Q, GF2, GF9):
        for parity in (Parity.EVEN, Parity.ODD):
            datum = pair_datum(spec, 1, 0, parity)
            assert b_closed(datum, 1, 2) == 0
            assert b_recursive(datum, 1, 2) == 0


def test_scan_cap_behaviour():
    # infinite bound: any cap suffices, the closed form certifies it
    assert b_recursive(pair_datum(Q, 2, 1, Parity.EVEN), 1, 2, scan_cap=5) == INFINITY
    # finite bound above the cap: refuse rather than guess
    big = pair_datum(Q, 2, -500, Parity.EVEN)
    assert b_closed(big, 1, 2) == 500
    with pytest.raises(ValueError, match="scan_cap"):
        b_recursive(big, 1, 2, scan_cap=10)
    assert b_recursive(big, 1, 2, scan_cap=500) == 500
    for spec in (Q, GF3):
        with pytest.raises(ValueError, match="scan cap must be >= 0"):
            b_recursive(pair_datum(spec, 2, -1, Parity.EVEN), 1, 2, scan_cap=-1)


def test_rational_entries_work_throughout():
    datum = pair_datum(Q, Fraction(1, 2), Fraction(-3, 2), Parity.EVEN)
    # -2 * (-3/2) / (1/2) = 6
    assert b_closed(datum, 1, 2) == 6
    assert b_recursive(datum, 1, 2) == 6


# --- tables ------------------------------------------------------------------

def test_b_table_shape_and_values():
    datum = CartanDatum.build(GF3, [[0, 1], [1, 0]], ["ev", "ev"])
    table = b_table(datum)
    assert table == ((None, BValue(2)), (BValue(2), None))


def test_b_table_matches_pointwise_calls():
    t = GF9.element([0, 1])
    datum = CartanDatum.build(
        GF9, [[1, t, 0], [t, 2, 1], [0, 1, 1]], ["ev", "od", "ev"])
    table = b_table(datum)
    for k in range(1, 4):
        for j in range(1, 4):
            if k == j:
                assert table[k - 1][j - 1] is None
            else:
                assert table[k - 1][j - 1] == b_closed(datum, k, j)


GF101 = FieldSpec(101)


def random_datum(spec, n, seed):
    """A rank-n datum with entries drawn, with repeats, from the field (a
    small set of rationals at characteristic 0)."""
    rng = random.Random(seed)
    if spec.characteristic:
        values = list(spec.elements())
    else:
        values = [spec.element(Fraction(a, b)) for a in range(-6, 7) for b in (1, 2, 3)]
    rows = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
    return CartanDatum(spec, rows, tuple(rng.choice(list(Parity)) for _ in range(n)))


@pytest.mark.parametrize("spec", [GF3, GF9, GF125, GF101, Q], ids=str)
@pytest.mark.parametrize("n,seed", [(20, 1), (33, 2)])
def test_b_table_matches_b_closed_entry_by_entry(spec, n, seed):
    datum = random_datum(spec, n, seed)
    expected = tuple(
        tuple(None if k == j else b_closed(datum, k, j) for j in range(1, n + 1))
        for k in range(1, n + 1))
    assert b_table(datum) == expected


@pytest.mark.parametrize("spec", [GF3, GF9, GF125, GF101, Q], ids=str)
@pytest.mark.parametrize("n,seed", [(20, 1), (33, 2)])
def test_b_table_matches_b_recursive_entry_by_entry(spec, n, seed):
    # over Q the largest finite bound random_datum allows is 36, and a scan
    # cap below a finite bound raises rather than answering; each infinite
    # entry walks the whole cap, so it is kept well below the default
    datum = random_datum(spec, n, seed)
    table = b_table(datum)
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            if j != k:
                assert table[k - 1][j - 1] == b_recursive(datum, k, j, scan_cap=100), (k, j)


def count_ladders(monkeypatch):
    """Wrap the row ladder; returns the lists of rows it was called for
    (their parity and A_kk) and of the lists each call was given (A_kj's
    coordinates)."""
    called, asked = [], []

    def counting(parity, p, kk, kjs):
        called.append((parity, kk))
        asked.append(list(kjs))
        return _row_ladder(parity, p, kk, kjs)

    monkeypatch.setattr("rootstrings.cartan._row_ladder", counting)
    return called, asked


@pytest.mark.parametrize("spec", [GF3, GF9, Q], ids=str)
def test_b_table_asks_one_ladder_per_row_with_its_whole_row(spec, monkeypatch):
    # one ladder call per row, with the row's (i_k, A_kk) and the list of
    # its n - 1 entries A_kj, j != k, in column order, repeats included
    n = 40
    datum = random_datum(spec, n, 3)
    rows = [[a.coeffs for j, a in enumerate(row) if j != k]
            for k, row in enumerate(datum.entries)]
    expected = b_table(datum)
    called, asked = count_ladders(monkeypatch)
    assert b_table(datum) == expected
    assert len(called) == len(asked) == n
    assert called == [(datum.parities[k], datum.entries[k][k].coeffs) for k in range(n)]
    assert asked == rows
    assert any(len(set(kjs)) < len(kjs) for kjs in asked)  # repeats are asked as they come
    for k in range(1, n + 1):
        asked.clear()
        try:
            reflect(datum, k)
        except ReflectionUndefinedError:    # over Q, after the row's bounds
            pass
        assert asked == [rows[k - 1]]


def test_b_table_over_q_hashes_no_fraction(monkeypatch):
    # a Fraction's hash computes a modular inverse; the ladder reads each
    # entry's integer pair (numerator, denominator) and keys nothing on it
    datum = random_datum(Q, 30, 4)
    expected = tuple(
        tuple(None if k == j else b_closed(datum, k, j) for j in range(1, 31))
        for k in range(1, 31))
    calls = []
    original = Fraction.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    table = b_table(datum)
    assert calls == []
    monkeypatch.undo()
    assert table == expected


@pytest.mark.parametrize("spec", [GF9, GF101, Q], ids=str)
def test_equal_entries_of_a_row_share_one_bound(spec):
    # equal bounds of a row, and across rows, are one BValue object, from
    # the shared cache that b_row asks for each entry
    table = b_table(random_datum(spec, 40, 5))
    for row in table:
        assert len({id(b) for b in row}) == len(set(row))


@pytest.mark.parametrize("spec", [GF9, GF101, Q], ids=str)
def test_b_row_hands_out_the_shared_bounds(spec):
    # each off-diagonal entry of b_row is the BValue of _shared_bound for
    # its bound, None on the diagonal
    datum = random_datum(spec, 12, 3)
    for k in range(1, 13):
        row = b_row(datum, k)
        assert len(row) == 12 and row[k - 1] is None
        assert all(b is cartan._shared_bound(b.value) for j, b in enumerate(row, 1) if j != k)


@pytest.mark.parametrize("spec", [GF125, GF7], ids=str)
def test_closed_form_makes_no_field_division(spec, monkeypatch):
    rng = random.Random(8)
    elements = list(spec.elements())
    rows = [[rng.choice(elements) for _ in range(8)] for _ in range(8)]
    for k in range(8):
        rows[k][k] = rng.choice(elements[1:])
        rows[k][(k + 1) % 8] = 3 * rows[k][k]      # a prime-field ratio
        rows[k][(k + 2) % 8] = spec.zero()
    datum = CartanDatum.build(spec, rows, ["ev", "od"] * 4)
    calls = []
    for name in ("inverse", "__truediv__"):
        def counting(*args, _original=getattr(FieldElement, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(FieldElement, name, counting)
    table = b_table(datum)
    assert calls == []
    p = spec.characteristic
    assert table[0][1] == (-2 * 3) % p          # even row: -2c mod p
    assert table[1][2] == 2 * ((-3) % p)        # odd row: 2 * (-c mod p)
    assert table[0][2] == 0


GF8 = FieldSpec(2, 3, (1, 1, 0, 1))
GF25 = FieldSpec(5, 2, (2, 0, 1))
GF27 = FieldSpec(3, 3, (1, 2, 0, 1))


@pytest.mark.parametrize("spec", [GF4, GF8, GF9, GF25, GF27], ids=str)
def test_row_ladder_ratio_branch_matches_division(spec):
    # with c = A_kj / A_kk, the odd ladder gives 2 * (-c mod p) when c lies in
    # GF(p) (branch 5, or branch 1 at c = 0) and 2p - 1 otherwise (branch 4);
    # at odd p the even ladder gives -2c mod p or p - 1
    p = spec.characteristic
    elems = list(spec.elements())
    coeffs = [x.coeffs for x in elems]
    for y in elems[1:]:
        bounds = {parity: _row_ladder(parity, p, y.coeffs, coeffs) for parity in Parity}
        for x, odd, even in zip(elems, bounds[Parity.ODD], bounds[Parity.EVEN]):
            c = (x / y).in_prime_subfield()
            assert odd == (2 * p - 1 if c is None else 2 * (-c % p)), (str(x), str(y))
            if p != 2:
                assert even == (p - 1 if c is None else -2 * c % p), (str(x), str(y))


@given(st.fractions(), st.fractions().filter(bool))
def test_row_ladder_ratio_branch_at_characteristic_zero(x, y):
    a, b = Q.element(x), Q.element(y)
    c = a.rational / b.rational
    for parity, m, scale in [(Parity.EVEN, -2 * c, 1), (Parity.ODD, -c, 2)]:
        expected = scale * int(m) if m.denominator == 1 and m >= 0 else None
        assert _row_ladder(parity, 0, b.coeffs, [a.coeffs]) == [expected]


# --- the row ladder against the per-entry ladder ------------------------------

GF1009 = FieldSpec(1009)
GF1009_2 = FieldSpec(1009, 2, (998, 0, 1))     # t^2 - 11; 11 is not a square mod 1009


def entry_values(parity, p, kk, kjs):
    """``entry_ladder``'s bounds of ``kjs`` as the row ladder answers them:
    ints, with None for infinity."""
    return [b.value for b in map(entry_ladder(parity, p, kk), kjs)]


@pytest.mark.parametrize("p,degree", [
    (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1),
    (3, 2), (5, 2), (3, 3), (2, 4), (2, 5)])
def test_row_ladder_matches_the_entry_ladder_everywhere(p, degree):
    # at degree > 1 the whole row tabulates all p points c * A_kk, and each
    # one-entry list, as b_closed asks it, only the point of its own entry
    spec = field_for(p, degree)
    coeffs = [a.coeffs for a in spec.elements()]
    for parity in Parity:
        for kk in coeffs:
            expected = entry_values(parity, p, kk, coeffs)
            assert _row_ladder(parity, p, kk, coeffs) == expected, (str(spec), parity, kk)
            one_by_one = [_row_ladder(parity, p, kk, [kj])[0] for kj in coeffs]
            assert one_by_one == expected, (str(spec), parity, kk)


#: The fields of the drawn-row test, by the rule of the ladder they reach:
#: degree 1 at a 13-digit prime; degree 2 at p near 1000, whose rows of at
#: most 200 entries are shorter than p, so the table holds only the points
#: of the coordinates that occur; small p with rows of at least p entries,
#: which tabulate all p points; and Q.
LADDER_FIELDS = {
    "13-digit-prime": [FieldSpec(9999999999971)],
    "p-near-1000-squared": [GF1009_2, FieldSpec(997, 2, (2, 0, 1))],
    "small-p-long-rows": [GF4, GF8, GF9, GF25, GF27, FieldSpec(13, 2, (2, 0, 1)),
                          FieldSpec(2, 4, (1, 1, 0, 0, 1))],
    "rationals": [Q],
}


def draw_row(data, spec, kk, min_size):
    """Between ``min_size`` and 200 A_kj coordinate tuples over ``spec``,
    drawn with repeats from a pool of zero, prime-field multiples of A_kk
    (halves of integers over Q) and other elements."""
    p, degree = spec.characteristic, spec.degree
    if p:
        coords = st.tuples(*[st.integers(0, p - 1)] * degree)
        multiples = st.integers(0, p - 1).map(lambda c: tuple(c * b % p for b in kk))
    else:
        coords = st.fractions(-10**6, 10**6, max_denominator=10**6).map(lambda x: (x,))
        multiples = st.integers(-300, 300).map(lambda n: (Fraction(n, 2) * kk[0],))
    zero = spec.zero().coeffs
    pool = data.draw(st.lists(st.one_of(st.just(zero), multiples, coords), min_size=1, max_size=40))
    return data.draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=200))


@pytest.mark.parametrize("kind", LADDER_FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), parity=st.sampled_from(Parity))
def test_row_ladder_matches_the_entry_ladder_on_drawn_rows(kind, data, parity):
    spec = data.draw(st.sampled_from(LADDER_FIELDS[kind]))
    p, degree = spec.characteristic, spec.degree
    if p:
        nonzero = st.tuples(*[st.integers(0, p - 1)] * degree)
    else:
        nonzero = st.fractions(-10**6, 10**6, max_denominator=10**6).filter(bool).map(lambda x: (x,))
    kk = data.draw(st.one_of(st.just(spec.zero().coeffs), nonzero))
    kjs = draw_row(data, spec, kk, p if kind == "small-p-long-rows" else 0)
    assert _row_ladder(parity, p, kk, kjs) == entry_values(parity, p, kk, kjs)


class _Counted:
    """Patches ``cartan._shared_bound`` and ``cartan.dict`` to record each
    ``BValue`` asked for and the size of each dict built."""

    def __init__(self, monkeypatch):
        self.bounds, self.keys = [], []
        shared = cartan._shared_bound

        def counting_bound(b):
            self.bounds.append(b)
            return shared(b)

        def counting_dict(*args):
            built = dict(*args)
            self.keys.append(len(built))
            return built

        monkeypatch.setattr(cartan, "_shared_bound", counting_bound)
        monkeypatch.setattr(cartan, "dict", counting_dict, raising=False)


@pytest.mark.parametrize("spec", [FieldSpec(9999999999971), GF1009_2, FieldSpec(23)], ids=str)
def test_a_row_ladder_does_work_bounded_by_its_row(spec, monkeypatch):
    # a row of 200 entries: at degree 1 no dict is built at any p, not even
    # where p is smaller than the row; at degree 2 with p above the row's
    # length, one dict holds a point for each distinct coordinate i of the
    # row, i being A_kk's first nonzero one, and nothing of size p; the
    # ladder answers in ints and asks for no BValue
    p, degree = spec.characteristic, spec.degree
    rng = random.Random(24)
    for parity in Parity:
        kk = tuple(rng.randrange(1, p) for _ in range(degree))
        kjs = [tuple(rng.randrange(p) for _ in range(degree)) for _ in range(100)]
        kjs += [tuple(rng.randrange(p) * b % p for b in kk) for _ in range(100)]
        counted = _Counted(monkeypatch)
        bounds = _row_ladder(parity, p, kk, kjs)
        i = next(i for i, b in enumerate(kk) if b)
        assert counted.keys == ([] if degree == 1 else [len({kj[i] for kj in kjs})])
        assert counted.bounds == []
        monkeypatch.undo()
        assert bounds == entry_values(parity, p, kk, kjs)


@pytest.mark.parametrize("spec", [GF125, GF9, FieldSpec(13, 2, (2, 0, 1))], ids=str)
def test_a_row_of_at_least_p_entries_tabulates_the_p_points_once(spec, monkeypatch):
    # one dict of p keys, one int bound per key; the entries only look it
    # up, and no BValue is asked for
    p, degree = spec.characteristic, spec.degree
    kk, elements = (1,) * degree, [a.coeffs for a in spec.elements()]
    for kjs in (elements[:p], elements):
        counted = _Counted(monkeypatch)
        bounds = _row_ladder(Parity.ODD, p, kk, kjs)
        assert counted.keys == [p]
        assert counted.bounds == []
        monkeypatch.undo()
        assert len(bounds) == len(kjs) and all(type(b) is int for b in bounds)


#: One row per rule of the ladder: its field, A_kk and A_kj entries.  Over
#: GF(9) the row of nine entries tabulates all p points, and over
#: GF(1009^2) the row of twenty is shorter than p, so it tabulates only the
#: points of the coordinates that occur in it.
RULE_ROWS = {
    "a_kk-zero-Q": (Q, 0, [Fraction(n, 2) for n in range(-3, 4)]),
    "a_kk-zero-GF5": (GF5, 0, list(range(5))),
    "even-p-2": (GF4, [0, 1], [[a, b] for a in (0, 1) for b in (0, 1)]),
    "rationals": (Q, Fraction(3, 2), [Fraction(n, 2) for n in range(-12, 13)]),
    "degree-1": (GF7, 3, list(range(7))),
    "table": (GF9, [1, 2], [[a, b] for a in range(3) for b in range(3)]),
    "short-row": (GF1009_2, [1, 2], [[c, 2 * c] for c in range(10)] + [[c, 1] for c in range(10)]),
}


@pytest.mark.parametrize("rule", RULE_ROWS)
@pytest.mark.parametrize("parity", Parity, ids=str)
def test_the_ladder_answers_ints_and_the_public_bounds_are_shared(rule, parity):
    # every rule answers int, or None for infinity at p = 0 only; b_closed,
    # b_table and b_recursive hand out the BValue of _shared_bound for that
    # answer (every finite one here is below the default scan cap)
    spec, kk, kj_values = RULE_ROWS[rule]
    a_kk, entries = spec.element(kk), [spec.element(v) for v in kj_values]
    answers = _row_ladder(parity, spec.characteristic, a_kk.coeffs, [a.coeffs for a in entries])
    assert all(type(b) is int and b >= 0 or b is None and not spec.characteristic
               for b in answers), answers
    n, zero = len(entries) + 1, spec.zero()
    rows = [[a_kk, *entries]] + [[zero] * n for _ in range(n - 1)]
    datum = CartanDatum(spec, rows, (parity,) + (Parity.EVEN,) * (n - 1))
    row = b_table(datum)[0]
    assert row[0] is None
    for j, b in enumerate(answers, 2):
        assert row[j - 1] is b_closed(datum, 1, j) is cartan._shared_bound(b)
        assert b_recursive(datum, 1, j) is row[j - 1]
        assert isinstance(row[j - 1], BValue) and row[j - 1].value == b
    infinite = not spec.characteristic and (any(a_kk.coeffs) or parity is Parity.EVEN)
    assert (None in answers) == (INFINITY in row) == infinite


def test_b_table_over_a_13_digit_prime_builds_nothing_of_size_p(monkeypatch):
    # no dict has more keys than the row has entries (at degree 1 none is
    # built), and b_row asks for one BValue per entry, j != k
    spec = FieldSpec(9999999999971)
    n, rng = 30, random.Random(7)
    rows = [[rng.randrange(-50, 50) for _ in range(n)] for _ in range(n)]
    datum = CartanDatum.build(spec, rows, [rng.choice(["ev", "od"]) for _ in range(n)])
    counted = _Counted(monkeypatch)
    table = b_table(datum)
    assert max(counted.keys, default=0) <= n - 1
    assert len(counted.bounds) == n * (n - 1)
    monkeypatch.undo()
    assert table == tuple(tuple(None if k == j else b_closed(datum, k, j)
                                for j in range(1, n + 1)) for k in range(1, n + 1))


# --- the recursion kernel ----------------------------------------------------

@pytest.mark.parametrize("spec", [GF1009, GF1009_2], ids=str)
def test_b_recursive_builds_no_element_per_step(spec, elements_built):
    # odd row, A_kk = 1: A_kj = c gives B = 2 * (-c mod p), and A_kj = t,
    # outside GF(p), gives 2p - 1
    top = (2016, 1) if spec.degree == 1 else (2017, [0, 1])
    data = {b: pair_datum(spec, 1, a_kj, Parity.ODD) for b, a_kj in [(10, -5), (1000, -500), top]}
    assert len(elements_built) >= 3 * 4      # the counter sees the data's entries built
    counts = []
    for bound, datum in data.items():
        elements_built.clear()
        assert b_recursive(datum, 1, 2) == bound
        counts.append(len(elements_built))
    assert counts == [counts[0]] * len(counts)


# --- d_m from the defining relations ------------------------------------------------
#
# At p = 2 an odd generator has a squaring map that U(g) words do not model,
# so those cases check the formal identity of the oracle, not g(A).

@pytest.mark.parametrize("spec", [*SWEEP_FIELDS, GF27], ids=str)
def test_d_sequence_matches_the_relations_oracle(spec):
    # every triple (i_k, A_kk, A_kj) and both parities of j, to m = 2p
    last = 2 * spec.characteristic
    for parity, a_kk, a_kj in sweep_pairs(spec):
        seq = d_sequence(pair_datum(spec, a_kk, a_kj, parity), 1, 2, last)
        got = [seq[m].coeffs for m in range(last + 1)]
        for parity_j in Parity:
            assert got == relation_values(parity, parity_j, a_kk, a_kj, last), (
                spec, parity, parity_j, str(a_kk), str(a_kj))


@pytest.mark.parametrize("a_kk,a_kj", [
    (2, -3), (Fraction(1, 2), Fraction(-3, 2)), (0, 5), (Fraction(-7, 3), 4), (1, 0)])
@pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
def test_d_sequence_matches_the_relations_oracle_rationals(a_kk, a_kj, parity):
    datum = pair_datum(Q, a_kk, a_kj, parity)
    seq = d_sequence(datum, 1, 2, 12)
    for parity_j in Parity:
        assert [seq[m].coeffs for m in range(13)] == relation_values(
            parity, parity_j, datum.entry(1, 1), datum.entry(1, 2), 12)


bounded_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def bounded_pairs(draw):
    """(A_kk, A_kj) of bounded rationals; half the time A_kj = -n/2 * A_kk
    for some n up to 8, so that the even sequence often vanishes by m = 8."""
    a_kk = draw(bounded_rationals)
    if draw(st.booleans()):
        return a_kk, Fraction(-draw(st.integers(0, 8)), 2) * a_kk
    return a_kk, draw(bounded_rationals)


@settings(max_examples=100, deadline=None)
@given(pair=bounded_pairs(), parity=st.sampled_from(Parity),
       parity_j=st.sampled_from(Parity), cap=st.integers(0, 8))
def test_relations_oracle_over_q_matches_d_sequence_and_first_zero(pair, parity, parity_j, cap):
    datum = pair_datum(Q, *pair, parity)
    a_kk, a_kj = datum.entry(1, 1), datum.entry(1, 2)
    expected = relation_values(parity, parity_j, a_kk, a_kj, cap)
    seq = d_sequence(datum, 1, 2, cap)
    assert [seq[m].coeffs for m in range(cap + 1)] == expected
    zero = next((m for m, s in enumerate(expected) if not any(s)), None)
    assert _first_zero(parity, 0, a_kk.coeffs, a_kj.coeffs, cap) == zero


@pytest.mark.parametrize("spec", [GF2, GF3, GF4, GF9], ids=str)
def test_d_next_iterated_from_zero_matches_the_relations_oracle(spec):
    last = 2 * spec.characteristic
    for parity, a_kk, a_kj in sweep_pairs(spec):
        d, got = spec.zero(), []
        for m in range(last + 1):
            d = d_next(d, a_kj, a_kk, m, parity)
            got.append(d.coeffs)
        assert got == relation_values(parity, Parity.EVEN, a_kk, a_kj, last)
    with pytest.raises(ValueError):
        d_next(spec.zero(), spec.zero(), spec.zero(), -1, Parity.EVEN)


# --- B in g(A) from the defining relations, against the first-zero rule ----------
#
# The first-zero rule is B_kj in g(A) where its assumption holds, A_kj = 0
# only where A_jk = 0; where A_kj = 0 != A_jk, alpha_j + alpha_k is a root,
# and B_kj in g(A) is the first zero of the d-sequence at m >= 1.

def first_zero_from_1(datum, last):
    """The first m in [1, last] with d_m = 0, None if there is none."""
    seq = d_sequence(datum, 1, 2, last)
    return next((m for m in range(1, last + 1) if not any(seq[m].coeffs)), None)


@pytest.mark.parametrize("spec", [GF3, GF5, GF7, GF9], ids=str)
def test_b_in_g_is_the_first_zero_rule_where_its_assumption_holds(spec):
    # every (i_k, i_j, A_kk, A_kj, A_jk): 4 * q^3 cases; the public routes
    # depend on (i_k, A_kk, A_kj) only, so they run once per triple
    p, last = spec.characteristic, 2 * spec.characteristic - 1
    coeffs = [a.coeffs for a in spec.elements()]
    routes = {}
    for parity, kk, kj in itertools.product(Parity, coeffs, coeffs):
        datum = pair_datum(spec, list(kk), list(kj), parity)
        closed = b_closed(datum, 1, 2)
        assert b_recursive(datum, 1, 2) is closed
        routes[parity, kk, kj] = closed.value, first_zero_from_1(datum, last)
    cases = differ = 0
    for (parity, kk, kj), parity_j, jk in itertools.product(routes, Parity, coeffs):
        closed, from_1 = routes[parity, kk, kj]
        got = b_in_g(parity, parity_j, p, kk, kj, jk, last)
        assumed = any(kj) or not any(jk)
        assert got == (closed if assumed else from_1), (str(spec), parity, parity_j, kk, kj, jk)
        cases += 1
        differ += got != closed
    assert cases == 4 * spec.order ** 3
    assert differ > 0


@settings(max_examples=150, deadline=None)
@given(pair=bounded_pairs(), a_jk=st.one_of(st.just(Fraction(0)), bounded_rationals),
       kj_zero=st.booleans(), parity=st.sampled_from(Parity), parity_j=st.sampled_from(Parity))
def test_b_in_g_over_q_is_the_first_zero_rule_where_its_assumption_holds(
        pair, a_jk, kj_zero, parity, parity_j):
    # the oracle answers up to a cap, so each route is compared below it
    a_kk, a_kj = pair[0], 0 if kj_zero else pair[1]
    cap, datum = 16, pair_datum(Q, a_kk, a_kj, parity)
    closed = b_closed(datum, 1, 2)
    assert b_recursive(datum, 1, 2) is closed
    got = b_in_g(parity, parity_j, 0, *(Q.element(x).coeffs for x in (a_kk, a_kj, a_jk)), cap)
    if a_kj or not a_jk:
        assert got == (closed.value if closed <= cap else None)
    else:
        assert got == first_zero_from_1(datum, cap)


def test_relations_oracle_refuses_a_surviving_h_or_a_bracket_off_x():
    # [f_k, X_1] = [f_k, [e_k, e_j]] = -(-1)^{i_k} A_kj e_j for either parity
    assert relation_scalar(Parity.EVEN, Parity.ODD, 0) == (0, -1)
    assert relation_scalar(Parity.ODD, Parity.EVEN, 0) == (0, 1)
    with pytest.raises(ValueError, match="h_k survives"):
        _multiple_of([(1, 0, -1), (-1, 0, 1)], [1, -1])
    with pytest.raises(ValueError, match="not a multiple"):
        _multiple_of([(0, 1, -1), (0, 0, 1)], [-1, 1])


# --- the integer walk over Q against the Fraction walk ---------------------------

rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@st.composite
def rational_pairs(draw):
    """(A_kk, A_kj) with numerators and denominators up to 10^6; half the
    time A_kj = -n/2 * A_kk for some n up to 300, so that a zero often
    lies within the cap of the test below."""
    a_kk = draw(rationals)
    if draw(st.booleans()):
        return a_kk, Fraction(-draw(st.integers(0, 300)), 2) * a_kk
    return a_kk, draw(rationals)


@settings(max_examples=150)
@given(pair=rational_pairs(), parity=st.sampled_from(Parity), cap=st.integers(0, 300))
def test_integer_walk_over_q_matches_the_fraction_walk(pair, parity, cap):
    a_kk, a_kj = pair
    datum = pair_datum(Q, a_kk, a_kj, parity)
    expected = list(itertools.islice(fraction_walk(a_kj, a_kk, parity), cap + 1))
    zero = next((m for m, d in enumerate(expected) if d == 0), None)
    kk, kj = datum.entry(1, 1).coeffs, datum.entry(1, 2).coeffs
    assert _first_zero(parity, 0, kk, kj, cap) == zero
    assert [d.rational for d in d_sequence(datum, 1, 2, cap).values[1:]] == expected
    steps = itertools.islice(zip(*_walk(parity, 0, kk, kj)), cap + 1)
    assert all(type(c) is int for step in steps for c in step)


def test_q_walk_to_a_cap_of_a_million_is_quick():
    # A_kj / A_kk = 1/2 is no -m/2 for an m >= 0, so the bound is infinite
    # and the walk runs to the cap before the closed form certifies it
    datum = pair_datum(Q, 2, 1, Parity.EVEN)
    start = time.perf_counter()
    assert b_recursive(datum, 1, 2, scan_cap=10**6) == INFINITY
    assert time.perf_counter() - start < 1.5


# --- the zero test: a step is zero when it equals the zero tuple ----------------

def test_first_zero_waits_for_every_coordinate_to_vanish():
    # over GF(3^2) = GF(3)[t]/(t^2 + 1), the even row A_kk = 0, A_kj = t walks
    # d_m = -(m + 1) * t, whose coordinate 0 vanishes at every step
    zero, t = GF9.zero().coeffs, GF9.element([0, 1]).coeffs
    steps = list(itertools.islice(zip(*_walk(Parity.EVEN, 3, zero, t)), 3))
    assert steps == [(0, 2), (0, 1), (0, 0)]
    assert _first_zero(Parity.EVEN, 3, zero, t) == 2
    assert _first_zero(Parity.ODD, 3, zero, t) == 1


@st.composite
def walk_triples(draw):
    """(parity, p, A_kk, A_kj), the entries as coordinate tuples, over GF(p)
    with p < 100, over GF(p^2) or GF(p^3) with p in {2, 3, 5, 7}, or over Q
    as in ``rational_pairs``; a finite field's coordinates are 0 half the
    time, so that some vanish early."""
    parity = draw(st.sampled_from(Parity))
    kind = draw(st.sampled_from(["prime", "extension", "rational"]))
    if kind == "rational":
        a_kk, a_kj = draw(rational_pairs())
        return parity, 0, Q.element(a_kk).coeffs, Q.element(a_kj).coeffs
    if kind == "prime":
        spec = FieldSpec(draw(st.sampled_from([p for p in range(2, 100) if is_prime(p)])))
    else:
        spec = field_for(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(2, 3)))
    p = spec.characteristic
    coords = st.lists(st.one_of(st.just(0), st.integers(0, p - 1)),
                      min_size=spec.degree, max_size=spec.degree)
    return parity, p, spec.element(draw(coords)).coeffs, spec.element(draw(coords)).coeffs


@settings(max_examples=300)
@given(triple=walk_triples(), cap=st.integers(0, 300))
def test_first_zero_is_the_first_step_with_no_nonzero_coordinate(triple, cap):
    parity, p, kk, kj = triple
    steps = itertools.islice(zip(*_walk(parity, p, kk, kj)), 2 * p if p else cap + 1)
    zero = next((m for m, step in enumerate(steps) if not any(step)), None)
    assert zero is not None or not p
    assert _first_zero(parity, p, kk, kj, cap) == zero


# --- the walk at large residues, against the step it replaced ----------------

def _residue_steps(parity, p, kk, kj, n):
    """The first n steps of ``residue_walk`` on each coordinate, as tuples."""
    walks = (residue_walk(a, c, parity.sign, p) for a, c in zip(kk, kj))
    return list(itertools.islice(zip(*walks), n))


@pytest.mark.parametrize("p,top", [(1000003, 2**30), (2**61 - 1, 2**62)])
@pytest.mark.parametrize("parity", Parity)
@pytest.mark.parametrize("seed", range(3))
def test_walk_matches_the_residue_oracle_past_one_digit(p, top, parity, seed):
    # A_kk within 1000 of p, so c = A_kj + m * A_kk passes ``top`` (2^30 is
    # one CPython digit) well before the last step compared
    rng, n = random.Random(seed), 3000
    kk, kj = (p - 1 - rng.randrange(1000),), (rng.randrange(p),)
    assert kj[0] + (n // 2) * kk[0] > top
    assert (list(itertools.islice(zip(*_walk(parity, p, kk, kj)), n))
            == _residue_steps(parity, p, kk, kj, n))


@pytest.mark.parametrize("parity", Parity)
@pytest.mark.parametrize("seed", range(3))
def test_walk_matches_the_residue_oracle_over_an_extension(parity, seed):
    spec, rng, n = field_for(1009, 2), random.Random(seed), 3000
    kk, kj = (spec.element([rng.randrange(1009) for _ in range(2)]).coeffs for _ in range(2))
    assert (list(itertools.islice(zip(*_walk(parity, 1009, kk, kj)), n))
            == _residue_steps(parity, 1009, kk, kj, n))


@pytest.mark.parametrize("p,degree", [(1000003, 1), (2**61 - 1, 1), (1009, 2)])
@pytest.mark.parametrize("parity", Parity)
def test_first_zero_matches_the_residue_oracle_at_large_residues(p, degree, parity):
    # A_kj = c * A_kk with c chosen so that the bound, -2c (even) or
    # 2 * (-c) (odd), is below 10^4; over GF(1009^2) also an independent A_kj
    rng, n = random.Random(p), 10**4
    pairs = []
    for _ in range(5):
        kk, m = tuple(p - 1 - rng.randrange(1000) for _ in range(degree)), rng.randrange(n)
        c = -m * pow(2, -1, p) % p if parity is Parity.EVEN else -(m // 2) % p
        pairs.append((kk, tuple(c * b % p for b in kk)))
        if degree > 1:
            pairs.append((kk, tuple(rng.randrange(p) for _ in range(degree))))
    for kk, kj in pairs:
        zero = _residue_steps(parity, p, kk, kj, n).index((0,) * degree)
        assert _first_zero(parity, p, kk, kj) == zero


# --- the row walk against the per-triple walk ---------------------------------

@pytest.mark.parametrize("p,degree", [
    (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
    (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1), (11, 2)])
def test_row_walk_matches_first_zero_everywhere(p, degree):
    spec = field_for(p, degree)
    coeffs = [a.coeffs for a in spec.elements()]
    for parity in Parity:
        for kk in coeffs:
            assert (_row_walk(parity, p, kk, coeffs)
                    == [_first_zero(parity, p, kk, kj) for kj in coeffs]), (str(spec), parity, kk)


def _prime_from(n):
    return next(m for m in itertools.count(n) if is_prime(m))


@st.composite
def row_walk_fields(draw):
    """GF(p) with p up to about 10^5, its number of digits drawn first, or
    GF(p^2) or GF(p^3) with p between 100 and 300 and a random modulus."""
    if draw(st.booleans()):
        digits = draw(st.integers(1, 5))
        return FieldSpec(_prime_from(draw(st.integers(10 ** (digits - 1) + 1, 10 ** digits))))
    p, degree = _prime_from(draw(st.integers(100, 300))), draw(st.integers(2, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    while True:
        try:
            return FieldSpec(p, degree, (*(rng.randrange(p) for _ in range(degree)), 1))
        except FieldSpecError as exc:
            assert exc.code == "reducible-modulus"


# the triples of one example share their row (i_k, A_kk), asked as one list;
# a row walk at p near 10^5 takes about a third of a second, and so does
# each _first_zero there, so the drawn rows are short
@settings(deadline=None, max_examples=40)
@given(data=st.data(), spec=row_walk_fields(), parity=st.sampled_from(Parity))
def test_row_walk_matches_first_zero_on_random_triples(data, spec, parity):
    p, degree = spec.characteristic, spec.degree
    coords = st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree).map(tuple)
    kk = data.draw(coords)
    # A_kj = c * A_kk is the one A_kj a step with alpha_m != 0 settles
    multiples = st.integers(0, p - 1).map(lambda c: tuple(c * b % p for b in kk))
    kjs = data.draw(st.lists(st.one_of(multiples, coords), min_size=1, max_size=6))
    assert _row_walk(parity, p, kk, kjs) == [_first_zero(parity, p, kk, kj) for kj in kjs]


@pytest.mark.parametrize("seed", range(40))
def test_zero_table_follows_its_definition_on_any_coefficient_walk(monkeypatch, seed):
    # the recursion's own (alpha_m, beta_m) reach each c at most once, and no
    # new c after stop; seeded random pairs over GF(5) need not, so they pin
    # the table's definition, read here without a modular inverse
    p, rng = 5, random.Random(seed)
    walks = [[rng.randrange(p) if rng.random() < 0.8 else 0 for _ in range(2 * p)]
             for _ in range(2)]
    monkeypatch.setattr(cartan, "_walk_coordinate", lambda a, c, sign, p: iter(walks[a]))
    cartan._zero_table.cache_clear()
    try:
        first, stop, flat = cartan._zero_table(Parity.EVEN, p)
    finally:
        cartan._zero_table.cache_clear()
    steps = list(zip(*walks))
    assert stop == next((m for m, step in enumerate(steps) if step == (0, 0)), None)
    assert flat == next((m for m, (alpha, _) in enumerate(steps) if alpha == 0), None)
    expected = {}
    for c in range(p):
        m = next((m for m, (alpha, beta) in enumerate(steps[:stop])
                  if alpha and (alpha * c + beta) % p == 0), None)
        if m is not None:
            expected[c] = m
    assert first == expected
    assert list(first.values()) == sorted(first.values(), reverse=True)


def _raise(*args, **kwargs):
    raise RuntimeError("this route must not be used")


def test_closed_form_does_not_walk(monkeypatch):
    t = GF9.element([0, 1])
    datum = CartanDatum.build(
        GF9, [[1, t, 0, 2], [t, 2, 1, 1], [0, 1, 1, t], [1, 1, 2, 0]], ["ev", "od", "ev", "od"])
    expected = b_table(datum)
    monkeypatch.setattr("rootstrings.cartan._walk", _raise)
    assert b_table(datum) == expected
    with pytest.raises(RuntimeError):
        b_recursive(datum, 1, 2)


@pytest.mark.parametrize("spec", [GF7, GF9], ids=str)
def test_recursion_reads_no_prime_ratio(spec, monkeypatch):
    # the ratio is read only inside the row ladder, so the recursion must
    # never build one
    data = [pair_datum(spec, a_kk, a_kj, parity) for parity, a_kk, a_kj in sweep_pairs(spec)]
    cases = [(datum, b_closed(datum, 1, 2)) for datum in data]
    monkeypatch.setattr("rootstrings.cartan._row_ladder", _raise)
    for datum, closed in cases:
        assert b_recursive(datum, 1, 2) == closed
    with pytest.raises(RuntimeError):
        b_closed(cases[-1][0], 1, 2)


def test_longest_prime_field_walk_through_cli(run_cli, tmp_path):
    # odd row, A_kk = A_kj = 1: c = 1, so B = 2 * (p - 1), the largest bound
    # a prime field allows; the recursion walks all of it
    p = 1000003
    doc = tmp_path / "long.json"
    doc.write_text(json.dumps({"characteristic": p, "matrix": [[1, 1], [1, 2]],
                               "parities": ["od", "ev"]}))
    code, out, err = run_cli("bkj", "--input", str(doc), "--k", "1", "--j", "2")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["b"] == 2 * (p - 1) == 2000004
    assert report["routes"] == {"closed": 2000004, "recursive": 2000004, "agree": True}
