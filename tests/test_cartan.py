import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootstrings.cartan import (
    INFINITY,
    BValue,
    CartanDatum,
    DSequence,
    Parity,
    _row_ladder,
    b_closed,
    b_recursive,
    b_table,
    d_next,
    d_sequence,
    pair_datum,
)
from rootstrings.field import FieldElement, FieldSpec
from rootstrings.reflection import ReflectionUndefinedError, reflect
from rootstrings.selfcheck import sweep_pairs

from oracles import d_closed_even, d_closed_odd

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
    # the ladder's shared bounds 1 and 0 are cached by value, and True == 1,
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
    with pytest.raises(ValueError):
        d_next(GF3.zero(), GF3.zero(), GF3.zero(), -1, Parity.EVEN)


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
    """Wrap the row ladder; returns the lists of ladders built (their parity
    and A_kk) and of evaluations made (A_kj's coordinates)."""
    built, evaluated = [], []

    def counting(parity, a_kk):
        built.append((parity, a_kk))
        ladder = _row_ladder(parity, a_kk)

        def evaluate(kj):
            evaluated.append(kj)
            return ladder(kj)

        return evaluate

    monkeypatch.setattr("rootstrings.cartan._row_ladder", counting)
    return built, evaluated


@pytest.mark.parametrize("spec", [GF3, GF9, Q], ids=str)
def test_b_table_runs_the_ladder_at_most_q_times_per_row(spec, monkeypatch):
    # once per distinct A_kj of a row, j != k: at most q times over GF(q)
    n = 40
    datum = random_datum(spec, n, 3)
    distinct = [len({a for j, a in enumerate(row) if j != k})
                for k, row in enumerate(datum.entries)]
    expected = b_table(datum)
    built, evaluated = count_ladders(monkeypatch)
    assert b_table(datum) == expected
    assert len(built) == n
    assert len(evaluated) == sum(distinct)
    if spec.characteristic:
        assert len(evaluated) <= n * spec.order
    for k in range(1, n + 1):
        evaluated.clear()
        try:
            reflect(datum, k)
        except ReflectionUndefinedError:    # over Q, after the row's bounds
            pass
        assert len(evaluated) == distinct[k - 1]


def test_b_table_over_q_hashes_no_fraction(monkeypatch):
    # a Fraction's hash computes a modular inverse; rows are keyed on the
    # integer pair (numerator, denominator) instead
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
    # equal A_kj give one BValue object, and equal bounds across rows come
    # from the ladder's shared cache
    table = b_table(random_datum(spec, 40, 5))
    for row in table:
        assert len({id(b) for b in row}) == len(set(row))


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
    for y in elems[1:]:
        ladders = {parity: _row_ladder(parity, y) for parity in Parity}
        for x in elems:
            c = (x / y).in_prime_subfield()
            odd = ladders[Parity.ODD](x.coeffs)
            assert odd == (2 * p - 1 if c is None else 2 * (-c % p)), (str(x), str(y))
            if p != 2:
                even = ladders[Parity.EVEN](x.coeffs)
                assert even == (p - 1 if c is None else -2 * c % p), (str(x), str(y))


@given(st.fractions(), st.fractions().filter(bool))
def test_row_ladder_ratio_branch_at_characteristic_zero(x, y):
    a, b = Q.element(x), Q.element(y)
    c = a.rational / b.rational
    for parity, m, scale in [(Parity.EVEN, -2 * c, 1), (Parity.ODD, -c, 2)]:
        expected = scale * int(m) if m.denominator == 1 and m >= 0 else INFINITY
        assert _row_ladder(parity, b)(a.coeffs) == expected


# --- the recursion kernel ----------------------------------------------------

GF1009 = FieldSpec(1009)
GF1009_2 = FieldSpec(1009, 2, (998, 0, 1))     # t^2 - 11; 11 is not a square mod 1009


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


@pytest.mark.parametrize("spec", [GF2, GF4, GF5, GF9, FieldSpec(3, 3, (1, 2, 0, 1))], ids=str)
def test_d_sequence_matches_iterated_d_next(spec):
    last = 2 * spec.characteristic
    for parity, a_kk, a_kj in sweep_pairs(spec):
        seq = d_sequence(pair_datum(spec, a_kk, a_kj, parity), 1, 2, last)
        d = spec.zero()
        for m in range(last + 1):
            d = d_next(d, a_kj, a_kk, m, parity)
            assert seq[m] == d, (spec, parity, str(a_kk), str(a_kj), m)


@pytest.mark.parametrize("a_kk,a_kj", [
    (2, -3), (Fraction(1, 2), Fraction(-3, 2)), (0, 5), (Fraction(-7, 3), 4), (1, 0)])
@pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
def test_d_sequence_matches_iterated_d_next_rationals(a_kk, a_kj, parity):
    datum = pair_datum(Q, a_kk, a_kj, parity)
    seq = d_sequence(datum, 1, 2, 12)
    d = Q.zero()
    for m in range(13):
        d = d_next(d, datum.entry(1, 2), datum.entry(1, 1), m, parity)
        assert seq[m] == d


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
