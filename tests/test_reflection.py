import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rootstrings.cartan import (
    INFINITY,
    BValue,
    CartanDatum,
    Parity,
    b_recursive,
    b_table,
    pair_datum,
)
from rootstrings.field import FieldSpec
from rootstrings.reflection import (
    ReflectionResult,
    ReflectionUndefinedError,
    RootVector,
    basis_determinant,
    reflect,
    unimodularity_check,
)

GF3 = FieldSpec(3)
GF9 = FieldSpec(3, 2, (1, 0, 1))
GF7 = FieldSpec(7)
GF101 = FieldSpec(101)
GF125 = FieldSpec(5, 3, (1, 1, 0, 1))
Q = FieldSpec(0)


def naive_determinant(matrix):
    """Cofactor expansion along the first row; independent of the Bareiss code."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for col in range(n):
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        total += (-1) ** col * matrix[0][col] * naive_determinant(minor)
    return total


# --- RootVector ---------------------------------------------------------------

def test_simple_roots_and_arithmetic():
    a1 = RootVector.simple(3, 1)
    a3 = RootVector.simple(3, 3)
    assert a1.coords == (1, 0, 0)
    assert (-a1).coords == (-1, 0, 0)
    assert (a1 + a3.scaled(2)).coords == (1, 0, 2)
    assert (a3 - a1).coords == (-1, 0, 1)
    with pytest.raises(IndexError):
        RootVector.simple(3, 4)
    with pytest.raises(IndexError):
        RootVector.simple(3, 0)
    with pytest.raises(ValueError):
        a1 + RootVector.simple(2, 1)
    with pytest.raises(TypeError):      # a tuple is not a root vector
        RootVector((1, 2)) + (1, 2)
    with pytest.raises(TypeError):
        RootVector((1, 2)) - (1, 2)


@pytest.mark.parametrize("coords", [(1.7, 3, 1), (1, "3", 1), (1, 3, True), [0, 2.0]])
def test_root_vector_refuses_non_int_coordinates(coords):
    with pytest.raises(TypeError):
        RootVector(coords)


def test_root_vector_keeps_int_coordinates():
    assert RootVector([1, -3, 10**30]).coords == (1, -3, 10**30)
    with pytest.raises(TypeError):
        RootVector.simple(3, 1).scaled(0.5)


# --- determinants ---------------------------------------------------------------

def test_basis_determinant_small_cases():
    assert basis_determinant(((1, 0), (0, 1))) == 1
    assert basis_determinant(((0, 1), (1, 0))) == -1
    assert basis_determinant(((2, 4), (1, 2))) == 0
    assert basis_determinant(((-1, 2), (0, 1))) == -1
    assert basis_determinant(((1, 2, 3), (4, 5, 6), (7, 8, 10))) == -3
    assert basis_determinant(()) == 1
    with pytest.raises(ValueError):
        basis_determinant(((1, 2),))


@pytest.mark.parametrize("matrix", [
    [[1.7]],
    [["3"]],
    [[True, 0], [0, 2]],
    [[1, 0], [0, 2.9]],
    [[1, 0, 0], [0, 1, 0], [0, 0, Fraction(2)]],
], ids=repr)
def test_basis_determinant_refuses_non_int_entries(matrix):
    # as for RootVector: a float, a string or a bool is refused, not converted
    with pytest.raises(TypeError):
        basis_determinant(matrix)


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n),
        min_size=n, max_size=n)))
def test_basis_determinant_matches_cofactor_expansion(matrix):
    assert basis_determinant(matrix) == naive_determinant(matrix)


def square_matrices(max_n, entries):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


# mostly zeros, so many rows skip their update; the integers give pivots
# other than +-1, among them equal consecutive ones
@given(square_matrices(6, st.one_of(st.just(0), st.just(0), st.integers(-6, 6))))
@example([[2, 0, 5], [0, 1, 3], [1, 0, 4]])    # pivot = prev = 2 with a zero below it
@example([[3, 0, 0, 0], [0, 1, 0, 2], [0, 0, 1, 0], [0, 0, 0, 1]])
def test_basis_determinant_of_sparse_matrices_matches_cofactor_expansion(matrix):
    assert basis_determinant(matrix) == naive_determinant(matrix)


def random_reflection(n, seed):
    rng = random.Random(seed)
    elements = list(GF7.elements())
    rows = [[rng.choice(elements) for _ in range(n)] for _ in range(n)]
    datum = CartanDatum(GF7, rows, tuple(rng.choice(list(Parity)) for _ in range(n)))
    return reflect(datum, rng.randint(1, n))


def test_reflect_basis_determinant_is_minus_one_up_to_rank_40():
    for n in range(1, 41):
        assert basis_determinant(random_reflection(n, n).basis_matrix) == -1


def test_reflect_basis_determinant_is_fast_at_rank_400():
    # O(n^2) once rows with a zero below an unchanged pivot are skipped;
    # full Bareiss elimination at this rank takes seconds
    matrix = random_reflection(400, 400).basis_matrix
    start = time.perf_counter()
    assert basis_determinant(matrix) == -1
    assert time.perf_counter() - start < 1.0


# --- reflect on worked examples ---------------------------------------------------

def test_reflect_prime_field_example():
    datum = CartanDatum.build(GF3, [[0, 1], [1, 0]], ["ev", "ev"])
    result = reflect(datum, 1)
    assert result.k == 1
    assert result.b_row == (None, BValue(2))
    assert [v.coords for v in result.sigma] == [(-1, 0), (2, 1)]
    assert result.basis_matrix == ((-1, 2), (0, 1))
    assert basis_determinant(result.basis_matrix) == -1


def test_reflect_extension_field_example():
    t = GF9.element([0, 1])
    datum = CartanDatum.build(GF9, [[1, t], [t, 2]], ["ev", "od"])
    first = reflect(datum, 1)
    assert [v.coords for v in first.sigma] == [(-1, 0), (2, 1)]
    second = reflect(datum, 2)
    # B_21 = 5: the odd 2p - 1 branch
    assert second.b_row == (BValue(5), None)
    assert [v.coords for v in second.sigma] == [(1, 5), (0, -1)]
    assert basis_determinant(second.basis_matrix) == -1


def test_reflect_characteristic_zero_example():
    datum = CartanDatum.build(Q, [[2, -1], [-1, 2]], ["ev", "ev"])
    result = reflect(datum, 1)
    assert [v.coords for v in result.sigma] == [(-1, 0), (1, 1)]
    assert basis_determinant(result.basis_matrix) == -1


def test_reflect_rank_one():
    datum = CartanDatum.build(Q, [[2]], ["ev"])
    result = reflect(datum, 1)
    assert result.b_row == (None,)
    assert result.sigma[0].coords == (-1,)
    assert result.basis_matrix == ((-1,),)
    assert basis_determinant(result.basis_matrix) == -1


def test_reflect_bad_index():
    datum = CartanDatum.build(GF3, [[0, 1], [1, 0]], ["ev", "ev"])
    with pytest.raises(IndexError):
        reflect(datum, 0)
    with pytest.raises(IndexError):
        reflect(datum, 3)


def test_reflect_infinite_bound_is_an_error():
    datum = CartanDatum.build(Q, [[2, 1], [1, 2]], ["ev", "ev"])
    with pytest.raises(ReflectionUndefinedError) as info:
        reflect(datum, 1)
    assert info.value.k == 1
    assert info.value.j == 2
    assert "infinite" in str(info.value)
    # row 3 has infinite bounds at j = 2 and j = 4, and a finite one at j = 1
    datum = CartanDatum.build(
        Q, [[2, -1, 0, 0], [-1, 2, -1, 0], [-2, 1, 2, 3], [0, 0, -1, 2]], ["ev"] * 4)
    assert b_table(datum)[2] == (BValue(2), INFINITY, None, INFINITY)
    with pytest.raises(ReflectionUndefinedError) as info:
        reflect(datum, 3)
    assert (info.value.k, info.value.j) == (3, 2)


def test_unimodularity_check_rejects_corrupted_matrix():
    datum = CartanDatum.build(GF3, [[0, 1], [1, 0]], ["ev", "ev"])
    good = reflect(datum, 1)
    doubled = tuple(tuple(2 * entry if col == 0 else entry
                          for col, entry in enumerate(row))
                    for row in good.basis_matrix)
    corrupted = ReflectionResult(
        k=good.k, b_row=good.b_row, sigma=good.sigma, basis_matrix=doubled)
    assert basis_determinant(doubled) == -2
    assert not unimodularity_check(corrupted)


# --- randomized structure ----------------------------------------------------------

def assert_reflection_structure(datum, k):
    n = datum.n
    result = reflect(datum, k)
    assert result.b_row == b_table(datum)[k - 1]
    assert result.sigma[k - 1] == -RootVector.simple(n, k)
    for j in range(1, n + 1):
        if j == k:
            continue
        delta = result.sigma[j - 1] - RootVector.simple(n, j)
        b = b_recursive(datum, k, j)   # the independent route
        assert delta == RootVector.simple(n, k).scaled(int(b))
    assert basis_determinant(result.basis_matrix) == -1


def test_reflection_structure_random_data():
    rng = random.Random(1729)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        spec = FieldSpec(p)
        n = rng.randint(2, 4)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        parities = [rng.choice(["ev", "od"]) for _ in range(n)]
        datum = CartanDatum.build(spec, rows, parities)
        assert_reflection_structure(datum, rng.randint(1, n))
    for spec in (GF9, GF125, GF101):
        elements = list(spec.elements())
        for n in (5, 17, 30):
            rows = [[rng.choice(elements) for _ in range(n)] for _ in range(n)]
            datum = CartanDatum(spec, rows, tuple(rng.choice(list(Parity)) for _ in range(n)))
            for k in (1, rng.randint(1, n), n):
                assert_reflection_structure(datum, k)


def test_reflect_is_deterministic():
    datum = pair_datum(GF9, GF9.element([0, 1]), GF9.element([1, 1]), Parity.ODD)
    assert reflect(datum, 1) == reflect(datum, 1)
