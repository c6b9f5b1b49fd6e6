import functools
import itertools
import operator
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootstrings.field import (
    MAX_EXTENSION_DEGREE,
    PRIMALITY_LIMIT,
    FieldElement,
    FieldMismatchError,
    FieldSpec,
    FieldSpecError,
    check_irreducible,
    is_prime,
)

from oracles import irreducible_by_trial_division

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)
GF7 = FieldSpec(7)
GF4 = FieldSpec(2, 2, (1, 1, 1))
GF9 = FieldSpec(3, 2, (1, 0, 1))
GF125 = FieldSpec(5, 3, (1, 1, 0, 1))
GF256 = FieldSpec(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))
Q = FieldSpec(0)

SMALL_FIELDS = [GF2, GF3, GF5, GF4, GF9]


def test_is_prime():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    for n in (7.0, "7", True, Fraction(7)):          # refused, not converted
        with pytest.raises(TypeError):
            is_prime(n)


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division_below_20000():
    assert [n for n in range(20000) if is_prime(n)] == [
        n for n in range(20000) if _trial_division(n)]


@pytest.mark.parametrize("n", [
    3215031751,                  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,         # strong pseudoprime to the first 9 prime bases
    318665857834031151167461,    # psi_12: strong pseudoprime to the first 12
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_refuses_at_the_exactness_bound():
    assert is_prime(3317044064679887385961813)    # the largest prime below it
    with pytest.raises(ValueError, match=str(PRIMALITY_LIMIT)):
        is_prime(PRIMALITY_LIMIT)
    with pytest.raises(FieldSpecError, match=str(PRIMALITY_LIMIT)) as info:
        FieldSpec(PRIMALITY_LIMIT)
    assert info.value.code == "bad-characteristic"


# --- field construction ---------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(characteristic=4),                             # not prime
    dict(characteristic=0, degree=2),                   # Q has no extensions
    dict(characteristic=0, modulus=(1, 0, 1)),
    dict(characteristic=3, degree=0),
    dict(characteristic=3, degree=MAX_EXTENSION_DEGREE + 1),
    dict(characteristic=3, degree=1, modulus=(1, 1)),   # degree 1 takes none
    dict(characteristic=3, degree=2),                   # missing modulus
    dict(characteristic=3, degree=2, modulus=(1, 0, 0, 1)),  # wrong length
    dict(characteristic=3, degree=2, modulus=(1, 0, 2)),     # not monic
    dict(characteristic=3, degree=2, modulus=(1, 3, 1)),     # unreduced coeff
    dict(characteristic=2, degree=2, modulus=(1, 0, 1)),     # (t+1)^2, reducible
    dict(characteristic=3.0),                           # not an integer
    dict(characteristic="3"),
    dict(characteristic=True),
    dict(characteristic=3, degree=2.0, modulus=(1, 0, 1)),
    dict(characteristic=3, degree=2, modulus=(1.5, 0, 1)),   # non-integer coeffs
    dict(characteristic=3, degree=2, modulus=("1", 0, 1)),
    dict(characteristic=3, degree=2, modulus=(True, 0, 1)),
    dict(characteristic=3, degree=2, modulus=5),
])
def test_bad_specs_rejected(kwargs):
    with pytest.raises(FieldSpecError):
        FieldSpec(**kwargs)


def test_extension_spec_decides_primality_once(count_calls):
    calls = count_calls(is_prime)
    FieldSpec(7, 2, (1, 0, 1))
    assert calls == [(7,)]


def test_spec_str_and_order():
    assert str(GF3) == "GF(3)"
    assert str(GF9) == "GF(3^2)"
    assert str(Q) == "Q"
    assert GF9.order == 9
    assert GF125.order == 125
    with pytest.raises(ValueError):
        Q.order


def test_check_irreducible():
    assert check_irreducible((1, 1, 1), 2)          # t^2 + t + 1
    assert not check_irreducible((1, 0, 1), 2)      # (t + 1)^2
    assert check_irreducible((1, 0, 1), 3)          # t^2 + 1, -1 not a square
    assert not check_irreducible((1, 0, 1), 5)      # (t + 2)(t + 3)
    assert check_irreducible((1, 1, 0, 1), 5)
    assert not check_irreducible((1, 0, 1, 0, 1), 2)  # (t^2 + t + 1)^2, no root
    with pytest.raises(ValueError):
        check_irreducible((1, 1, 1), 4)
    with pytest.raises(ValueError):
        check_irreducible((1, 1, 2), 3)              # not monic
    with pytest.raises(ValueError):
        check_irreducible((1, 1), 3)                 # degree too small
    for modulus, p in [((1.5, 0, 1), 3), (("1", 0, 1), 3), ((True, 0, 1), 3),
                       ((1, 0, 1), 3.0), ((1, 0, 1), True)]:
        with pytest.raises(TypeError):               # refused, not converted
            check_irreducible(modulus, p)


@pytest.mark.parametrize("p,degree", [(2, k) for k in range(2, 9)] + [(3, k) for k in range(2, 6)]
                         + [(5, k) for k in range(2, 5)] + [(7, 2), (7, 3)])
def test_check_irreducible_agrees_with_trial_division(p, degree):
    for tail in itertools.product(range(p), repeat=degree):
        modulus = tail + (1,)
        assert check_irreducible(modulus, p) == irreducible_by_trial_division(modulus, p), modulus


#: The largest prime below PRIMALITY_LIMIT.
PRIME_25_DIGITS = 3317044064679887385961813

#: Irreducible moduli drawn once with bench/gf.py's
#: random_irreducible(random.Random(8), p, k), in this order.  Trial division
#: would take seconds on the first, hours on the second and third, and far
#: longer on the last.
LARGE_IRREDUCIBLE_MODULI = [
    (31, (7, 11, 30, 12, 4, 6, 22, 1, 1)),
    (1009, (87, 140, 253, 830, 1)),
    (101, (97, 2, 89, 34, 66, 52, 60, 48, 1)),
    (PRIME_25_DIGITS, (2549792362574847926590229, 2360971194696771839981663,
                       917228617240603801733904, 678893910174108430521004,
                       3182900582783350892015695, 1573698219930573435450033,
                       14210745258827422613918, 2413107794804744612360683, 1)),
]

#: Two irreducible quartics at PRIME_25_DIGITS, drawn next from the same
#: generator; their product is reducible but has no linear factor.
QUARTICS_25_DIGITS = [
    (859769020124824075986367, 2084352397297732880424586,
     403063589167540984067444, 1083111745979429885661123, 1),
    (948654200790449002724307, 2965098090323632438255513,
     386254692761648576743896, 1948234091596666700428640, 1),
]


@pytest.mark.parametrize("p,modulus", LARGE_IRREDUCIBLE_MODULI,
                         ids=lambda v: f"p{v}" if isinstance(v, int) else f"degree{len(v) - 1}")
def test_large_extension_validates_within_a_second(p, modulus):
    start = time.perf_counter()
    spec = FieldSpec(p, len(modulus) - 1, modulus)
    assert time.perf_counter() - start < 1.0
    assert spec.modulus == modulus


def test_large_reducible_modulus_refused_within_a_second():
    f, g = QUARTICS_25_DIGITS
    product = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            product[i + j] = (product[i + j] + fi * gj) % PRIME_25_DIGITS
    start = time.perf_counter()
    with pytest.raises(FieldSpecError) as info:
        FieldSpec(PRIME_25_DIGITS, 8, product)
    assert time.perf_counter() - start < 1.0
    assert info.value.code == "reducible-modulus"


# --- element coercion -----------------------------------------------------

def test_integer_coercion_reduces_mod_p():
    assert GF5.element(7) == GF5.element(2)
    assert GF5.element(-1) == GF5.element(4)
    assert GF9.element(5).coeffs == (2, 0)


def test_coefficient_lists_pad_and_reduce():
    assert GF9.element([4]).coeffs == (1, 0)
    assert GF9.element([0, 1]).coeffs == (0, 1)
    assert GF125.element([1, 2]).coeffs == (1, 2, 0)
    with pytest.raises(ValueError):
        GF9.element([1, 2, 3])
    with pytest.raises(TypeError):
        GF9.element([1, "t"])


def test_rationals_only_at_characteristic_zero():
    assert Q.element(Fraction(1, 3)).rational == Fraction(1, 3)
    assert Q.element(-2).rational == Fraction(-2)
    with pytest.raises(TypeError):
        GF5.element(Fraction(1, 3))


def test_booleans_rejected():
    with pytest.raises(TypeError):
        GF5.element(True)
    with pytest.raises(TypeError):
        Q.element(False)
    with pytest.raises(TypeError):
        GF9.element([True, 0])


def test_cross_field_mixing_raises():
    with pytest.raises(FieldMismatchError):
        GF5.element(GF3.element(1))
    with pytest.raises(FieldMismatchError):
        GF3.element(1) + GF5.element(1)
    with pytest.raises(FieldMismatchError):
        GF4.element(1) * GF9.element(1)


def test_element_validation():
    with pytest.raises(ValueError):
        FieldElement(GF5, (5,))      # unreduced residue
    with pytest.raises(ValueError):
        FieldElement(GF9, (1,))      # wrong coordinate count
    with pytest.raises(ValueError):
        FieldElement(Q, (1,))        # needs a Fraction
    assert FieldElement(Q, (Fraction(1, 2),)).rational == Fraction(1, 2)


# --- field axioms, exhaustively on small fields ----------------------------

@pytest.mark.parametrize("spec", SMALL_FIELDS, ids=str)
def test_enumeration_matches_order(spec):
    elems = list(spec.elements())
    assert len(elems) == spec.order
    assert len(set(elems)) == spec.order


@pytest.mark.parametrize("spec", SMALL_FIELDS, ids=str)
def test_additive_and_multiplicative_identities(spec):
    zero, one = spec.zero(), spec.one()
    for a in spec.elements():
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        assert a - a == zero


@pytest.mark.parametrize("spec", SMALL_FIELDS, ids=str)
def test_commutativity_all_pairs(spec):
    elems = list(spec.elements())
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a


@pytest.mark.parametrize("spec", SMALL_FIELDS, ids=str)
def test_associativity_and_distributivity_all_triples(spec):
    elems = list(spec.elements())
    for a in elems:
        for b in elems:
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


# degree 8 is MAX_EXTENSION_DEGREE
@pytest.mark.parametrize("spec", [*SMALL_FIELDS, GF125, GF256], ids=str)
def test_inverses_and_division(spec):
    one = spec.one()
    for a in spec.elements():
        if not a:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            continue
        assert a * a.inverse() == one
        assert (one / a) * a == one
        assert a / a == one


@pytest.mark.parametrize("spec", [GF5, GF4, GF9, GF125, GF256])
def test_lagrange_power_identities(spec):
    q = spec.order
    for a in spec.elements():
        assert a**0 == spec.one()
        assert a**q == a
        if a:
            assert a ** (q - 1) == spec.one()
            assert a**-1 == a.inverse()


@pytest.mark.parametrize("spec", [GF2, GF7, Q, GF9, GF256], ids=str)
@pytest.mark.parametrize("e", [1, 2, 255])
def test_zero_to_a_negative_power_divides_by_zero(spec, e):
    with pytest.raises(ZeroDivisionError, match=rf"^division by zero in {re.escape(str(spec))}$"):
        spec.zero() ** -e


def test_integer_operands_coerce_in_arithmetic():
    a = GF5.element(3)
    assert a + 4 == GF5.element(2)
    assert 4 + a == GF5.element(2)
    assert 2 * a == GF5.element(1)
    assert 1 - a == GF5.element(3)
    assert 6 / GF5.element(2) == GF5.element(3)


# every operator that takes a second operand coerces it through FieldSpec.element
BINARY_OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv]
BINARY_METHODS = ["__add__", "__radd__", "__sub__", "__rsub__",
                  "__mul__", "__rmul__", "__truediv__", "__rtruediv__"]
# (field, a nonzero element of it, an element of another field)
OPERAND_CASES = [
    (GF7, GF7.element(3), GF5.element(1)),
    (GF9, GF9.element([1, 2]), FieldSpec(3, 2, (2, 2, 1)).element([1, 2])),
    (Q, Q.element(Fraction(2, 3)), GF7.element(1)),
]
operand_cases = pytest.mark.parametrize("spec,x,foreign", OPERAND_CASES,
                                        ids=[str(case[0]) for case in OPERAND_CASES])


@pytest.mark.parametrize("method", ["__add__", "__sub__", "__rsub__",
                                    "__mul__", "__truediv__", "__rtruediv__"])
def test_coerced_operators_keep_their_names(method):
    # tracebacks and help(FieldElement) name the operator, not its coercion
    assert getattr(FieldElement, method).__qualname__ == f"FieldElement.{method}"


@operand_cases
@pytest.mark.parametrize("op", BINARY_OPERATORS, ids=lambda op: op.__name__)
def test_int_operand_acts_as_its_image(spec, x, foreign, op):
    # 5, -4 and 10**30 have nonzero images in GF(7), GF(9) and Q
    for n in (5, -4, 10**30):
        assert op(x, n) == op(x, spec.element(n))
        assert op(n, x) == op(spec.element(n), x)


@operand_cases
@pytest.mark.parametrize("method", BINARY_METHODS)
def test_operand_of_another_field_raises_mismatch(spec, x, foreign, method):
    with pytest.raises(FieldMismatchError):
        getattr(x, method)(foreign)


@operand_cases
@pytest.mark.parametrize("value", [True, 1.5, Fraction(1, 2), "1", None], ids=repr)
def test_operand_neither_element_nor_int_raises_type_error(spec, x, foreign, value):
    for method in BINARY_METHODS:
        assert getattr(x, method)(value) is NotImplemented
    for op in BINARY_OPERATORS:
        with pytest.raises(TypeError):
            op(x, value)
        with pytest.raises(TypeError):
            op(value, x)
    with pytest.raises(TypeError):      # an exponent must be an int too
        x ** value


# --- prime subfield -------------------------------------------------------

@pytest.mark.parametrize("spec", [GF4, GF9, GF125])
def test_prime_subfield_membership_matches_frobenius(spec):
    p = spec.characteristic
    for a in spec.elements():
        residue = a.in_prime_subfield()
        # Frobenius fixes exactly the prime subfield
        assert (a**p == a) == (residue is not None)
        if residue is not None:
            assert spec.element(residue) == a
            assert 0 <= residue < p


def test_rationals_cannot_be_enumerated():
    with pytest.raises(ValueError, match="cannot enumerate"):
        next(Q.elements())


def test_prime_subfield_on_prime_field_is_total():
    for a in GF7.elements():
        assert a.in_prime_subfield() == a.coeffs[0]


def test_prime_subfield_rejects_characteristic_zero():
    with pytest.raises(ValueError):
        Q.element(1).in_prime_subfield()


def test_rational_property_needs_characteristic_zero():
    with pytest.raises(ValueError):
        GF5.element(1).rational


# --- characteristic 0 -----------------------------------------------------

def test_rational_arithmetic_is_exact():
    a = Q.element(Fraction(1, 3))
    b = Q.element(Fraction(1, 6))
    assert (a + b).rational == Fraction(1, 2)
    assert (a - b).rational == Fraction(1, 6)
    assert (a * b).rational == Fraction(1, 18)
    assert (a / b).rational == Fraction(2)
    assert (a**3).rational == Fraction(1, 27)
    assert (a**-2).rational == Fraction(9)
    assert (-a).rational == Fraction(-1, 3)


def test_str_formats():
    assert str(GF5.element(3)) == "3"
    assert str(Q.element(Fraction(1, 2))) == "1/2"
    assert str(GF9.element([0, 1])) == "t"
    assert str(GF9.element([2, 1])) == "2 + t"
    assert str(GF125.element([0, 2, 1])) == "2*t + t^2"
    assert str(GF9.zero()) == "0"


# --- randomized axioms ----------------------------------------------------

gf125_elements = st.lists(st.integers(0, 4), min_size=3, max_size=3).map(GF125.element)


@given(gf125_elements, gf125_elements, gf125_elements)
def test_random_axioms_gf125(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    if b:
        assert (a / b) * b == a


@given(st.sampled_from([2, 3, 5, 7]), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_integer_image_is_a_ring_map(p, n, m):
    spec = FieldSpec(p)
    assert spec.element(n) + spec.element(m) == spec.element(n + m)
    assert spec.element(n) * spec.element(m) == spec.element(n * m)
    assert spec.element(n).coeffs[0] == n % p


@given(st.fractions(), st.fractions())
def test_random_rational_arithmetic(x, y):
    a, b = Q.element(x), Q.element(y)
    assert (a + b).rational == x + y
    assert (a * b).rational == x * y
    assert (a - b).rational == x - y


def _elements_of(spec):
    if spec.characteristic == 0:
        return st.fractions().map(spec.element)
    return st.lists(st.integers(0, spec.characteristic - 1),
                    min_size=spec.degree, max_size=spec.degree).map(spec.element)


@pytest.mark.parametrize("spec", [GF7, GF9, GF125, Q], ids=str)
@given(data=st.data(), n=st.integers() | st.integers(-10**40, 10**40))
def test_integer_scaling_matches_field_product(spec, data, n):
    x = data.draw(_elements_of(spec))
    assert n * x == spec.element(n) * x == x * n


@given(st.sampled_from([GF2, GF3, GF7, FieldSpec(1000003), Q]).flatmap(_elements_of),
       st.integers(0, 40))
def test_prime_and_rational_powers_are_repeated_products(x, e):
    one = x.spec.one()
    assert x**e == functools.reduce(operator.mul, itertools.repeat(x, e), one)
    if x:
        assert x**-e * x**e == one
