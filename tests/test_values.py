"""Public behaviour of the package's seven value types: equality and hashing,
repr, immutability, copying and pickling, ``BValue`` ordering, and the
fields that pattern matching binds.  Each type is checked on a value, an
equal twin built another way, and a different value of the same type."""

import copy
import pickle
from fractions import Fraction

import pytest

from rootstrings import (
    INFINITY,
    BValue,
    CartanDatum,
    DSequence,
    FieldElement,
    FieldSpec,
    FieldSpecError,
    Parity,
    ReflectionResult,
    RootVector,
    d_sequence,
    reflect,
)

GF3 = FieldSpec(3)
GF9 = FieldSpec(3, 2, (2, 2, 1))
DATUM = CartanDatum.build(GF3, [[2, 1], [0, 2]], ["ev", "od"])
GF3_REPR = "FieldSpec(characteristic=3, degree=1, modulus=None)"


def _element(c):
    return f"FieldElement(spec={GF3_REPR}, coeffs=({c},))"


# (value, an equal twin built another way, a different value of the same type)
CASES = {
    "FieldSpec": (GF9, FieldSpec(3, 2, [2, 2, 1]), FieldSpec(3)),
    "FieldElement": (FieldElement(GF9, (1, 2)), GF9.element([1, 2]), GF9.element([2, 1])),
    "BValue": (BValue(3), BValue(3), INFINITY),
    "CartanDatum": (
        DATUM,
        CartanDatum(GF3, [[GF3.element(2), GF3.element(1)], [GF3.zero(), GF3.element(2)]],
                    [Parity.EVEN, Parity.ODD]),
        CartanDatum.build(GF3, [[2, 1], [0, 2]], ["ev", "ev"]),
    ),
    "DSequence": (
        d_sequence(DATUM, 1, 2, 2),
        DSequence(1, 2, tuple(map(GF3.element, (0, 2, 2, 0)))),
        d_sequence(DATUM, 1, 2, 3),
    ),
    "RootVector": (RootVector((2, 1)), RootVector([2, 1]), RootVector((1, 2))),
    "ReflectionResult": (
        reflect(DATUM, 1),
        ReflectionResult(k=1, b_row=(None, BValue(2)),
                         sigma=(RootVector((-1, 0)), RootVector((2, 1))),
                         basis_matrix=((-1, 2), (0, 1))),
        reflect(DATUM, 2),
    ),
}

REPRS = {
    "FieldSpec": "FieldSpec(characteristic=3, degree=2, modulus=(2, 2, 1))",
    "FieldElement": "FieldElement(spec=FieldSpec(characteristic=3, degree=2, "
                    "modulus=(2, 2, 1)), coeffs=(1, 2))",
    "BValue": "BValue(3)",
    "CartanDatum": f"CartanDatum(spec={GF3_REPR}, coords=(((2,), (1,)), ((0,), (2,))), "
                   "parities=(<Parity.EVEN: 'ev'>, <Parity.ODD: 'od'>))",
    "DSequence": f"DSequence(k=1, j=2, values=({_element(0)}, {_element(2)}, "
                 f"{_element(2)}, {_element(0)}))",
    "RootVector": "RootVector(coords=(2, 1))",
    "ReflectionResult": "ReflectionResult(k=1, b_row=(None, BValue(2)), "
                        "sigma=(RootVector(coords=(-1, 0)), RootVector(coords=(2, 1))), "
                        "basis_matrix=((-1, 2), (0, 1)))",
}

MATCH_ARGS = {
    "FieldSpec": ("characteristic", "degree", "modulus"),
    "FieldElement": ("spec", "coeffs"),
    "BValue": ("value",),
    "CartanDatum": ("spec", "coords", "parities"),
    "DSequence": ("k", "j", "values"),
    "RootVector": ("coords",),
    "ReflectionResult": ("k", "b_row", "sigma", "basis_matrix"),
}

NAMES = sorted(CASES)


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_hash_equal(name):
    value, twin, other = CASES[name]
    assert value is not twin
    assert type(value) is type(twin) is type(other)
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert value != other and not value == other
    assert value != object() and value != "x"


def test_bvalue_equals_and_hashes_like_its_int():
    assert BValue(3) == 3 and 3 == BValue(3)
    assert hash(BValue(3)) == hash(3)
    assert BValue(None) == INFINITY and hash(BValue(None)) == hash(INFINITY)
    assert {BValue(0): "a"}[0] == "a"


def test_spec_normalises_its_modulus_to_a_tuple():
    assert FieldSpec(3, 2, [2, 2, 1]).modulus == (2, 2, 1)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_field_listing(name):
    assert repr(CASES[name][0]) == REPRS[name]


def test_repr_of_infinity_and_rationals():
    assert repr(INFINITY) == "BValue(None)"
    assert repr(FieldSpec(0).element(Fraction(1, 2))) == (
        "FieldElement(spec=FieldSpec(characteristic=0, degree=1, modulus=None), "
        "coeffs=(Fraction(1, 2),))")


@pytest.mark.parametrize("name", NAMES)
def test_values_refuse_assignment_and_deletion(name):
    value = CASES[name][0]
    before = repr(value)
    for field in MATCH_ARGS[name]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


DUPLICATES = pytest.mark.parametrize(
    "duplicate", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"])


@pytest.mark.parametrize("name", NAMES)
@DUPLICATES
def test_copies_and_pickles_are_equal(name, duplicate):
    value = CASES[name][0]
    twin = duplicate(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)
    assert repr(twin) == repr(value)


@DUPLICATES
def test_copies_and_pickles_rerun_no_check(duplicate, monkeypatch):
    # a copy is rebuilt by _trusted, so no public constructor runs: not the
    # checks of __init__, nor FieldElement's __post_init__ behind it
    def refuse(self, *args):
        raise AssertionError(f"{type(self).__name__} checked again")

    for value, _, _ in CASES.values():
        monkeypatch.setattr(type(value), "__init__", refuse)
    for value, _, _ in CASES.values():
        assert duplicate(value) == value


@pytest.mark.parametrize("name", NAMES)
def test_unchecked_constructor_refuses_a_wrong_field_count(name):
    cls, n = type(CASES[name][0]), len(MATCH_ARGS[name])
    assert cls._trusted(*range(n)).__match_args__ == MATCH_ARGS[name]
    for count in (n - 1, n + 1):
        with pytest.raises(ValueError):
            cls._trusted(*range(count))


def test_pickled_infinity_stays_infinite():
    assert not pickle.loads(pickle.dumps(INFINITY)).is_finite


def test_bvalue_orders_against_ints_and_infinity():
    assert BValue(2) < 3 and 3 > BValue(2)
    assert BValue(3) <= 3 and BValue(3) >= 3
    assert 1 < BValue(2) <= BValue(2) < INFINITY
    assert INFINITY > 10**100 and 10**100 < INFINITY
    assert INFINITY >= INFINITY and INFINITY <= INFINITY and not INFINITY < INFINITY
    assert sorted([INFINITY, 5, BValue(1), 0, BValue(4)]) == [0, BValue(1), BValue(4), 5, INFINITY]
    assert max(BValue(7), BValue(9), INFINITY) is INFINITY
    with pytest.raises(TypeError):
        BValue(1) < "2"
    with pytest.raises(TypeError):
        BValue(1) < 1.5


@pytest.mark.parametrize("name", NAMES)
def test_match_args_keep_the_field_order(name):
    value = CASES[name][0]
    assert type(value).__match_args__ == MATCH_ARGS[name]
    assert [getattr(value, field) for field in MATCH_ARGS[name]]


def test_match_binds_fields_by_position():
    match GF9.element([1, 2]):
        case FieldElement(spec, (a, b)):
            assert (spec, a, b) == (GF9, 1, 2)
        case _:
            pytest.fail("no match")
    match reflect(DATUM, 1):
        case ReflectionResult(k, (None, BValue(value)), _, matrix):
            assert (k, value, matrix) == (1, 2, ((-1, 2), (0, 1)))
        case _:
            pytest.fail("no match")


GF5 = FieldSpec(5)
Q = FieldSpec(0)


# (constructor arguments, exception type, message); where an input breaks
# two rules, the first rule checked is the one that words the refusal
REFUSALS = {
    "bvalue-float": (lambda: BValue(1.5), ValueError, "finite bounds are integers"),
    "bvalue-bool": (lambda: BValue(True), ValueError, "finite bounds are integers"),
    "bvalue-str": (lambda: BValue("1"), ValueError, "finite bounds are integers"),
    "bvalue-negative": (lambda: BValue(-1), ValueError, "bounds are non-negative"),
    "datum-rank-0": (lambda: CartanDatum(GF3, (), ()), ValueError, "rank must be positive"),
    "datum-ragged": (lambda: CartanDatum(GF3, ((GF3.one(), 1), (GF3.one(),)), "ab"),
                     ValueError, "matrix must be square of size 2"),
    "datum-int-entry": (lambda: CartanDatum(GF3, ((1, GF5.one()), (1, 1)), (1, 1)),
                        TypeError, "matrix entries must be field elements"),
    "datum-foreign-entry": (lambda: CartanDatum(GF3, ((GF5.one(),),), (1,)),
                            ValueError, "all entries must share the datum's field"),
    "datum-label-parity": (lambda: CartanDatum(GF3, ((GF3.one(),),), ("ev",)),
                           TypeError, "parities must be Parity values"),
    "root-float": (lambda: RootVector((1.0, 0)), TypeError, "root coordinates must be ints"),
    "root-bool": (lambda: RootVector((True, 0)), TypeError, "root coordinates must be ints"),
    "element-q-int": (lambda: FieldElement(Q, (1,)), ValueError,
                      "characteristic-0 elements hold a single Fraction"),
    "element-short": (lambda: FieldElement(GF9, (1,)), ValueError,
                      "expected 2 residue coordinates, got 1"),
    "element-unreduced": (lambda: FieldElement(GF5, (5,)), ValueError,
                          "residues must be integers in [0, p)"),
    "element-bool": (lambda: FieldElement(GF5, (True,)), ValueError,
                     "residues must be integers in [0, p)"),
}

# (FieldSpec arguments, code, message), in the order the checks run
SPEC_REFUSALS = {
    "not-prime": ((4, 0), "bad-characteristic", "characteristic 4 must be 0 or a prime"),
    "not-an-int": (("3",), "bad-characteristic", "characteristic must be 0 or a prime"),
    "degree-0": ((0, 0), "bad-extension", "extension degree 0 must lie in [1, 8]"),
    "degree-float": ((3, 2.0), "bad-extension", "extension degree must lie in [1, 8]"),
    "degree-too-deep": ((0, 9, (1,)), "bad-extension",
                        "extension degree 9 must lie in [1, 8]"),
    "q-extension": ((0, 2, (1, 0, 1)), "bad-extension", "characteristic 0 only supports degree 1"),
    "q-modulus": ((0, 1, (1, 1)), "bad-extension", "degree-1 fields take no modulus"),
    "degree-1-modulus": ((3, 1, (1, 1)), "bad-extension", "degree-1 fields take no modulus"),
    "no-modulus": ((3, 2), "bad-extension",
                   "the modulus must list degree + 1 integer coefficients"),
    "long-modulus": ((3, 2, (1, 0, 0, 2)), "bad-extension",
                     "the modulus must list degree + 1 integer coefficients"),
    "bool-modulus": ((3, 2, (True, 0, 3)), "bad-extension",
                     "the modulus must list degree + 1 integer coefficients"),
    "not-monic": ((3, 2, (1, 0, 2)), "bad-extension",
                  "modulus must be monic with coefficients reduced mod p"),
    "unreduced": ((3, 2, (1, 3, 1)), "bad-extension",
                  "modulus must be monic with coefficients reduced mod p"),
    "reducible": ((2, 2, (1, 0, 1)), "reducible-modulus",
                  "modulus must be irreducible over GF(p)"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_constructors_refuse_with_their_type_and_message(name):
    build, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("name", list(SPEC_REFUSALS))
def test_field_spec_refuses_in_order_with_its_code_and_message(name):
    args, code, message = SPEC_REFUSALS[name]
    with pytest.raises(FieldSpecError) as info:
        FieldSpec(*args)
    assert (info.value.code, str(info.value)) == (code, message)


def test_constructors_store_their_sequences_as_tuples():
    # one-shot iterators too: each is read once, before any check
    assert FieldElement(GF9, iter([1, 2])).coeffs == (1, 2)
    assert RootVector(iter([2, 1])) == RootVector((2, 1))
    datum = CartanDatum(GF3, (iter(row) for row in DATUM.entries), iter(DATUM.parities))
    assert datum == DATUM
    assert type(datum.entries) is tuple and set(map(type, datum.entries)) == {tuple}
    assert type(datum.parities) is tuple
