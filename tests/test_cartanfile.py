import json
import random
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootstrings.cartan import INFINITY, BValue, CartanDatum, Parity
from rootstrings.cartanfile import (
    CartanFileError,
    Scalars,
    _parse_entry,
    bound_row,
    encode_bvalue,
    encode_entry,
    field_doc,
    parse_cartan,
    render_document,
    serialize_cartan,
)
from rootstrings import cartanfile, field
from rootstrings.field import PRIMALITY_LIMIT, FieldSpec

GF3 = FieldSpec(3)
GF9 = FieldSpec(3, 2, (1, 0, 1))
Q = FieldSpec(0)


def doc(**overrides):
    base = {
        "characteristic": 3,
        "matrix": [[0, 1], [1, 0]],
        "parities": ["ev", "ev"],
    }
    base.update(overrides)
    return json.dumps(base)


def nested_entry_doc(depth):
    """A rank-1 document whose one entry is 0 inside ``depth`` nested lists."""
    return ('{"characteristic": 3, "matrix": [[%s0%s]], "parities": ["ev"]}'
            % ("[" * depth, "]" * depth))


def error_code(text, **kwargs):
    with pytest.raises(CartanFileError) as info:
        parse_cartan(text, **kwargs)
    return info.value.code


# --- happy paths ------------------------------------------------------------

def test_parse_prime_field_document(fixtures_dir):
    datum = parse_cartan((fixtures_dir / "prime.json").read_text())
    assert datum.spec == GF3
    assert datum.entry(1, 2) == GF3.element(1)
    assert datum.parities == (Parity.EVEN, Parity.EVEN)


def test_parse_extension_document(fixtures_dir):
    datum = parse_cartan((fixtures_dir / "extension.json").read_text())
    assert datum.spec == GF9
    assert datum.entry(1, 2) == GF9.element([0, 1])
    assert datum.entry(2, 2) == GF9.element(2)
    assert datum.parity(2) is Parity.ODD


def test_parse_characteristic_zero_document(fixtures_dir):
    datum = parse_cartan((fixtures_dir / "char0.json").read_text())
    assert datum.spec == Q
    assert datum.entry(1, 2).rational == Fraction(-1)


def test_rational_string_entries():
    text = json.dumps({
        "characteristic": 0,
        "matrix": [["1/2", "2/4", "3"], ["-3/2", 2, "+1/2"], [0, 0, 0]],
        "parities": ["ev", "od", "ev"],
    })
    datum = parse_cartan(text)
    assert datum.entry(1, 1).rational == Fraction(1, 2)
    assert datum.entry(1, 2).rational == Fraction(1, 2)
    assert datum.entry(1, 3).rational == 3
    assert datum.entry(2, 1).rational == Fraction(-3, 2)
    assert datum.entry(2, 3).rational == Fraction(1, 2)


def test_integers_reduce_mod_p_by_default():
    datum = parse_cartan(doc(matrix=[[0, 7], [-1, 0]]))
    assert datum.entry(1, 2) == GF3.element(1)
    assert datum.entry(2, 1) == GF3.element(2)


# --- every rejection code -----------------------------------------------------

def test_bad_json_reports_position():
    with pytest.raises(CartanFileError) as info:
        parse_cartan("{\n  broken\n}")
    assert info.value.code == "bad-json"
    assert "line 2" in str(info.value)


@pytest.mark.parametrize("text,code", [
    ("[1, 2]", "bad-document"),
    ('"matrix"', "bad-document"),
    (doc(extra=1), "unknown-key"),
    ('{"matrix": [[0]], "parities": ["ev"]}', "missing-key"),
    (doc(characteristic=4), "bad-characteristic"),
    (doc(characteristic=-1), "bad-characteristic"),
    (doc(characteristic="3"), "bad-characteristic"),
    (doc(characteristic=True), "bad-characteristic"),
    (doc(characteristic=0, extension={"degree": 2, "modulus": [1, 0, 1]}),
     "bad-extension"),
    (doc(extension={"degree": 2}), "bad-extension"),
    (doc(extension={"degree": 1, "modulus": [1, 1]}), "bad-extension"),
    (doc(extension={"degree": 9, "modulus": [1] * 10}), "bad-extension"),
    (doc(extension={"degree": 2, "modulus": [1, 0, 0, 1]}), "bad-extension"),
    (doc(extension={"degree": 2, "modulus": [1, 0, 2]}), "bad-extension"),
    (doc(extension={"degree": 2, "modulus": [1, 3, 1]}), "bad-extension"),
    (doc(extension={"degree": 2, "modulus": [1.0, 0, 1]}), "bad-extension"),
    (doc(characteristic=2, extension={"degree": 2, "modulus": [1, 0, 1]}),
     "reducible-modulus"),
    (doc(matrix=3), "bad-matrix"),
    (doc(matrix=[]), "bad-matrix"),
    (doc(matrix=[3, 4]), "bad-matrix"),
    (doc(matrix=[[0, 1], [1]]), "ragged-matrix"),
    (doc(matrix=[[0]]), "parity-length-mismatch"),
    (doc(parities="evev"), "parity-length-mismatch"),
    (doc(parities=["ev", "even"]), "bad-parity"),
    (doc(matrix=[[0, 1.5], [1, 0]]), "bad-entry"),
    (doc(matrix=[[0, True], [1, 0]]), "bad-entry"),
    (doc(matrix=[[0, "1"], [1, 0]]), "bad-entry"),
    (doc(matrix=[[0, [1]], [1, 0]]), "bad-entry"),       # list needs degree > 1
    (doc(extension={"degree": 2, "modulus": [1, 0, 1]}, matrix=[[0, []], [1, 0]]),
     "bad-entry"),                                          # list needs 1 to k coordinates
    (doc(characteristic=0, matrix=[[0, "1/0"], [1, 0]]), "bad-entry"),
    (doc(characteristic=0, matrix=[[0, "x"], [1, 0]]), "bad-entry"),
    (doc(characteristic=0, matrix=[[0, [1]], [1, 0]]), "bad-entry"),
    (doc(characteristic=0, matrix=[[0, "1e5"], [1, 0]]), "bad-entry"),
    (doc(characteristic=0, matrix=[[0, "0.5"], [1, 0]]), "bad-entry"),
    (doc(characteristic=0, matrix=[[0, " 1/2"], [1, 0]]), "bad-entry"),
    (doc(characteristic=0, matrix=[[0, "1_000"], [1, 0]]), "bad-entry"),
    (doc(characteristic=0, matrix=[[0, "\u0661"], [1, 0]]), "bad-entry"),  # Arabic-Indic 1
    pytest.param(nested_entry_doc(100_000), "bad-json", id="nested-100000-deep"),
    pytest.param('{"characteristic": 3, "matrix": [[%s]], "parities": ["ev"]}' % ("7" * 5000),
                 "bad-json", id="5000-digit-integer"),
])
def test_rejection_codes(text, code):
    assert error_code(text) == code


def test_nesting_near_the_recursion_limit_gets_a_coded_error():
    # where json.loads gives up depends on the caller's stack depth and on the
    # Python version; on either side of that point the parser must refuse the
    # entry with a code, never let a RecursionError escape
    limit = sys.getrecursionlimit()
    codes = {error_code(nested_entry_doc(depth)) for depth in range(limit - 120, limit + 20, 4)}
    assert codes <= {"bad-entry", "bad-json"}


@pytest.mark.parametrize("fixture,check", [("prime.json", "is_prime"),
                                           ("extension.json", "_ben_or")])
def test_field_validated_once_per_parse(fixtures_dir, count_calls, fixture, check):
    # primality is decided once in either field, and irreducibility once in GF(p^k)
    primality = count_calls(field.is_prime)
    calls = primality if check == "is_prime" else count_calls(getattr(field, check))
    parse_cartan((fixtures_dir / fixture).read_text())
    assert len(calls) == 1
    assert len(primality) == 1


@pytest.mark.parametrize("p", [1000000000000037, 10000000000000061])
def test_large_prime_characteristic_parses_quickly(p):
    start = time.perf_counter()
    datum = parse_cartan(doc(characteristic=p))
    assert time.perf_counter() - start < 1.0
    assert datum.spec.characteristic == p


def test_characteristic_beyond_primality_limit_refused():
    assert error_code(doc(characteristic=PRIMALITY_LIMIT)) == "bad-characteristic"


def test_extension_entry_lists():
    text = doc(extension={"degree": 2, "modulus": [1, 0, 1]},
               matrix=[[[1, 2], [0, 1]], [[4], 2]])
    datum = parse_cartan(text)
    assert datum.entry(1, 1) == GF9.element([1, 2])
    assert datum.entry(2, 1) == GF9.element(1)          # [4] reduces to 1
    bad = doc(extension={"degree": 2, "modulus": [1, 0, 1]},
              matrix=[[[1, 2, 0], [0, 1]], [[0, 1], 2]])
    assert error_code(bad) == "bad-entry"               # three coefficients
    mixed = doc(extension={"degree": 2, "modulus": [1, 0, 1]},
                matrix=[[[1, True], [0, 1]], [[0, 1], 2]])
    assert error_code(mixed) == "bad-entry"


@pytest.mark.parametrize("spec,value", [
    (GF9, [1, True]), (GF9, [1, 2, 0]), (GF3, 1.5), (GF3, True),
])
def test_bad_entry_message_comes_from_the_field(spec, value):
    with pytest.raises((TypeError, ValueError)) as reason:
        spec.element(value)
    header = {"characteristic": spec.characteristic}
    if spec.modulus:
        header["extension"] = {"degree": spec.degree, "modulus": list(spec.modulus)}
    with pytest.raises(CartanFileError) as info:
        parse_cartan(json.dumps({**header, "matrix": [[0, value], [1, 0]],
                                 "parities": ["ev", "ev"]}))
    assert info.value.code == "bad-entry"
    assert str(info.value) == f"entry (1, 2): {reason.value}"


def test_strict_mode_rejects_unreduced_values():
    assert error_code(doc(matrix=[[0, 7], [1, 0]]), strict=True) == "unreduced-entry"
    assert error_code(doc(matrix=[[0, -1], [1, 0]]), strict=True) == "unreduced-entry"
    unreduced_list = doc(extension={"degree": 2, "modulus": [1, 0, 1]},
                         matrix=[[[4, 0], [0, 1]], [[0, 1], 2]])
    assert error_code(unreduced_list, strict=True) == "unreduced-entry"
    # reduced documents pass strict mode untouched
    datum = parse_cartan(doc(), strict=True)
    assert datum.entry(1, 2) == GF3.element(1)


# --- the per-document entry memo ------------------------------------------------

GF9_EXTENSION = {"degree": 2, "modulus": [1, 0, 1]}


@pytest.mark.parametrize("text,where", [
    # each bad entry hashes and compares equal to a good one parsed before it
    (doc(matrix=[[1, 2], [1.0, 0]]), "entry (2, 1)"),
    (doc(matrix=[[1, 2], [True, 0]]), "entry (2, 1)"),
    (doc(characteristic=0, matrix=[[1, 2], [1.0, 0]]), "entry (2, 1)"),
    (doc(characteristic=0, matrix=[[1, 0], [0, True]]), "entry (2, 2)"),
    (doc(extension=GF9_EXTENSION, matrix=[[[1, 2], 0], [0, [1, 2.0]]]), "entry (2, 2)"),
    (doc(extension=GF9_EXTENSION, matrix=[[[1, 1], [1, True]], [0, 0]]), "entry (1, 2)"),
    # documents of lists only: a bool or a float coordinate is not an int one
    (doc(extension=GF9_EXTENSION, matrix=[[[1, 1], [1, True]], [[0], [0]]]), "entry (1, 2)"),
    (doc(extension=GF9_EXTENSION, matrix=[[[1, 2], [0]], [[0], [1, 2.0]]]), "entry (2, 2)"),
])
def test_equal_hashing_bad_entry_after_a_good_one_is_rejected(text, where):
    with pytest.raises(CartanFileError) as info:
        parse_cartan(text)
    assert info.value.code == "bad-entry"
    assert str(info.value).startswith(where + ":")


def test_string_equal_to_a_list_repr_is_not_taken_from_the_list_memo():
    # the string "[0, 1]" equals the repr of the list [0, 1], whose element
    # is t.  The document has one kind of key: it mixes lists with ints and
    # strings, so every entry is keyed on its repr, and the string's key
    # keeps its quotes; a string is its own key only in a document of ints
    # and strings, where no list is
    text = doc(extension=GF9_EXTENSION, matrix=[[[0, 1], 1], ["[0, 1]", 2]])
    with pytest.raises(CartanFileError) as info:
        parse_cartan(text)
    assert info.value.code == "bad-entry"
    assert str(info.value).startswith("entry (2, 1):")


def test_strict_mode_rejects_a_repeated_unreduced_entry():
    text = doc(matrix=[[1, 7], [7, 0]])
    assert parse_cartan(text).entry(2, 1) == GF3.element(1)
    with pytest.raises(CartanFileError) as info:
        parse_cartan(text, strict=True)
    assert info.value.code == "unreduced-entry"
    assert str(info.value).startswith("entry (1, 2):")
    with pytest.raises(CartanFileError) as info:
        parse_cartan(doc(matrix=[[1, 1], [4, 0]]), strict=True)
    assert str(info.value).startswith("entry (2, 1):")


def test_equal_rational_strings_parse_alike():
    datum = parse_cartan(doc(characteristic=0, matrix=[["1/2", "2/4"], ["1/2", 0]]))
    half = Q.element(Fraction(1, 2))
    assert datum.entry(1, 1) == datum.entry(1, 2) == datum.entry(2, 1) == half


def test_parse_builds_no_element(elements_built):
    rng = random.Random(100)
    n = 100
    matrix = [[[rng.randrange(3), rng.randrange(3)] for _ in range(n)] for _ in range(n)]
    text = doc(extension=GF9_EXTENSION, matrix=matrix, parities=["ev"] * n)
    datum = parse_cartan(text)
    # the datum holds coordinate tuples, and elements are built on request
    assert elements_built == []
    assert all(datum.entry(r + 1, c + 1) == GF9.element(value)
               for r, row in enumerate(matrix) for c, value in enumerate(row))


@st.composite
def raw_documents(draw, spec):
    """A rank-1..4 matrix and parities over ``spec``: unreduced ints, at
    degree > 1 short and unreduced coefficient lists too, and over Q ints
    and "n/d" strings."""
    p, k = spec.characteristic, spec.degree
    if p == 0:
        value = st.integers(-9, 9) | st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 6))
    elif k > 1:
        value = st.integers(-3 * p, 3 * p) | st.lists(st.integers(-3 * p, 3 * p), min_size=1,
                                                      max_size=k)
    else:
        value = st.integers(-3 * p, 3 * p)
    n = draw(st.integers(1, 4))
    matrix = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=n, max_size=n))
    return matrix, draw(st.lists(st.sampled_from(["ev", "od"]), min_size=n, max_size=n))


@pytest.mark.parametrize(
    "spec", [FieldSpec(7), FieldSpec(113), GF9, FieldSpec(5, 3, (3, 3, 0, 1)), Q], ids=str)
@given(data=st.data())
def test_parsed_entries_equal_the_built_datum(spec, data):
    # the datum holds coordinate tuples; the elements that entries and entry
    # build from them on request are those that CartanDatum.build coerces
    matrix, parities = data.draw(raw_documents(spec))
    document = {"characteristic": spec.characteristic, "matrix": matrix, "parities": parities}
    if spec.degree > 1:
        document["extension"] = {"degree": spec.degree, "modulus": list(spec.modulus)}
    datum = parse_cartan(json.dumps(document))
    rows = [[Fraction(v) if isinstance(v, str) else v for v in row] for row in matrix]
    built = CartanDatum.build(spec, rows, parities)
    assert datum == built
    assert datum.entries == built.entries
    assert datum.coords == tuple(tuple(e.coeffs for e in row) for row in built.entries)
    n = len(matrix)
    assert ([datum.entry(k, j) for k in range(1, n + 1) for j in range(1, n + 1)]
            == [spec.element(rows[k][j]) for k in range(n) for j in range(n)])


# --- rows memoised by value ---------------------------------------------------------

GF7 = FieldSpec(7)
GF113 = FieldSpec(113)


def reference_parse(spec, matrix, parities, strict):
    """What parsing ``matrix`` must give, deciding entry by entry in row-major
    order: the (code, entry) of the first refused entry, or else the datum
    that ``CartanDatum.build`` makes.  A coefficient list is an element only
    over an extension field, and only when it is non-empty, no longer than
    the degree, and holds nothing but exact ints."""
    p = spec.characteristic
    rows = []
    for r, row in enumerate(matrix, 1):
        out = []
        for c, value in enumerate(row, 1):
            where = f"entry ({r}, {c})"
            if isinstance(value, str):
                if p or value.endswith("/0"):
                    return "bad-entry", where
                value = Fraction(value)
            if isinstance(value, list) and (
                    spec.degree == 1 or not value or len(value) > spec.degree
                    or not set(map(type, value)) <= {int}):
                return "bad-entry", where
            coords = value if isinstance(value, list) else [value]
            if strict and p and not all(0 <= x < p for x in coords):
                return "unreduced-entry", where
            out.append(value)
        rows.append(out)
    return CartanDatum.build(spec, rows, parities)


def parse_outcome(text, strict):
    try:
        return parse_cartan(text, strict=strict)
    except CartanFileError as exc:
        return exc.code, str(exc).split(":")[0]


@st.composite
def scalar_documents(draw, spec):
    """A rank-1..5 matrix drawn, with repeats, from a few ints (reduced or
    not) over GF(p); ints and "n/d" strings (d = 0 among them) over Q; and
    over GF(p^k), ints mixed with coefficient lists: reduced or not, short,
    too long, empty, or holding a float or a bool."""
    p = spec.characteristic
    if spec.degree > 1:
        value = st.one_of(st.integers(-p, 2 * p),
                          st.lists(st.integers(-p, 2 * p), max_size=spec.degree + 1),
                          # each odd list beside the int list it equals
                          st.sampled_from([[], [1, 2.0], [1, 2], [1, True], [1, 1]]))
    elif p:
        value = st.one_of(st.integers(0, p - 1), st.integers(-p, 2 * p))
    else:
        value = st.one_of(st.integers(-9, 9),
                          st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 4)))
    pool = draw(st.lists(value, min_size=1, max_size=6))
    n = draw(st.integers(1, 5))
    matrix = draw(st.lists(st.lists(st.sampled_from(pool), min_size=n, max_size=n),
                           min_size=n, max_size=n))
    parities = draw(st.lists(st.sampled_from(["ev", "od"]), min_size=n, max_size=n))
    return matrix, parities


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
@pytest.mark.parametrize("spec", [GF7, GF113, Q, GF9], ids=str)
@given(data=st.data())
def test_scalar_rows_parse_like_build(spec, strict, data):
    matrix, parities = data.draw(scalar_documents(spec))
    document = {"characteristic": spec.characteristic, "matrix": matrix, "parities": parities}
    if spec.degree > 1:
        document["extension"] = {"degree": spec.degree, "modulus": list(spec.modulus)}
    text = json.dumps(document)
    assert parse_outcome(text, strict) == reference_parse(spec, matrix, parities, strict)


@pytest.mark.parametrize("text,strict,code,where", [
    (doc(characteristic=7, matrix=[[1, 2, 3], [2, 1, 9], [0, 0, 0]], parities=["ev"] * 3),
     True, "unreduced-entry", "entry (2, 3)"),
    (doc(characteristic=0, matrix=[[1, "1/2"], ["1/2", "1/0"]]), False, "bad-entry", "entry (2, 2)"),
    (doc(matrix=[[1, True], [0, 1]]), False, "bad-entry", "entry (1, 2)"),
])
def test_first_bad_entry_after_memoised_ones_is_named(text, strict, code, where):
    with pytest.raises(CartanFileError) as info:
        parse_cartan(text, strict=strict)
    assert info.value.code == code
    assert str(info.value).startswith(where + ":")


# --- one key kind per document ------------------------------------------------

def scan_parse(spec, matrix, strict):
    """A matrix read cell by cell in column order, with no memo: the (code,
    message) of the first cell that ``_parse_entry`` refuses, or else the
    entries that ``spec.element`` gives cell by cell, a rational string read
    as its Fraction."""
    for r, row in enumerate(matrix, 1):
        for c, value in enumerate(row, 1):
            try:
                _parse_entry(spec, value, strict, r, c)
            except CartanFileError as exc:
                return exc.code, str(exc)
    return tuple(tuple(spec.element(Fraction(v) if isinstance(v, str) else v) for v in row)
                 for row in matrix)


#: Cells of every JSON kind, with values that hash and compare equal across
#: kinds (1, 1.0, True; [1, 2], [1, 2.0]) and strings equal to other cells'
#: reprs ("1", "[0, 1]").
CELLS = {
    "ints": st.integers(-12, 12),
    "bools": st.booleans(),
    "floats": st.sampled_from([0.0, 1.0, 2.0, 0.5, -1.0]),
    "rationals": st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 4)),
    "strings": st.sampled_from(["1", "-2", "+3", "007", "[0, 1]", "1.5", "1e3", "x", "", " 1",
                                "1/2/3", "1" * 5000]),
    "int lists": st.lists(st.integers(-4, 8), max_size=3),
    "odd lists": st.sampled_from([[1, True], [True, 0], [1, 2.0], [0.0], [[0, 1]], [[1], 1],
                                  [1, None], ["1", 0]]),
}


@st.composite
def mixed_documents(draw):
    """A rank-1..4 matrix drawn, with repeats, from a few cells of some of
    the kinds of ``CELLS``: one kind alone as often as a mix."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=3, unique=True))
    pool = draw(st.lists(st.one_of([CELLS[kind] for kind in kinds]), min_size=1, max_size=6))
    n = draw(st.integers(1, 4))
    return draw(st.lists(st.lists(st.sampled_from(pool), min_size=n, max_size=n),
                         min_size=n, max_size=n))


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
@pytest.mark.parametrize("spec", [GF7, GF9, Q], ids=str)
@given(matrix=mixed_documents())
def test_parse_reads_every_document_as_a_cell_by_cell_scan(spec, strict, matrix):
    # whatever key kind the document gets, the memo hands out what each cell
    # parses to on its own, and names the first bad cell with its own message
    document = {"characteristic": spec.characteristic, "matrix": matrix,
                "parities": ["ev"] * len(matrix)}
    if spec.degree > 1:
        document["extension"] = {"degree": spec.degree, "modulus": list(spec.modulus)}
    try:
        outcome = parse_cartan(json.dumps(document), strict=strict).entries
    except CartanFileError as exc:
        outcome = exc.code, str(exc)
    assert outcome == scan_parse(spec, matrix, strict)


@pytest.mark.parametrize("matrix,reprs", [
    ([[1, "1/2"], [-3, "1/2"]], 0),
    ([["0/1", "1/0"], [1, 1]], 0),
    ([[[0, 1], [1]], [[], [2, 2]]], 0),
    ([[[0, 1], 1], [1, [2]]], 4),       # ints beside lists
    ([[[0, 1], [1]], [[1], [True]]], 4),
    ([[1, 1], [1, 1.0]], 4),
])
def test_only_a_document_of_mixed_kinds_is_keyed_on_repr(monkeypatch, matrix, reprs):
    # a document of exact ints and strings, or of lists of exact ints, is
    # keyed on its own values; any other keys every entry on its repr
    calls = []
    monkeypatch.setattr(cartanfile, "repr", lambda value: calls.append(value) or repr(value),
                        raising=False)
    spec = Q if isinstance(matrix[0][1], str) else GF9
    document = {"characteristic": spec.characteristic, "matrix": matrix, "parities": ["ev", "ev"]}
    if spec.degree > 1:
        document["extension"] = GF9_EXTENSION
    try:
        parse_cartan(json.dumps(document))
    except CartanFileError:
        pass
    assert len(calls) == reprs


def test_a_rational_string_builds_one_fraction(monkeypatch):
    # the Fraction read from "n/d" is the one the datum keeps: one per
    # distinct string, and none again in FieldSpec._coords
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    matrix = [["1/2", "-3/4", "5"], ["5", "1/2", "2/4"], ["-3/4", "0/7", "1/2"]]
    datum = parse_cartan(doc(characteristic=0, matrix=matrix, parities=["ev"] * 3))
    monkeypatch.undo()
    assert len(built) == len({v for row in matrix for v in row}) == 5
    assert datum.entries == tuple(tuple(Q.element(Fraction(v)) for v in row) for row in matrix)


@pytest.mark.parametrize("fixture", ["wide_char0.json", "wide_prime.json", "extension.json"])
def test_parse_builds_no_datum_twice(fixtures_dir, monkeypatch, fixture):
    # every coordinate tuple comes from spec._coords, so the datum's own
    # per-entry checks are not run again
    text = (fixtures_dir / fixture).read_text()
    calls = []
    original = CartanDatum.__init__

    def counting(self, *args):
        calls.append(args)
        original(self, *args)

    monkeypatch.setattr(CartanDatum, "__init__", counting)
    datum = parse_cartan(text)
    assert calls == []
    raw = json.loads(text)
    rows = [[Fraction(v) if isinstance(v, str) else v for v in row] for row in raw["matrix"]]
    assert datum == CartanDatum.build(datum.spec, rows, raw["parities"])
    assert len(calls) == 1


@pytest.mark.parametrize("entries,parities,error", [
    (((GF7.element(1),),), (Parity.EVEN,), ValueError),                     # foreign field
    (((1,),), (Parity.EVEN,), TypeError),                                   # not an element
    (((GF3.element(1), GF3.element(0)), (GF3.element(1),)),
     (Parity.EVEN, Parity.EVEN), ValueError),                               # ragged
])
def test_public_datum_constructor_still_validates(entries, parities, error):
    with pytest.raises(error) as info:
        CartanDatum(GF3, entries, parities)
    assert type(info.value) is error


# --- serialization ---------------------------------------------------------------

def test_serialize_round_trips_fixtures(fixtures_dir):
    for name in ("prime.json", "extension.json", "char0.json"):
        datum = parse_cartan((fixtures_dir / name).read_text())
        text = serialize_cartan(datum)
        assert parse_cartan(text) == datum
        assert parse_cartan(text, strict=True) == datum  # canonical form is reduced
        assert serialize_cartan(parse_cartan(text)) == text


def test_serialized_form_is_canonical():
    datum = CartanDatum.build(GF9, [[1, [0, 1]], [[0, 1], 2]], ["ev", "od"])
    text = serialize_cartan(datum)
    assert text.endswith("\n")
    assert json.loads(text)["matrix"] == [[[1, 0], [0, 1]], [[0, 1], [2, 0]]]
    assert json.loads(text)["extension"] == {"degree": 2, "modulus": [1, 0, 1]}


@pytest.mark.parametrize("name", ["prime.json", "extension.json", "char0.json"])
def test_serialize_marks_its_flat_lists_and_builds_no_element(
        fixtures_dir, monkeypatch, elements_built, name):
    # the matrix rows (or, over GF(p^k), their coefficient lists) and the
    # parities reach the renderer as Scalars, encoded from the datum's
    # coordinate tuples, not from field elements
    datum = parse_cartan((fixtures_dir / name).read_text())
    docs = []
    monkeypatch.setattr(cartanfile, "render_document", docs.append)
    serialize_cartan(datum)
    [doc] = docs
    lists = [doc["parities"], *doc["matrix"]]
    if datum.spec.degree > 1:
        lists = [doc["parities"], *(c for row in doc["matrix"] for c in row)]
    for flat in lists:
        assert type(flat) is Scalars and set(map(type, flat)) <= {int, str}
    assert elements_built == []


def test_encode_entry_formats():
    assert encode_entry(GF3.element(2)) == 2
    assert encode_entry(GF9.element([0, 1])) == [0, 1]
    assert encode_entry(Q.element(3)) == 3
    assert encode_entry(Q.element(Fraction(-1, 2))) == "-1/2"


def test_encode_bvalue():
    assert encode_bvalue(BValue(4)) == 4
    assert encode_bvalue(INFINITY) == "inf"
    assert encode_bvalue(None) is None


def test_bound_row_writes_inf_and_the_diagonal_null():
    for bounds, k, row in (([3, None, 0], 2, [3, None, "inf", 0]), ([1, 2], 3, [1, 2, None]),
                           ([], 1, [None]), ([None], 1, [None, "inf"])):
        assert type(bound_row(bounds, k)) is Scalars and bound_row(bounds, k) == row
    assert bound_row(bounds := [4, None], 1) == [None, 4, "inf"] and bounds == [4, None]


def test_field_doc():
    assert field_doc(GF3) == {"characteristic": 3, "degree": 1}
    assert field_doc(GF9) == {"characteristic": 3, "degree": 2, "modulus": [1, 0, 1]}
    assert field_doc(Q) == {"characteristic": 0, "degree": 1}


def test_render_document_is_stable():
    assert render_document({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'


def marked(value):
    """``value`` with every list or tuple of exact ints, strs and None made
    a ``Scalars`` list, as the package's reports hand them to the renderer."""
    if isinstance(value, dict):
        return {key: marked(item) for key, item in value.items()}
    if not isinstance(value, (list, tuple)):
        return value
    if set(map(type, value)) <= {int, str, type(None)}:
        return Scalars(value)
    return type(value)(map(marked, value))


# Strings the encoders escape: quotes, backslashes, control characters,
# non-ASCII text and lone surrogates, drawn densely from a short alphabet or
# as arbitrary code points (which include surrogates once no category is
# excluded).
json_text = (st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\ud800\udfff\U0001d11e'), max_size=4)
             | st.text(st.characters(exclude_categories=()), max_size=8))
json_scalars = (st.none() | st.booleans() | st.integers()
                | st.integers(-(2 ** 200), 2 ** 200) | json_text)


json_documents = st.dictionaries(json_text, st.recursive(
    json_scalars,
    lambda children: (st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(json_text, children, max_size=3)),
    max_leaves=20), max_size=4)


# Each contract test below runs on the document as given, whose lists take
# the recursive path, and again with its flat lists of exact ints, strs and
# None marked, so that those take the text memo; both must give json's own
# indented text byte for byte.

@given(json_documents)
def test_render_document_matches_json_dumps(doc):
    assert render_document(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@given(json_documents)
def test_render_document_matches_json_dumps_on_marked_lists(doc):
    assert render_document(marked(doc)) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# True == 1 and 1.0 == 1, and a memo keyed on the scalar would write them as
# 1; the same ints sit at two depths, so each join needs its own separator;
# and the strings hold the separators the memo writes and splits on, a
# quote, and a line separator that ensure_ascii escapes
EQUAL_SCALARS_OF_OTHER_TYPES = {
    "a": [1, 0, None, "inf"], "b": [True, False, 1, 0], "c": [1.0, 1],
    "d": [[1, 2], [2, 1]], "e": [1, 2], "f": [",", "\n", "\u2028", '"', "a,\nb", 1]}


def test_render_document_keeps_equal_scalars_of_other_types_apart():
    doc = EQUAL_SCALARS_OF_OTHER_TYPES
    assert render_document(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_render_document_keeps_equal_scalars_of_other_types_apart_on_marked_lists():
    doc = EQUAL_SCALARS_OF_OTHER_TYPES
    assert render_document(marked(doc)) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_render_document_encodes_each_distinct_scalar_once_per_document(monkeypatch):
    # a marked list with a scalar not yet in the memo is encoded whole; a
    # marked list of known scalars is not encoded at all; a plain list never
    # reaches the memo; and the next document starts over
    encoded = []
    scalars = cartanfile._SCALARS
    monkeypatch.setattr(cartanfile, "_SCALARS", SimpleNamespace(
        encode=lambda value: encoded.append(list(value)) or scalars.encode(value)))
    doc = {"a": [Scalars([1, 2]), Scalars([2, 1])], "b": Scalars([2, None, 1, "inf"]),
           "c": [Scalars([None, 2]), Scalars(["inf", 1])], "d": [3, 4], "e": Scalars([4, 3])}
    for _ in range(2):
        assert render_document(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert encoded == [[1, 2], [2, None, 1, "inf"], [4, 3]] * 2


class Int(int):
    """An int subclass, equal to its int; json writes it as the int."""

    def __repr__(self):
        return f"Int({int(self)})"


# Flat lists whose scalars are equal across types, True == 1 == 1.0 == Int(1)
# and False == 0 == 0.0 == -0.0, but are written differently (except Int).
mixed_flat_lists = (
    st.lists(st.sampled_from([0, 1, -1, 2 ** 64, True, False, 1.0, 0.0, -0.0, 0.5, None,
                              "", "1", "true", "null", Int(0), Int(1)]), max_size=6)
    | st.sampled_from([[True, 1, 1.0], [1, True, Int(1)], [0, False, 0.0, None], [Int(1), 1]]))


@given(st.dictionaries(st.sampled_from(["a", "b", "c"]), st.recursive(
    mixed_flat_lists,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.sampled_from(["a", "b"]), children, max_size=3)),
    max_leaves=12), max_size=3))
def test_render_document_keeps_the_json_contract_on_mixed_flat_lists(doc):
    # the package's reports mark their flat lists; a document from outside
    # marks none, so no memo may write True or 1.0 as 1
    assert render_document(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# A small pool, so that equal scalars (and the bools and floats equal to some
# int) repeat across lists and depths and the memo's hit path runs.
pooled_scalars = st.sampled_from(
    [0, 1, 2, -1, 10 ** 30, None, True, False, 1.0, 0.5, "inf", "1/2", "", ",", "\n", "\u2028", '"'])


pooled_documents = st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), st.recursive(
    pooled_scalars,
    lambda children: (st.lists(children, max_size=6) | st.lists(children, max_size=6).map(tuple)
                      | st.dictionaries(st.sampled_from(["a", "b", "c"]), children, max_size=3)),
    max_leaves=30), max_size=4)


@given(pooled_documents)
def test_render_document_matches_json_dumps_on_repeated_scalars(doc):
    assert render_document(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@given(pooled_documents)
def test_render_document_matches_json_dumps_on_repeated_marked_scalars(doc):
    assert render_document(marked(doc)) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- randomized round trips --------------------------------------------------------

parity_labels = st.lists(st.sampled_from(["ev", "od"]), min_size=1, max_size=3)


@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.lists(st.sampled_from(["ev", "od"]), min_size=n, max_size=n))))
def test_round_trip_prime_field(data):
    rows, parities = data
    datum = CartanDatum.build(GF3, rows, parities)
    assert parse_cartan(serialize_cartan(datum)) == datum


@given(st.integers(1, 2).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2),
                          min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.lists(st.sampled_from(["ev", "od"]), min_size=n, max_size=n))))
def test_round_trip_extension_field(data):
    rows, parities = data
    datum = CartanDatum.build(GF9, rows, parities)
    assert parse_cartan(serialize_cartan(datum)) == datum


@given(st.lists(st.fractions(max_denominator=50), min_size=4, max_size=4),
       st.sampled_from([("ev", "ev"), ("ev", "od"), ("od", "od")]))
def test_round_trip_rationals(values, parities):
    rows = [values[:2], values[2:]]
    datum = CartanDatum.build(Q, rows, parities)
    assert parse_cartan(serialize_cartan(datum)) == datum
