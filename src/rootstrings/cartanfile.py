"""Cartan-data files (JSON in) and report documents (canonical JSON out).

Input schema::

    {
      "characteristic": 3,                    // 0 or a prime
      "extension": {"degree": 2,              // optional; degree >= 2
                    "modulus": [1, 0, 1]},    // monic irreducible, low degree first
      "matrix": [[0, 1], [1, 0]],             // n x n
      "parities": ["ev", "ev"]                // one label per row
    }

Matrix entries are plain integers (reduced mod p on input unless strict mode
is on), coefficient lists for extension-field elements (low degree first,
padded with zeros), or integers / "numerator/denominator" strings at
characteristic 0.

Reports are rendered as canonical JSON -- sorted keys, two-space indent,
trailing newline -- so identical inputs always produce byte-identical
output.  The text is byte-identical to ``json.dumps(indent=2,
sort_keys=True)`` plus a newline; ``render_document`` writes the framing
itself, since ``json`` never uses its C encoder when it indents.  The
package's reports build every flat list of scalars (a table row, a
basis-matrix row, the values of ``dseq``, a serialized matrix row) through
the list builders below, which return it as a ``Scalars`` list, so the
renderer checks no list's types.  A report holds few distinct scalars, so
each distinct scalar of a ``Scalars`` list is encoded once per document, by
the C encoder, into a text memo that writes the list as one join.  A list
whose values are all distinct costs a C-encoder pass, a split and a dict
entry per value: the 300,002 values of ``dseq --max-m 300000`` over Q
render in 129-195 ms (median 138 over 5 processes), against about 36 ms for
the C encoder alone (CPython 3.11, a 2-core x86_64 host).  Any other list is written item by item, so a document from
outside the package never reaches the memo.  Infinite bounds serialize as
the string "inf", absent (diagonal) bounds as null.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from .cartan import BValue, CartanDatum, Parity
from .field import FieldElement, FieldSpec, FieldSpecError, _fraction

_TOP_KEYS = {"characteristic", "extension", "matrix", "parities"}
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class CartanFileError(ValueError):
    """Input document rejected; ``code`` is a stable diagnostic identifier."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def parse_cartan(text: str, *, strict: bool = False) -> CartanDatum:
    """Parse and fully validate a Cartan-data document.

    Raises CartanFileError with a distinct ``code`` per failure mode; JSON
    syntax errors carry the line and column.  Each distinct entry is parsed
    once per document into the coordinate tuple that the datum holds, and
    no field element is built.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CartanFileError(
            "bad-json", f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise CartanFileError("bad-json", "arrays or objects nested too deeply") from None
    except ValueError:      # the only other one: an integer literal past the digit limit
        raise CartanFileError(
            "bad-json", f"an integer literal has more than {sys.get_int_max_str_digits()} "
            "digits, the interpreter's limit for integer conversion") from None
    if not isinstance(raw, dict):
        raise CartanFileError("bad-document", "top level must be an object")
    unknown = sorted(set(raw) - _TOP_KEYS)
    if unknown:
        raise CartanFileError("unknown-key", f"unknown keys: {', '.join(unknown)}")
    for key in ("characteristic", "matrix", "parities"):
        if key not in raw:
            raise CartanFileError("missing-key", f"missing key: {key}")

    spec = _parse_field(raw["characteristic"], raw.get("extension"))

    matrix = raw["matrix"]
    if not isinstance(matrix, list) or not matrix or not all(isinstance(r, list) for r in matrix):
        raise CartanFileError("bad-matrix", "matrix must be a non-empty array of rows")
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise CartanFileError("ragged-matrix", f"matrix must be square of size {n}")

    parities = raw["parities"]
    if not isinstance(parities, list) or len(parities) != n:
        raise CartanFileError(
            "parity-length-mismatch", f"parities must list exactly {n} labels")
    parsed_parities = []
    for i, label in enumerate(parities):
        if label not in ("ev", "od"):
            raise CartanFileError(
                "bad-parity", f'parity {i + 1} must be "ev" or "od", got {label!r}')
        parsed_parities.append(Parity(label))

    # A matrix holds few distinct values, so each is parsed once, in one memo
    # with one kind of key per document.  If every entry has the exact type
    # int or str, an entry is its own key: no int equals a str, and the bools
    # and floats that equal some int (True, 1.0) have neither type.  If every
    # entry is a list of exact ints, its key is its tuple.  Any other document
    # keys each entry on its repr, which tells 1, 1.0 and True apart, and
    # [1, 2] from [1, 2.0].  With one kind of key, no two entries that parse
    # differently share a key: the string "[0, 1]" and the list [0, 1] meet
    # only under repr keys, where the string's key keeps its quotes.  Only
    # successes are remembered, and a row's missing values are parsed in
    # column order, so the first bad entry is still the one named.
    types = set(map(type, chain.from_iterable(matrix)))
    if types <= {int, str}:
        key = None
    elif (types == {list}
          and set(map(type, chain.from_iterable(chain.from_iterable(matrix)))) <= {int}):
        key = tuple
    else:
        key = repr
    memo: dict = {}
    coords = []
    for r, row in enumerate(matrix, 1):
        keys = row if key is None else list(map(key, row))
        try:
            coords.append(tuple(map(memo.__getitem__, keys)))
        except KeyError:
            for c, (cell, value) in enumerate(zip(keys, row), 1):
                if cell not in memo:
                    memo[cell] = _parse_entry(spec, value, strict, r, c)
            coords.append(tuple(map(memo.__getitem__, keys)))
    # every tuple came from spec._coords, so the datum skips re-checking them
    return CartanDatum._trusted(spec, tuple(coords), tuple(parsed_parities))


def _parse_field(characteristic, extension) -> FieldSpec:
    # Only the JSON shape is checked here; FieldSpec decides everything else.
    # The modulus must be a list because FieldSpec reads a null as "absent".
    if extension is None:
        args = (characteristic,)
    elif (isinstance(extension, dict) and set(extension) == {"degree", "modulus"}
          and isinstance(extension["modulus"], list)):
        args = (characteristic, extension["degree"], extension["modulus"])
    else:
        raise CartanFileError(
            "bad-extension",
            'extension needs exactly the keys "degree" and "modulus", '
            "the modulus a list of coefficients")
    try:
        return FieldSpec(*args)
    except FieldSpecError as exc:
        raise CartanFileError(exc.code, str(exc)) from exc


def _parse_entry(spec: FieldSpec, value, strict: bool, row: int, col: int) -> tuple:
    # The entry's coordinate tuple.  The file format adds rational strings at
    # characteristic 0, lists only as the 1..k coordinates of an
    # extension-field element, and strict mode; FieldSpec._coords decides
    # everything else.  The entry's place is formatted only in an error.
    p, k = spec.characteristic, spec.degree
    rational = p == 0 and isinstance(value, str) and _RATIONAL.fullmatch(value)
    if rational:
        # Fraction(str) would also read decimals and exponents, and the cost
        # of an exponent grows with it: "1e5000000" takes seconds.  The one
        # Fraction built here is the one that FieldSpec._coords keeps
        num, den = rational.groups()
        try:
            value = _fraction()(int(num), int(den or 1))
        except (ValueError, ZeroDivisionError) as exc:   # n/0, or too many digits
            raise CartanFileError(
                "bad-entry", f"entry ({row}, {col}): cannot parse rational {value!r}") from exc
    elif p and isinstance(value, list) and not (k > 1 and value):
        raise CartanFileError(
            "bad-entry", f"entry ({row}, {col}): cannot parse {value!r} as an element of {spec}")
    try:
        coords = spec._coords(value)
    except (TypeError, ValueError) as exc:
        raise CartanFileError("bad-entry", f"entry ({row}, {col}): {exc}") from None
    # a residue is reduced exactly when reduction leaves it as it was
    given = value if isinstance(value, list) else [value]
    if strict and list(coords[:len(given)]) != given:
        raise CartanFileError(
            "unreduced-entry", f"entry ({row}, {col}): {value} is not reduced mod {p}")
    return coords


def serialize_cartan(datum: CartanDatum) -> str:
    """Canonical document for a datum; parsing it back gives an equal datum."""
    spec = datum.spec
    doc: dict = {"characteristic": spec.characteristic}
    if spec.degree > 1:
        doc["extension"] = {"degree": spec.degree, "modulus": list(spec.modulus)}
    doc["matrix"] = [entry_list(spec, row) for row in datum.coords]
    doc["parities"] = parity_labels(datum.parities)
    return render_document(doc)


def render_document(doc: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.

    For any document whose keys are strings, the text is byte-identical to
    ``json.dumps(indent=2, sort_keys=True)`` followed by a newline.
    """
    out: list = []
    _render(doc, 1, out, {})
    out.append("\n")
    return "".join(out)


class Scalars(list):
    """A flat list whose values each have the exact type int, str or
    NoneType, so no two values are equal unless their texts are.
    ``_render`` writes it from the document's text memo without looking at
    the values' types, so only the list builders below make one, from the
    ints of the routes and the labels of the file format.  Any other list
    takes the recursive path, so a document handed to ``render_document``
    from outside the package never reaches the memo."""


def bound_row(bounds: list, k: int) -> Scalars:
    """Row k of a bound report: ``bounds`` holds the bounds B_kj, j != k, as
    the ladder answers them, ints and None for an infinite bound, written
    "inf"; the diagonal is null."""
    row = Scalars(["inf" if b is None else b for b in bounds] if None in bounds else bounds)
    row.insert(k - 1, None)
    return row


def int_rows(rows) -> list:
    """Rows of ints, such as a basis matrix or root vectors' coordinates."""
    return list(map(Scalars, rows))


def parity_labels(parities) -> Scalars:
    return Scalars(q.value for q in parities)


def entry_list(spec: FieldSpec, coords) -> list:
    """The entries with these coordinate tuples, encoded as ``encode_entry``
    does: one flat list at degree 1, a list of coefficient lists above."""
    if spec.degree > 1:
        return int_rows(coords)
    if spec.characteristic:
        return Scalars(c for c, in coords)
    return Scalars(int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
                   for q, in coords)


#: The C encoder with one scalar per line: ensure_ascii escapes every newline
#: inside a string, so splitting its text on "\n" gives the items' texts.
_SCALARS = json.JSONEncoder(separators=("\n", ": "))


def _render(value, depth: int, out: list, texts: dict) -> None:
    # appends the text of ``value`` to ``out``; its items sit at ``depth``
    # two-space steps, its closing bracket one step out.  ``texts`` maps each
    # Scalars value met so far in this document to its JSON text
    if not isinstance(value, (dict, list, tuple)):
        out.append(json.dumps(value))
        return
    if not value:
        out.append("{}" if isinstance(value, dict) else "[]")
        return
    inner = "\n" + "  " * depth
    if isinstance(value, dict):
        sep = "{" + inner
        for key in sorted(value):
            out += (sep, encode_basestring_ascii(key), ": ")
            _render(value[key], depth + 1, out, texts)
            sep = "," + inner
        out.append("\n" + "  " * (depth - 1) + "}")
        return
    if type(value) is Scalars:
        try:
            out += ("[", inner, ("," + inner).join(map(texts.__getitem__, value)))
        except KeyError:    # a scalar new to this document: encode the whole list once
            items = _SCALARS.encode(value)[1:-1].split("\n")
            texts.update(zip(value, items))
            out += ("[", inner, ("," + inner).join(items))
    else:
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _render(item, depth + 1, out, texts)
            sep = "," + inner
    out.append("\n" + "  " * (depth - 1) + "]")


def encode_entry(element: FieldElement) -> int | str | list[int]:
    """JSON encoding of one field element, matching the input conventions."""
    return entry_list(element.spec, (element.coeffs,))[0]


def encode_bvalue(b: BValue | None) -> int | str | None:
    """JSON encoding of a bound: an integer, "inf", or null when absent."""
    if b is None:
        return None
    return "inf" if b.value is None else b.value


def field_doc(spec: FieldSpec) -> dict:
    """Small JSON description of a field, embedded in reports."""
    doc: dict = {"characteristic": spec.characteristic, "degree": spec.degree}
    if spec.modulus is not None:
        doc["modulus"] = list(spec.modulus)
    return doc
