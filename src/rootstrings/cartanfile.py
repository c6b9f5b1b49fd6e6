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
itself and encodes each flat list of scalars (a table row, a basis-matrix
row) with the C encoder, which ``json`` never uses when it indents.
Infinite bounds serialize as the string "inf", absent (diagonal) bounds as
null.
"""

from __future__ import annotations

import json
import re
import sys
from json.encoder import encode_basestring_ascii

from .cartan import BValue, CartanDatum, Parity
from .field import FieldElement, FieldSpec, FieldSpecError, _fraction

_TOP_KEYS = {"characteristic", "extension", "matrix", "parities"}
#: Rows whose entries all have one of these exact types are memoised by value.
_BY_VALUE = {int, str}
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class CartanFileError(ValueError):
    """Input document rejected; ``code`` is a stable diagnostic identifier."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def parse_cartan(text: str, *, strict: bool = False) -> CartanDatum:
    """Parse and fully validate a Cartan-data document.

    Raises CartanFileError with a distinct ``code`` per failure mode; JSON
    syntax errors carry the line and column.  Each distinct entry is parsed
    once per document, and the datum is built without re-checking entries
    that ``FieldSpec.element`` has just built.
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

    # A matrix holds few distinct values, so each is parsed once.  A row of
    # exact ints and strings is memoised by value: no int equals a str, and
    # the bools and floats that equal some int (True, 1.0) send their row
    # down the other path.  Any other row is memoised on repr, which tells 1,
    # 1.0 and True apart, and [1, 2] from [1, 2.0], although they compare
    # equal.  The two memos stay apart, because a string can equal a repr
    # ("1" is the repr of 1).  Only successes are remembered, and new values
    # are parsed in column order, so the first bad entry is still the one named.
    by_value: dict = {}
    by_repr: dict = {}
    entries = []
    for r, row in enumerate(matrix, 1):
        if set(map(type, row)) <= _BY_VALUE:
            keys, memo = row, by_value
        else:
            keys, memo = list(map(repr, row)), by_repr
        if set(keys).difference(memo):
            for c, (key, value) in enumerate(zip(keys, row), 1):
                if key not in memo:
                    memo[key] = _parse_entry(spec, value, strict, r, c)
        entries.append(tuple(map(memo.__getitem__, keys)))
    # every entry came from spec.element, so the datum skips re-checking them
    return CartanDatum._trusted(spec, tuple(entries), tuple(parsed_parities))


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


def _parse_entry(spec: FieldSpec, value, strict: bool, row: int, col: int) -> FieldElement:
    # The file format adds rational strings at characteristic 0, lists only as
    # the 1..k coordinates of an extension-field element, and strict mode;
    # FieldSpec.element decides everything else.
    where = f"entry ({row}, {col})"
    p, k = spec.characteristic, spec.degree
    if p == 0 and isinstance(value, str) and _RATIONAL.fullmatch(value):
        # Fraction alone would also read decimals and exponents, and the
        # cost of an exponent grows with it: "1e5000000" takes seconds
        try:
            value = _fraction()(value)
        except (ValueError, ZeroDivisionError) as exc:   # n/0, or too many digits
            raise CartanFileError(
                "bad-entry", f"{where}: cannot parse rational {value!r}") from exc
    elif p and isinstance(value, list) and not (k > 1 and value):
        raise CartanFileError(
            "bad-entry", f"{where}: cannot parse {value!r} as an element of {spec}")
    try:
        element = spec.element(value)
    except (TypeError, ValueError) as exc:
        raise CartanFileError("bad-entry", f"{where}: {exc}") from None
    # a residue is reduced exactly when reduction leaves it as it was
    coords = value if isinstance(value, list) else [value]
    if strict and list(element.coeffs[:len(coords)]) != coords:
        raise CartanFileError("unreduced-entry", f"{where}: {value} is not reduced mod {p}")
    return element


def serialize_cartan(datum: CartanDatum) -> str:
    """Canonical document for a datum; parsing it back gives an equal datum."""
    spec = datum.spec
    doc: dict = {"characteristic": spec.characteristic}
    if spec.degree > 1:
        doc["extension"] = {"degree": spec.degree, "modulus": list(spec.modulus)}
    doc["matrix"] = [[encode_entry(e) for e in row] for row in datum.entries]
    doc["parities"] = [q.value for q in datum.parities]
    return render_document(doc)


def render_document(doc: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.

    For any document whose keys are strings, the text is byte-identical to
    ``json.dumps(indent=2, sort_keys=True)`` followed by a newline.
    """
    out: list = []
    _render(doc, 1, out)
    out.append("\n")
    return "".join(out)


#: A list whose elements all have one of these exact types goes to the C
#: encoder whole; any other element (a container, a float, an int subclass)
#: sends it down the recursive path, which ends in json.dumps on one scalar.
_FLAT = {int, str, bool, type(None)}
#: depth -> a C encoder whose item separator starts a line at that depth.
_LIST_ENCODERS: dict = {}


def _render(value, depth: int, out: list) -> None:
    # appends the text of ``value`` to ``out``; its items sit at ``depth``
    # two-space steps, its closing bracket one step out
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
            _render(value[key], depth + 1, out)
            sep = "," + inner
        out.append("\n" + "  " * (depth - 1) + "}")
        return
    if set(map(type, value)) <= _FLAT:
        encoder = _LIST_ENCODERS.get(depth)
        if encoder is None:
            encoder = _LIST_ENCODERS[depth] = json.JSONEncoder(separators=("," + inner, ": "))
        out += ("[", inner, encoder.encode(value)[1:-1])
    else:
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _render(item, depth + 1, out)
            sep = "," + inner
    out.append("\n" + "  " * (depth - 1) + "]")


def encode_entry(element: FieldElement) -> int | str | list[int]:
    """JSON encoding of one field element, matching the input conventions."""
    spec = element.spec
    if spec.characteristic == 0:
        q = element.rational
        return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    if spec.degree == 1:
        return element.coeffs[0]
    return list(element.coeffs)


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
