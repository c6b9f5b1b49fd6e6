"""Exact root-string bounds for Cartan matrices over GF(p^k) and Q.

Given a square matrix A with entries in a prime field, a small extension
field, or the rationals, together with a parity label per row, this package
computes for every pair (k, j) the largest m such that the j-th simple root
plus m copies of the k-th is still a root.  Two independent routes are
provided -- a step-by-step recursion on the coefficient sequence d_m and a
closed-form case analysis -- and the reflection map that rewrites the simple
roots using those bounds.

All arithmetic is exact: finite-field elements are tuples of residues and
rationals are ``fractions.Fraction``.  Nothing here floats.
"""

from .cartan import (
    INFINITY,
    BValue,
    CartanDatum,
    ConsistencyError,
    DSequence,
    Parity,
    b_closed,
    b_recursive,
    b_table,
    d_sequence,
    pair_datum,
)
from .cartanfile import CartanFileError, parse_cartan, serialize_cartan
from .field import (
    MAX_EXTENSION_DEGREE,
    FieldElement,
    FieldMismatchError,
    FieldSpec,
    FieldSpecError,
    check_irreducible,
    is_prime,
)
from .reflection import (
    ReflectionResult,
    ReflectionUndefinedError,
    RootVector,
    basis_determinant,
    reflect,
)
from .selfcheck import check_field, field_for, run_selfcheck

__version__ = "0.1.0"

__all__ = [
    "BValue",
    "CartanDatum",
    "CartanFileError",
    "ConsistencyError",
    "DSequence",
    "FieldElement",
    "FieldMismatchError",
    "FieldSpec",
    "FieldSpecError",
    "INFINITY",
    "MAX_EXTENSION_DEGREE",
    "Parity",
    "ReflectionResult",
    "ReflectionUndefinedError",
    "RootVector",
    "b_closed",
    "b_recursive",
    "b_table",
    "basis_determinant",
    "check_field",
    "check_irreducible",
    "d_sequence",
    "field_for",
    "is_prime",
    "pair_datum",
    "parse_cartan",
    "reflect",
    "run_selfcheck",
    "serialize_cartan",
]
