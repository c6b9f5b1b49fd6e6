"""Exhaustive cross-validation of the closed-form bounds against the recursion.

For a chosen set of finite fields this sweeps every rank-2 configuration
(parity of the reflecting root, diagonal entry, off-diagonal entry) and
checks that the closed-form bound matches the value found by scanning the
d-sequence.  Both routes work a row (parity, diagonal entry) at a time: one
closed-form ladder and one row of the recursion's first zeros per row, each
one call with the list of every off-diagonal entry, and the two lists are
compared.  Any disagreement would falsify one of the two routes, so a clean
sweep is strong evidence both are implemented correctly.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .cartan import Parity, _last_step, _row_ladder, _row_walk
from .cartanfile import field_doc
from .field import FieldSpec, _ben_or, _check_degree

#: The most cases, 2 * q^2 per field GF(q), that one ``run_selfcheck`` sweeps:
#: at 0.2 to 0.3 microseconds per case in process (GF(47^2), 9.76 * 10^6
#: cases, in 1.9 to 2.6 s; CPython 3.11, 2-core x86_64), about 2 to 3 seconds.
MAX_CASES = 10**7


def find_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of the given degree over
    GF(p), for degrees 2 to ``MAX_EXTENSION_DEGREE``: ``field_for``'s modulus."""
    if degree < 2:
        raise ValueError("an irreducible modulus needs degree at least 2")
    return field_for(p, degree).modulus


def field_for(p: int, degree: int) -> FieldSpec:
    """GF(p^degree).  At degree > 1 the modulus is ``_extension``'s, and a
    bad degree is refused before a bad p, both before any candidate is
    built.  p = 0 is refused as well: a sweep needs a finite field."""
    if p == 0:
        raise ValueError("a sweep needs a finite field, not characteristic 0")
    if degree <= 1:
        return FieldSpec(p, degree)     # GF(p), or FieldSpec refuses p or degree
    _check_degree(degree)               # before a candidate of degree + 1 coefficients
    return _extension(FieldSpec(p), degree)


def _extension(base: FieldSpec, degree: int) -> FieldSpec:
    """GF(p^degree) over the validated GF(p) ``base``, for a degree that
    ``_check_degree`` has passed.  The modulus is the first monic irreducible
    in lexicographic order (coefficients low degree first, the constant term
    most significant).  Candidates with constant term 0 are skipped, since t
    divides them; each other one gets one ``_ben_or`` test, about degree/2 *
    log2(p) products, and about one candidate in degree is irreducible."""
    p = base.characteristic
    # candidate n: the base-p digits of n, most significant first, then 1;
    # every prime has a monic irreducible of each degree, so n stays below p^degree
    for n in itertools.count(p ** (degree - 1)):
        modulus = (*(n // p**i % p for i in range(degree - 1, -1, -1)), 1)
        if _ben_or(modulus, p):
            return FieldSpec._trusted(p, degree, modulus)


def bound_ceiling(p: int, parity: Parity) -> int:
    """Largest bound B_kj possible in characteristic p > 0: the d-sequence
    vanishes by m = p - 1 for an even generator (m = 3 when p = 2) and by
    m = 2p - 1 for an odd one."""
    if parity is Parity.ODD:
        return _last_step(p)
    return 3 if p == 2 else p - 1


def check_field(spec: FieldSpec) -> dict:
    """Sweep all (parity, A_kk, A_kj) cases over one field: parity varies
    slowest, then A_kk, then A_kj, each in ``spec.elements()`` order, as
    coordinate tuples.

    Each row (parity, A_kk) calls the closed-form ladder and the recursion's
    row of first zeros, ``_row_ladder`` and ``_row_walk``, once each, with
    the list of every A_kj, and compares the two lists of ints as they come.
    No field element, datum or ``BValue`` is built.  Returns a report dict
    with the case count, any failures, and the distribution of bounds seen.
    A row whose lists are equal and whose largest bound is within
    ``bound_ceiling`` counts whole; any other row is checked entry by
    entry, and a failure -- the routes disagree, or the bound exceeds the
    ceiling -- records both routes' answers and the ceiling.  A row that misses its
    guaranteed zero raises ConsistencyError from ``_row_walk``.
    """
    p = spec.characteristic
    coeffs = list(itertools.product(range(p), repeat=spec.degree))
    mismatches = []
    b_counts: Counter[int] = Counter()
    for parity in Parity:
        ceiling = bound_ceiling(p, parity)
        for kk in coeffs:
            closed = _row_ladder(parity, p, kk, coeffs)
            recursive = _row_walk(parity, p, kk, coeffs)
            if closed == recursive and max(recursive) <= ceiling:
                b_counts.update(recursive)
                continue
            for kj, b, m in zip(coeffs, closed, recursive):
                if b != m or m > ceiling:
                    mismatches.append({
                        "parity": parity.value,
                        "a_kk": list(kk),
                        "a_kj": list(kj),
                        "closed": b,
                        "recursive": m,
                        "ceiling": ceiling,
                    })
                else:
                    b_counts[m] += 1
    return {
        **field_doc(spec),
        "cases": len(mismatches) + sum(b_counts.values()),
        "mismatches": mismatches,
        "failures": len(mismatches),
        "b_counts": [[b, n] for b, n in sorted(b_counts.items())],
    }


def run_selfcheck(primes: list[int], degrees: list[int]) -> dict:
    """Run check_field over the cartesian product of primes and degrees.

    Raises ValueError, before any sweep or modulus search, for a prime or
    degree listed twice, for one that ``field_for`` or ``FieldSpec``
    refuses, or for a sweep of more than ``MAX_CASES`` cases.
    """
    # a repeated value would only sweep the same fields again; the first
    # repeat in list order is named, found in one pass (set.add returns None)
    for name, values in (("prime", primes), ("degree", degrees)):
        seen = set()
        repeated = next((v for v in values if v in seen or seen.add(v)), None)
        if repeated is not None:
            raise ValueError(f"{name} {repeated} is listed more than once")
    # every prime, then every degree, is checked before the first modulus
    # search, which may try p^(degree - 1) candidates
    bases = [field_for(p, 1) for p in primes]
    for degree in degrees:
        _check_degree(degree)
    cases = sum(2 * b.characteristic ** (2 * d) for b in bases for d in degrees)
    if cases > MAX_CASES:
        raise ValueError(f"the sweep would check {cases} cases, more than the limit of {MAX_CASES}")
    specs = [b if d == 1 else _extension(b, d) for b in bases for d in degrees]
    fields = [check_field(spec) for spec in specs]
    return {
        "fields": fields,
        "total_cases": sum(f["cases"] for f in fields),
        "total_mismatches": sum(f["failures"] for f in fields),
        "ok": not any(f["failures"] for f in fields),
    }
