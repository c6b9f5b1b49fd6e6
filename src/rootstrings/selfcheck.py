"""Exhaustive cross-validation of the closed-form bounds against the recursion.

For a chosen set of finite fields this sweeps every rank-2 configuration
(parity of the reflecting root, diagonal entry, off-diagonal entry) and
checks that the closed-form bound matches the value found by scanning the
d-sequence.  Both routes work a row (parity, diagonal entry) at a time: one
closed-form ladder and one recursion walk per row, each then asked for
every off-diagonal entry.  Any disagreement would falsify one of the two
routes, so a clean sweep is strong evidence both are implemented correctly.
"""

from __future__ import annotations

import itertools

from .cartan import Parity, _last_step, _row_ladder, _row_walk
from .cartanfile import field_doc
from .field import FieldSpec, _ben_or, _check_degree


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
    slowest, then A_kk, then A_kj, each in ``spec.elements()`` order.

    Each row (parity, A_kk) builds one closed-form ladder and one recursion
    walk, ``_row_ladder`` and ``_row_walk``, and asks both for every A_kj.
    No datum is built per case.  Returns a report dict with the case count,
    any failures, and the distribution of bounds seen.  A failure -- the
    routes disagree, or the bound exceeds ``bound_ceiling`` -- records both
    routes' answers and the ceiling.  A walk that misses its guaranteed zero
    raises ConsistencyError from ``_row_walk``.
    """
    p = spec.characteristic
    elements = list(spec.elements())
    mismatches = []
    b_counts: dict[int, int] = {}
    for parity in Parity:
        ceiling = bound_ceiling(p, parity)
        for a_kk in elements:
            ladder = _row_ladder(parity, a_kk)
            first_zero = _row_walk(parity, a_kk)
            for a_kj in elements:
                closed = ladder(a_kj.coeffs)
                recursive = first_zero(a_kj.coeffs)
                if closed.value != recursive or recursive > ceiling:
                    mismatches.append({
                        "parity": parity.value,
                        "a_kk": list(a_kk.coeffs),
                        "a_kj": list(a_kj.coeffs),
                        "closed": closed.value,
                        "recursive": recursive,
                        "ceiling": ceiling,
                    })
                else:
                    b_counts[recursive] = b_counts.get(recursive, 0) + 1
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
    degree listed twice, or for one that ``field_for`` or ``FieldSpec``
    refuses.
    """
    # a repeated value would only sweep the same fields again
    for name, values in (("prime", primes), ("degree", degrees)):
        repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeated is not None:
            raise ValueError(f"{name} {repeated} is listed more than once")
    # every prime, then every degree, is checked before the first modulus
    # search, which may try p^(degree - 1) candidates
    bases = [field_for(p, 1) for p in primes]
    for degree in degrees:
        _check_degree(degree)
    specs = [b if d == 1 else _extension(b, d) for b in bases for d in degrees]
    fields = [check_field(spec) for spec in specs]
    return {
        "fields": fields,
        "total_cases": sum(f["cases"] for f in fields),
        "total_mismatches": sum(f["failures"] for f in fields),
        "ok": not any(f["failures"] for f in fields),
    }
