"""Exhaustive cross-validation of the closed-form bounds against the recursion.

For a chosen set of finite fields this sweeps every rank-2 configuration
(parity of the reflecting root, diagonal entry, off-diagonal entry) and
checks that the closed-form bound matches the value found by scanning the
d-sequence.  Any disagreement would falsify one of the two routes, so a
clean sweep is strong evidence both are implemented correctly.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator

from .cartan import Parity, _first_zero, _row_ladder
from .field import (
    MAX_EXTENSION_DEGREE,
    FieldElement,
    FieldSpec,
    FieldSpecError,
    check_irreducible,
    is_prime,
)


def _monic(p: int, degree: int) -> Iterator[tuple[int, ...]]:
    """Monic polynomials of the given degree over GF(p), coefficients low
    degree first, in lexicographic order."""
    return (tail + (1,) for tail in itertools.product(range(p), repeat=degree))


def find_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of the given degree over GF(p)."""
    for candidate in _monic(p, degree):
        if check_irreducible(candidate, p):
            return candidate
    raise RuntimeError(f"no irreducible of degree {degree} over GF({p})")


def field_for(p: int, degree: int) -> FieldSpec:
    """GF(p^degree), presented by ``find_irreducible``'s modulus.  The search
    builds each candidate's ``FieldSpec`` directly, so each candidate's
    irreducibility is tested once."""
    if degree == 1:
        return FieldSpec(p)
    for candidate in _monic(p, degree):
        try:
            return FieldSpec(p, degree, candidate)
        except FieldSpecError as exc:
            if exc.code != "reducible-modulus":
                raise
    raise RuntimeError(f"no irreducible of degree {degree} over GF({p})")


def sweep_pairs(spec: FieldSpec) -> Iterator[tuple[Parity, FieldElement, FieldElement]]:
    """Every rank-2 configuration (parity, A_kk, A_kj) over a finite field.

    Parity varies slowest, then A_kk, then A_kj, each in ``spec.elements()``
    order; the elements are enumerated once.
    """
    elements = list(spec.elements())
    return itertools.product((Parity.EVEN, Parity.ODD), elements, elements)


def bound_ceiling(p: int, parity: Parity) -> int:
    """Largest bound B_kj possible in characteristic p > 0: the d-sequence
    vanishes by m = p - 1 for an even generator (m = 3 when p = 2) and by
    m = 2p - 1 for an odd one."""
    if parity is Parity.ODD:
        return 2 * p - 1
    return 3 if p == 2 else p - 1


def check_field(spec: FieldSpec) -> dict:
    """Sweep all (parity, A_kk, A_kj) cases over one field.

    The closed form builds one row ladder per (parity, A_kk) and applies it
    to every A_kj; the recursion walks each triple on its own.  No datum is
    built per case.  Returns a report dict with the case count, any
    failures, and the distribution of bounds seen.  A failure -- the routes
    disagree, or the bound exceeds ``bound_ceiling`` -- records both routes'
    answers and the ceiling.  A walk that misses its guaranteed zero raises
    ConsistencyError from ``_first_zero``.
    """
    p = spec.characteristic
    cases = 0
    mismatches = []
    b_counts: dict[int, int] = {}
    for (parity, a_kk), row in itertools.groupby(sweep_pairs(spec), operator.itemgetter(0, 1)):
        ladder = _row_ladder(parity, a_kk)
        ceiling = bound_ceiling(p, parity)
        for _, _, a_kj in row:
            closed = ladder(a_kj.coeffs)
            recursive = _first_zero(a_kj, a_kk, parity)
            cases += 1
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
    report = {
        "characteristic": p,
        "degree": spec.degree,
        "cases": cases,
        "mismatches": mismatches,
        "failures": len(mismatches),
        "b_counts": [[b, n] for b, n in sorted(b_counts.items())],
    }
    if spec.modulus is not None:
        report["modulus"] = list(spec.modulus)
    return report


def run_selfcheck(primes: list[int], degrees: list[int]) -> dict:
    """Run check_field over the cartesian product of primes and degrees.

    Raises ValueError, before any sweep, for a non-prime, a degree outside
    [1, MAX_EXTENSION_DEGREE], or a prime or degree listed twice.
    """
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    for d in degrees:
        if not 1 <= d <= MAX_EXTENSION_DEGREE:
            raise ValueError(f"degree {d} out of range [1, {MAX_EXTENSION_DEGREE}]")
    # a repeated value would only sweep the same fields again
    for name, values in (("prime", primes), ("degree", degrees)):
        repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeated is not None:
            raise ValueError(f"{name} {repeated} is listed more than once")
    fields = [check_field(field_for(p, d)) for p in primes for d in degrees]
    total_cases = sum(f["cases"] for f in fields)
    total_mismatches = sum(f["failures"] for f in fields)
    return {
        "fields": fields,
        "total_cases": total_cases,
        "total_mismatches": total_mismatches,
        "ok": total_mismatches == 0,
    }
