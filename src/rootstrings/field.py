"""Exact arithmetic for the ground fields GF(p), GF(p^k), and Q.

Prime fields hold residues in {0, ..., p-1}.  Extensions GF(p^k) are
presented in the power basis of GF(p)[t]/(f) for a user-supplied monic
irreducible f, so membership in the prime subfield is a coordinate check.
Characteristic 0 means exact rationals; floats never appear.

Everything here is immutable and every operation is a pure function, so
values are safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator, Sequence

from .frozen import Frozen

#: Largest supported extension degree.  The bound computations only ever
#: inspect a single ratio, so larger fields add nothing.  The cap limits
#: scope, not cost: ``_ben_or`` decides a modulus with about degree/2 *
#: log2(p) products modulo it, so ``selfcheck.field_for`` finds one of
#: degree 8 in milliseconds (GF(13^8) about 6 ms).
MAX_EXTENSION_DEGREE = 8


class FieldMismatchError(ValueError):
    """Operands belong to two different fields."""


class FieldSpecError(ValueError):
    """Invalid field description; ``code`` is a stable diagnostic identifier
    ("bad-characteristic", "bad-extension" or "reducible-modulus")."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@functools.cache
def _fraction() -> type:
    """The class ``fractions.Fraction``, imported on first use.  Only
    characteristic 0 needs it, and the import, which brings ``decimal`` and
    ``numbers``, would cost every cold start milliseconds; so no module of
    the package imports ``fractions`` but this function."""
    from fractions import Fraction
    return Fraction


#: Miller-Rabin with the first 13 prime bases is exact below this bound,
#: psi_13 (Sorenson and Webster, Math. Comp. 86, 2017).
PRIMALITY_LIMIT = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases.

    Exact for every n below ``PRIMALITY_LIMIT``; larger n raise ValueError,
    and an n that is not an int (a bool included) raises TypeError.
    """
    if not _is_int(n):
        raise TypeError(f"primality needs an int, not {type(n).__name__}")
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"{n} is not below {PRIMALITY_LIMIT}, the bound for deciding primality")
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n = d * 2^s + 1 is a strong probable prime to base a when x = a^d is 1
    # or x^(2^r) = -1 for some 0 <= r < s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def _trimmed(coeffs: Sequence[int]) -> list[int]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trimmed(out)


def _poly_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """a mod b over GF(p), for a nonzero b."""
    rem = _trimmed(a)
    div = _trimmed(b)
    inv_lead = pow(div[-1], p - 2, p)
    while len(rem) >= len(div):
        shift = len(rem) - len(div)
        c = (rem[-1] * inv_lead) % p
        for i, bi in enumerate(div):
            rem[shift + i] = (rem[shift + i] - c * bi) % p
        rem = _trimmed(rem)
    return rem


def check_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Whether a monic polynomial over GF(p) is irreducible.

    Coefficients are listed low degree first.  Refuses a p that is not
    prime with ValueError, a p or coefficient that is not an int (a bool
    included) with TypeError, and a modulus that is not monic or has degree
    below 2 with ValueError; then decides by ``_ben_or``.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if not all(_is_int(c) for c in modulus):
        raise TypeError("modulus coefficients must be ints")
    coeffs = [c % p for c in modulus]
    if not coeffs or coeffs[-1] != 1:
        raise ValueError("modulus must be monic")
    if len(coeffs) < 3:
        raise ValueError("modulus must have degree at least 2")
    return _ben_or(coeffs, p)


def _poly_pow(base: Sequence[int], e: int, modulus: Sequence[int], p: int) -> list[int]:
    """base^e mod modulus over GF(p), for e >= 0 and a base already reduced
    mod the modulus, by square-and-multiply from the leading bit of e: it
    starts at base, not at 1, so it makes no product for that bit.  The only
    exponentiation of the module, for ``__pow__`` at degree > 1 and Ben-Or."""
    h = list(base) if e else [1]
    for bit in bin(e)[3:]:
        h = _poly_mod(_poly_mul(h, h, p), modulus, p)
        if bit == "1":
            h = _poly_mod(_poly_mul(h, base, p), modulus, p)
    return h


def _ben_or(coeffs: Sequence[int], p: int) -> bool:
    """Ben-Or's test (Ben-Or, FOCS 1981) for a modulus whose facts are
    already decided: p prime, int coefficients reduced mod p, low degree
    first, monic, of degree k >= 2.  x^(p^i) - x is the product of the monic
    irreducibles whose degree divides i, and a reducible f of degree k has
    an irreducible factor of degree at most k/2, so f is irreducible exactly
    when gcd(f, x^(p^i) - x) = 1 for i = 1, ..., k/2.  Each x^(p^i) mod f
    is the previous one raised to the p-th power by ``_poly_pow``: about
    k/2 * log2(p) products modulo f in all."""
    h = [0, 1]
    for _ in range((len(coeffs) - 1) // 2):
        h = _poly_pow(h, p, coeffs, p)
        b = h + [0] * (2 - len(h))      # h - x differs from h only at x^1
        b[1] = (b[1] - 1) % p
        a, b = coeffs, _trimmed(b)
        while b:
            a, b = b, _poly_mod(a, b, p)
        if len(a) > 1:
            return False
    return True


def _check_degree(k) -> None:
    """Refuse an extension degree outside [1, ``MAX_EXTENSION_DEGREE``], for
    ``FieldSpec`` and for callers that must refuse a degree before they
    build a modulus of that length."""
    if not _is_int(k) or not 1 <= k <= MAX_EXTENSION_DEGREE:
        shown = f" {k}" if _is_int(k) else ""     # a refusal names a bad int
        raise FieldSpecError(
            "bad-extension", f"extension degree{shown} must lie in [1, {MAX_EXTENSION_DEGREE}]")


class FieldSpec(Frozen):
    """The ground field: GF(p) (degree 1), GF(p^degree) = GF(p)[t]/(modulus),
    or the rationals (characteristic 0).

    ``modulus`` lists the coefficients of a monic irreducible, low degree
    first; it is present exactly when degree > 1.
    """

    __slots__ = __match_args__ = ("characteristic", "degree", "modulus")

    def __init__(self, characteristic: int, degree: int = 1,
                 modulus: Sequence[int] | None = None) -> None:
        p, k = characteristic, degree
        try:
            valid = _is_int(p) and (p == 0 or is_prime(p))
        except ValueError as exc:
            raise FieldSpecError("bad-characteristic", f"characteristic {exc}") from None
        if not valid:
            shown = f" {p}" if _is_int(p) else ""     # a refusal names a bad int
            raise FieldSpecError(
                "bad-characteristic", f"characteristic{shown} must be 0 or a prime")
        _check_degree(k)
        if p == 0 and k != 1:
            raise FieldSpecError("bad-extension", "characteristic 0 only supports degree 1")
        if k == 1:
            if modulus is not None:
                raise FieldSpecError("bad-extension", "degree-1 fields take no modulus")
        else:
            if (not isinstance(modulus, (list, tuple)) or len(modulus) != k + 1
                    or not all(_is_int(c) for c in modulus)):
                raise FieldSpecError(
                    "bad-extension", "the modulus must list degree + 1 integer coefficients")
            modulus = tuple(modulus)
            if any(not 0 <= c < p for c in modulus) or modulus[-1] != 1:
                raise FieldSpecError(
                    "bad-extension", "modulus must be monic with coefficients reduced mod p")
            if not _ben_or(modulus, p):
                raise FieldSpecError("reducible-modulus", "modulus must be irreducible over GF(p)")
        self._fill(p, k, modulus)

    @property
    def order(self) -> int:
        """Number of elements (positive characteristic only)."""
        if self.characteristic == 0:
            raise ValueError("the rationals are infinite")
        return self.characteristic**self.degree

    def element(self, value) -> "FieldElement":
        """Coerce a raw value (an int, a Fraction, a coefficient sequence or a
        FieldElement) into the field.

        Integers map through the canonical image n -> n * 1 (reduction mod p;
        exact at characteristic 0), rationals require characteristic 0, and
        coefficient sequences of length at most ``degree`` (low degree first)
        build extension-field elements.
        """
        if isinstance(value, FieldElement):
            if value.spec is not self and value.spec != self:
                raise FieldMismatchError(
                    f"element of {value.spec} cannot enter {self}")
            return value
        if isinstance(value, bool):
            raise TypeError("booleans are not field entries")
        if self.characteristic == 0:
            fraction = _fraction()
            if not isinstance(value, (int, fraction)):
                raise TypeError(f"cannot coerce {value!r} into the rationals")
            return _reduced(self, (value if type(value) is fraction else fraction(value),))
        if isinstance(value, int):
            return _reduced(self, (value,))
        if isinstance(value, (list, tuple)):
            if len(value) > self.degree:
                raise ValueError(f"coefficient list longer than degree {self.degree}")
            if not all(_is_int(c) for c in value):
                raise TypeError("coefficient lists must contain integers")
            return _reduced(self, value)
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def elements(self) -> Iterator["FieldElement"]:
        """All field elements, in a fixed order (positive characteristic only)."""
        p, k = self.characteristic, self.degree
        if p == 0:
            raise ValueError("cannot enumerate the rationals")
        for coeffs in itertools.product(range(p), repeat=k):
            yield FieldElement._trusted(self, coeffs)

    def __str__(self) -> str:
        if self.characteristic == 0:
            return "Q"
        if self.degree == 1:
            return f"GF({self.characteristic})"
        return f"GF({self.characteristic}^{self.degree})"


def _coerced(op):
    """The binary operator ``op`` with its other operand sent through
    ``FieldSpec.element``, which returns a same-field element as it is, maps
    an int to its image and refuses an element of another field with
    FieldMismatchError.  Any other operand, bools included, is NotImplemented."""
    def coerced(self, other):
        if isinstance(other, FieldElement) or _is_int(other):
            return op(self, self.spec.element(other))
        return NotImplemented
    return functools.wraps(op)(coerced)


class FieldElement(Frozen):
    """One field element: a power-basis residue vector for p > 0, or a single
    exact rational for characteristic 0.  Build these via FieldSpec.element().
    """

    __slots__ = __match_args__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: Sequence) -> None:
        self._fill(spec, tuple(coeffs))
        self.__post_init__()

    def __post_init__(self) -> None:
        """The checks alone, kept apart from ``__init__``: the benchmark
        tracer and the tests wrap this hook to count validated constructions."""
        p, k = self.spec.characteristic, self.spec.degree
        if p == 0:
            if len(self.coeffs) != 1 or not isinstance(self.coeffs[0], _fraction()):
                raise ValueError("characteristic-0 elements hold a single Fraction")
            return
        if len(self.coeffs) != k:
            raise ValueError(f"expected {k} residue coordinates, got {len(self.coeffs)}")
        for c in self.coeffs:
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < p:
                raise ValueError("residues must be integers in [0, p)")

    @property
    def rational(self) -> Fraction:
        """The exact rational value (characteristic 0 only)."""
        if self.spec.characteristic != 0:
            raise ValueError("rational values need characteristic 0")
        return self.coeffs[0]

    def __bool__(self) -> bool:
        return any(self.coeffs)

    @_coerced
    def __add__(self, other):
        return _reduced(self.spec, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return _reduced(self.spec, [-c for c in self.coeffs])

    @_coerced
    def __sub__(self, other):
        return self + (-other)

    @_coerced
    def __rsub__(self, other):
        return other - self

    @_coerced
    def __mul__(self, other):
        spec = self.spec
        if spec.degree == 1:
            return _reduced(spec, (self.coeffs[0] * other.coeffs[0],))
        prod = _poly_mul(self.coeffs, other.coeffs, spec.characteristic)
        return _reduced(spec, _poly_mod(prod, spec.modulus, spec.characteristic))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse, ``self ** -1``; zero raises
        ZeroDivisionError.  Over GF(q), q = p^k with k > 1, it is x^(q-2),
        since x^(q-1) = 1 (Lagrange)."""
        return self ** -1

    @_coerced
    def __truediv__(self, other):
        return self * other.inverse()

    @_coerced
    def __rtruediv__(self, other):
        return other * self.inverse()

    def __pow__(self, exponent):
        """self^exponent for an int exponent; x^0 is one, zero included, and
        zero to a negative power raises ZeroDivisionError.  GF(p) and Q use
        the built-in ``pow``.  At degree > 1 a negative exponent is first
        reduced mod q - 1, since x^(q-1) = 1 (Lagrange), and ``_poly_pow``
        raises the coordinates."""
        if not _is_int(exponent):
            return NotImplemented
        spec = self.spec
        p = spec.characteristic
        if exponent < 0 and not self:
            raise ZeroDivisionError(f"division by zero in {spec}")
        if spec.degree == 1:
            return _reduced(spec, (pow(self.coeffs[0], exponent, p or None),))
        if exponent < 0:
            exponent %= spec.order - 1
        return _reduced(spec, _poly_pow(self.coeffs, exponent, spec.modulus, p))

    def in_prime_subfield(self) -> int | None:
        """The residue when this element lies in GF(p) inside GF(p^k), else None.

        In the power basis that holds exactly when every coordinate of degree
        >= 1 vanishes.  Only defined in positive characteristic; rational
        membership in Z is a separate question answered where it arises.
        """
        if self.spec.characteristic == 0:
            raise ValueError("the prime-subfield test needs positive characteristic")
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def __str__(self) -> str:
        p, k = self.spec.characteristic, self.spec.degree
        if p == 0 or k == 1:
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                power = "t" if i == 1 else f"t^{i}"
                terms.append(power if c == 1 else f"{c}*{power}")
        return " + ".join(terms) if terms else "0"


def _reduced(spec: FieldSpec, coeffs: Sequence) -> FieldElement:
    """The element of ``spec`` with power-basis coordinates ``coeffs`` (low
    degree first, at most ``spec.degree`` of them): reduced mod p, or kept
    exact at p = 0, then zero-padded to the degree.  Every ``FieldSpec.element``
    result and every arithmetic result is built here, unchecked: a reduced,
    padded tuple is valid by construction."""
    p = spec.characteristic
    coeffs = tuple(c % p for c in coeffs) if p else tuple(coeffs)
    return FieldElement._trusted(spec, coeffs + (0,) * (spec.degree - len(coeffs)))
