"""Exact arithmetic the benchmark uses to build its inputs and their answers.

This is independent of the package under test, so an answer computed here is
a second opinion, not a copy of the program's own.  Polynomials over GF(p)
are lists of residues, lowest degree first; elements of GF(p^k) are tuples of
k residues in the power basis of GF(p)[t]/(f).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

# Miller-Rabin with the first 13 prime bases is exact below 3.3e24
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A uniformly drawn prime in [lo, hi)."""
    while True:
        n = rng.randrange(lo, hi)
        if is_prime(n):
            return n


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _rem(a, b, p: int) -> list[int]:
    a = _trim([x % p for x in a])
    b = _trim([x % p for x in b])
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % p
        _trim(a)
    return a


def _mulmod(a, b, f, p: int) -> list[int]:
    prod = [0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _rem(prod, f, p)


def _powmod(a, e: int, f, p: int) -> list[int]:
    result, base = [1], list(a)
    while e:
        if e & 1:
            result = _mulmod(result, base, f, p)
        base = _mulmod(base, base, f, p)
        e >>= 1
    return result


def _gcd(a, b, p: int) -> list[int]:
    a, b = _trim([x % p for x in a]), _trim([x % p for x in b])
    while b:
        a, b = b, _rem(a, b, p)
    return a


def _prime_factors(n: int) -> list[int]:
    return [q for q in range(2, n + 1) if n % q == 0 and is_prime(q)]


def _sub(a, b, p: int) -> list[int]:
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def is_irreducible(f, p: int) -> bool:
    """Rabin's test for a monic f of degree k >= 2 over GF(p): x^(p^k) = x
    mod f, and gcd(x^(p^(k/q)) - x, f) = 1 for every prime q dividing k."""
    k = len(f) - 1
    x = [0, 1]
    frob = [x]  # frob[i] = x^(p^i) mod f
    for _ in range(k):
        frob.append(_powmod(frob[-1], p, f, p))
    if _sub(frob[k], x, p):
        return False
    return all(len(_gcd(_sub(frob[k // q], x, p), f, p)) == 1
               for q in _prime_factors(k))


def random_irreducible(rng: random.Random, p: int, k: int) -> tuple[int, ...]:
    """A monic irreducible of degree k over GF(p), drawn by random candidates."""
    while True:
        f = [rng.randrange(p) for _ in range(k)] + [1]
        if f[0] and is_irreducible(f, p):
            return tuple(f)


@dataclass(frozen=True)
class Field:
    """GF(p) (k = 1), GF(p^k) = GF(p)[t]/(modulus), or Q (p = 0).

    Elements are k-tuples of residues for p > 0 and Fractions for Q.
    """

    p: int
    k: int = 1
    modulus: Optional[tuple[int, ...]] = None

    def header(self) -> dict:
        """The field keys of an input document."""
        doc: dict = {"characteristic": self.p}
        if self.k > 1:
            doc["extension"] = {"degree": self.k, "modulus": list(self.modulus)}
        return doc

    def report(self) -> dict:
        """The "field" object the CLI puts in its reports."""
        doc: dict = {"characteristic": self.p, "degree": self.k}
        if self.modulus is not None:
            doc["modulus"] = list(self.modulus)
        return doc

    def zero(self):
        return Fraction(0) if self.p == 0 else (0,) * self.k

    def is_zero(self, a) -> bool:
        return a == 0 if self.p == 0 else not any(a)

    def random(self, rng: random.Random, nonzero: bool = False):
        while True:
            if self.p == 0:
                a = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
            else:
                a = tuple(rng.randrange(self.p) for _ in range(self.k))
            if not (nonzero and self.is_zero(a)):
                return a

    def random_outside(self, rng: random.Random):
        """A random element outside the prime subfield (needs k > 1)."""
        while True:
            a = self.random(rng)
            if any(a[1:]):
                return a

    def scale(self, c, a):
        """c * a for an integer (or, over Q, rational) scalar c."""
        if self.p == 0:
            return Fraction(c) * a
        return tuple(c * x % self.p for x in a)

    def add(self, a, b):
        if self.p == 0:
            return a + b
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        if self.p == 0:
            return a * b
        if self.k == 1:
            return (a[0] * b[0] % self.p,)
        prod = _mulmod(a, b, self.modulus, self.p)
        return tuple(prod) + (0,) * (self.k - len(prod))

    def encode(self, a):
        """JSON form of an element, as input documents and reports write it."""
        if self.p == 0:
            return a.numerator if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        return a[0] if self.k == 1 else list(a)
