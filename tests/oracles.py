"""Test oracles that share no code with the routines they check.

The closed forms of the d-sequence multiply field elements by integers, so
they share no code with ``cartan._walk``, which adds int coordinates step by
step.  ``relation_scalar`` derives d_m from the defining relations of the
contragredient Lie superalgebra instead of the paper's recursion;
``relation_values`` evaluates it on power-basis coordinates, and ``b_in_g``
adds the f_j bracket and reads B_kj in g(A) itself off the two.
``fraction_walk`` walks the recursion over Q on ``Fraction``s, with no
denominators cleared, as ``cartan`` once did, and ``residue_walk`` walks one
int coordinate with the step that ``cartan._walk_coordinate`` once took.
Trial division decides irreducibility by brute force, independently of
``field.check_irreducible``'s gcd test.  ``sweep_pairs`` enumerates the
rank-2 configurations that the exhaustive tests walk.  ``build_parser``
builds argparse's parser from the CLI's flag table, which ``cli._parse``
reads by its own code.  ``entry_ladder`` is the closed-form ladder in the
per-entry form it had before ``cartan._row_ladder`` answered whole lists,
kept as it was but for taking the routes' coordinate form, so the row form
is checked against the code it replaced; it
shares only ``cartan._shared_bound``, which turns an int bound into a
``BValue``, and it still answers in ``BValue``s where the row form answers
in ints, with None for infinity.
"""

import argparse
import functools
import itertools
import math
from collections.abc import Callable, Iterator
from fractions import Fraction

from rootstrings import cli
from rootstrings.cartan import INFINITY, BValue, Parity, _shared_bound
from rootstrings.field import FieldElement


def d_closed_even(a_kj: FieldElement, a_kk: FieldElement, m: int) -> FieldElement:
    """Closed form of d_m for an even generator:
    -(m+1)*A_kj - C(m+1, 2)*A_kk."""
    if m < -1:
        raise ValueError("m must be >= -1")
    return -((m + 1) * a_kj) - math.comb(m + 1, 2) * a_kk


def d_closed_odd(a_kj: FieldElement, a_kk: FieldElement, m: int) -> FieldElement:
    """Closed form of d_m for an odd generator:
    A_kj + l*A_kk at m = 2l, and l*A_kk at m = 2l - 1."""
    if m < -1:
        raise ValueError("m must be >= -1")
    if m % 2 == 0:
        return a_kj + (m // 2) * a_kk
    return ((m + 1) // 2) * a_kk


@functools.cache
def relation_scalar(parity_k: Parity, parity_j: Parity, m: int) -> tuple[int, int]:
    """(u, v) such that [f_k, X_{m+1}] = (u*A_kk + v*A_kj) X_m, where
    X_m = (ad e_k)^m e_j, computed in U(g) from the defining relations of the
    contragredient Lie superalgebra (Kac, "Lie superalgebras", Adv. Math. 26,
    1977) alone:

    * [e_k, f_k] = h_k, so [f_k, e_k] = -(-1)^{i_k} h_k, and [f_k, e_j] = 0;
    * h_k e_x = e_x (h_k + A_kx);
    * the super sign rule, with |e_k| = |f_k| = i_k and |e_j| = i_j.

    X_m is the list of the m + 1 integer coefficients of the words
    e_k^a e_j e_k^(m - a), indexed by a.  Only sums and integer multiples of
    A_kk and A_kj occur, so (u, v) holds over Z[A_kk, A_kj] and so in every
    field; the first-zero rule reads d_m = u*A_kk + v*A_kj.  It reads no route,
    no ladder and no recursion step of the package.  Raises ``ValueError``
    when an h_k survives on the right or the bracket is not a multiple of X_m.
    At p = 2 an odd e_k has a squaring map that words do not model, so there
    the result is the formal identity only.
    """
    i_k, i_j = _bits(parity_k, parity_j)
    x = _x_words(i_k, i_j, m)
    return _multiple_of(_ad_f_k(_ad_e_k(x, m, i_k, i_j), i_k, i_j), x)


def _bits(parity_k: Parity, parity_j: Parity) -> tuple[int, int]:
    """(i_k, i_j) as 0 for even and 1 for odd."""
    return int(parity_k is Parity.ODD), int(parity_j is Parity.ODD)


@functools.cache
def _x_words(i_k: int, i_j: int, m: int) -> list[int]:
    """X_m = (ad e_k)^m e_j as ``relation_scalar`` writes it: the m + 1
    coefficients of the words e_k^a e_j e_k^(m - a), indexed by a."""
    return [1] if m == 0 else _ad_e_k(_x_words(i_k, i_j, m - 1), m - 1, i_k, i_j)


def _ad_e_k(x: list[int], n: int, i_k: int, i_j: int) -> list[int]:
    """X_{n+1} = e_k X_n - (-1)^{i_k |X_n|} X_n e_k, with |X_n| = i_j + n*i_k:
    e_k on the left moves a word from a to a + 1, on the right keeps a."""
    sign = (-1) ** (i_k * (i_j + n * i_k))
    return [(x[a - 1] if a else 0) - (sign * x[a] if a <= n else 0) for a in range(n + 2)]


def _ad_f_k(x: list[int], i_k: int, i_j: int) -> list[tuple[int, int, int]]:
    """[f_k, X] for X of n e_k's per word, as one int triple (h, u, v) per
    word e_k^a e_j e_k^(n - 1 - a): that word times (h*h_k + u*A_kk + v*A_kj).

    ad f_k is a superderivation: it replaces each e_k of a word in turn by
    [f_k, e_k] = -(-1)^{i_k} h_k, with the sign (-1)^{i_k * parity of the
    letters before it}, and kills e_j.  The h_k then moves right past each
    later letter e_x, picking up A_kx."""
    n = len(x) - 1
    out = [[0, 0, 0] for _ in range(n)]
    for a, c in enumerate(x):
        letters = "k" * a + "j" + "k" * (n - a)
        before = 0                          # parity of the letters left of pos
        for pos, letter in enumerate(letters):
            if letter == "k":
                sign = (-1) ** (i_k * before) * -(-1) ** i_k * c
                rest = letters[pos + 1:]
                word = out[a - 1 if pos < a else a]
                word[0] += sign
                word[1] += sign * rest.count("k")
                word[2] += sign * rest.count("j")
            before += i_k if letter == "k" else i_j
    return [tuple(word) for word in out]


def _multiple_of(bracket: list[tuple[int, int, int]], x: list[int]) -> tuple[int, int]:
    """(u, v) with ``bracket`` = (u*A_kk + v*A_kj) X, from ``_ad_f_k``'s
    triples.  X's last word e_k^m e_j has coefficient 1, so (u, v) is read
    there; raises ``ValueError`` unless every h_k cancels and every word's
    (u, v) is that multiple of its coefficient in X."""
    if any(h for h, _, _ in bracket):
        raise ValueError(f"an h_k survives on the right: {bracket}")
    _, u, v = bracket[-1]
    if x[-1] != 1 or any((b, c) != (u * w, v * w) for (_, b, c), w in zip(bracket, x)):
        raise ValueError(f"{bracket} is not a multiple of X = {x}")
    return u, v


@functools.cache
def relation_scalar_j(parity_k: Parity, parity_j: Parity, m: int) -> int:
    """w such that [f_j, X_{m+1}] = w*A_jk e_k^(m+1), from the same words as
    ``relation_scalar`` and the relations of f_j:

    * [e_j, f_j] = h_j, so [f_j, e_j] = -(-1)^{i_j} h_j, and [f_j, e_k] = 0;
    * h_j e_k = e_k (h_j + A_jk).

    ad f_j replaces the one e_j of each word e_k^a e_j e_k^(m + 1 - a) by
    that h_j, with the sign (-1)^{i_j * a * i_k} of the a letters before it,
    and the h_j then moves right past the m + 1 - a letters e_k after it.
    Raises ``ValueError`` when an h_j survives on the right.
    """
    i_k, i_j = _bits(parity_k, parity_j)
    x = _x_words(i_k, i_j, m + 1)
    h = w = 0
    for a, c in enumerate(x):
        sign = (-1) ** (i_j * a * i_k) * -(-1) ** i_j * c
        h += sign
        w += sign * (m + 1 - a)
    if h:
        raise ValueError(f"an h_j survives on the right of [f_j, X] for X = {x}")
    return w


@functools.cache
def power_scalar(parity_k: Parity, n: int) -> int:
    """C such that [f_k, e_k^n] = C*A_kk e_k^(n-1), for n >= 2: each e_k of
    the word in turn becomes [f_k, e_k] = -(-1)^{i_k} h_k, with the sign
    (-1)^{i_k * pos} of the pos letters before it, and the h_k moves right
    past the n - 1 - pos letters after it.  Raises ``ValueError`` when an
    h_k survives on the right, as it does where e_k^n is no element of g:
    at n = 2 for an even e_k, whose [e_k, e_k] is 0."""
    i_k = int(parity_k is Parity.ODD)
    signs = [(-1) ** (i_k * pos) * -(-1) ** i_k for pos in range(n)]
    if sum(signs):
        raise ValueError(f"an h_k survives on the right of [f_k, e_k^{n}]")
    return sum(sign * (n - 1 - pos) for pos, sign in enumerate(signs))


def _vanishes(p: int, *terms: tuple[int, tuple]) -> bool:
    """Whether the sum of n*A over the pairs (n, A) of ``terms``, each A a
    coordinate tuple, is 0: at each coordinate, reduced mod p > 0."""
    sums = [sum(column) for column in zip(*([n * x for x in a] for n, a in terms))]
    return not any(t % p if p else t for t in sums)


def _power_in_ideal(parity_k: Parity, n: int, p: int, kk: tuple) -> bool:
    """Whether e_k^n lies in the maximal ideal r: never at n = 1; beyond,
    exactly when [f_k, e_k^n] = C*A_kk e_k^(n-1) does, since f_j and every
    other f_i bracket e_k^n to 0."""
    return n > 1 and (_vanishes(p, (power_scalar(parity_k, n), kk))
                      or _power_in_ideal(parity_k, n - 1, p, kk))


def b_in_g(parity_k: Parity, parity_j: Parity, p: int, kk: tuple, kj: tuple,
           jk: tuple, cap: int) -> int | None:
    """B_kj in the contragredient algebra g(A) itself, from the defining
    relations alone: the least m <= ``cap`` at which X_{m+1} lies in the
    maximal ideal r, or None where there is none.  A_kk, A_kj and A_jk are
    coordinate tuples in characteristic p.

    X_0 = e_j is not in r, and an element of height at least 2 lies in r
    exactly when each of its f_i brackets does (Kac, Adv. Math. 26, 1977).
    Only f_k and f_j bracket X_{m+1} to nonzero: [f_k, X_{m+1}] = d_m X_m,
    with d_m = u*A_kk + v*A_kj of ``relation_scalar``, and [f_j, X_{m+1}] =
    w*A_jk e_k^(m+1) of ``relation_scalar_j``.  So while X_m is not in r,
    X_{m+1} lies in r exactly when d_m = 0 and either w*A_jk = 0 or
    e_k^(m+1) lies in r.  It reads no route of the package.
    """
    for m in range(cap + 1):
        u, v = relation_scalar(parity_k, parity_j, m)
        if _vanishes(p, (u, kk), (v, kj)) and (
                _vanishes(p, (relation_scalar_j(parity_k, parity_j, m), jk))
                or _power_in_ideal(parity_k, m + 1, p, kk)):
            return m
    return None


def relation_values(parity_k: Parity, parity_j: Parity, a_kk: FieldElement,
                    a_kj: FieldElement, last: int) -> list[tuple]:
    """s_0, ..., s_last of ``relation_scalar`` at (A_kk, A_kj), as coordinate
    tuples laid out like ``FieldElement.coeffs``: u*a + v*c on each pair of
    power-basis coordinates (ints, or Fractions over Q), reduced mod p > 0."""
    p = a_kk.spec.characteristic
    values = []
    for m in range(last + 1):
        u, v = relation_scalar(parity_k, parity_j, m)
        s = (u * a + v * c for a, c in zip(a_kk.coeffs, a_kj.coeffs))
        values.append(tuple(t % p for t in s) if p else tuple(s))
    return values


def fraction_walk(a_kj: Fraction, a_kk: Fraction, parity: Parity) -> Iterator[Fraction]:
    """d_0, d_1, ... over Q, on the rationals themselves:
    d_m = (-1)^parity * (d_{m-1} - A_kj - m*A_kk) from d_{-1} = 0.  The
    iterator never ends."""
    d, c, sign = Fraction(0), Fraction(a_kj), parity.sign
    while True:     # c = A_kj + m * A_kk at step m
        d = sign * (d - c)
        yield d
        c += a_kk


def residue_walk(a: int, c: int, sign: int, p: int) -> Iterator[int]:
    """One int coordinate of d_0, d_1, ..., A_kk's coordinate being ``a``
    and A_kj's ``c``: d_m = sign * (d_{m-1} - c) from d_{-1} = 0, with c
    growing by ``a`` per step, unreduced, and d reduced mod p when p > 0.
    The iterator never ends."""
    d = 0
    while True:     # c = A_kj + m * A_kk at step m
        d = sign * (d - c) % p if p else sign * (d - c)
        yield d
        c += a


def irreducible_by_trial_division(f, p: int) -> bool:
    """Whether the monic polynomial ``f`` (coefficients low degree first) is
    irreducible over GF(p): no monic polynomial of degree 1 to deg(f)/2
    divides it.  Costs p^(deg(f)/2) divisions, so only small fields."""
    k = len(f) - 1
    return all(any(_remainder(f, tail + (1,), p))
               for d in range(1, k // 2 + 1)
               for tail in itertools.product(range(p), repeat=d))


def _remainder(f, g, p: int) -> list[int]:
    """f mod g over GF(p), for a monic g: deg(g) coefficients, low first."""
    r = list(f)
    d = len(g) - 1
    for top in range(len(r) - 1, d - 1, -1):
        c = r[top] % p
        for i, gi in enumerate(g):
            r[top - d + i] -= c * gi
    return [c % p for c in r[:d]]


def entry_ladder(parity: Parity, p: int, kk: tuple) -> Callable[[tuple], BValue]:
    """The closed-form case ladder of one row, i_k = ``parity`` and A_kk =
    ``kk`` in characteristic ``p``, as a function of one A_kj, one call per
    entry: ``cartan._row_ladder`` as it was before it took a list and
    answered in ints, whose docstring lists the branches.  It takes the
    route's coordinate form, tests proportionality entry by entry, builds no
    table, and answers a ``BValue``, ``INFINITY`` for an infinite bound."""
    even = parity is Parity.EVEN
    zero = _shared_bound(0)
    if not any(kk):                                 # branches 1 and 2
        other = (_shared_bound(p - 1) if p else INFINITY) if even else _shared_bound(1)
        return lambda kj: other if any(kj) else zero
    if even and p == 2:                             # branches 1 and 3
        equal, unequal = _shared_bound(2), _shared_bound(3)
        return lambda kj: (equal if kj == kk else unequal) if any(kj) else zero
    if p:                                           # branches 4 and 5
        i = next(i for i, b in enumerate(kk) if b)
        inv = pow(kk[i], -1, p)
        independent = _shared_bound(p - 1 if even else 2 * p - 1)

        def ratio_bound(kj: tuple) -> BValue:
            c = kj[i] * inv % p
            if len(kk) > 1 and any((a - c * b) % p for a, b in zip(kj, kk)):
                return independent
            return _shared_bound(-2 * c % p if even else 2 * (-c % p))

        return ratio_bound
    # p = 0, branch 5: m = u * top / (v * bottom); divmod leaves no remainder
    # exactly when the quotient is an integer, whatever the sign of the divisor
    y, z = kk[0].as_integer_ratio()
    top, bottom = (-2 if even else -1) * z, y

    def rational_bound(kj: tuple) -> BValue:
        u, v = kj[0].as_integer_ratio()
        m, rest = divmod(u * top, v * bottom)
        if rest or m < 0:
            return INFINITY
        return _shared_bound(m if even else 2 * m)

    return rational_bound


def sweep_pairs(spec):
    """Every rank-2 configuration (parity, A_kk, A_kj) over a finite field.

    Parity varies slowest, then A_kk, then A_kj, each in ``spec.elements()``
    order, the order in which ``selfcheck.check_field`` sweeps them.
    """
    elements = list(spec.elements())
    return itertools.product(Parity, elements, elements)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad arguments; the CLI exits 1."""

    def error(self, message):
        raise SystemExit(cli.EXIT_VALIDATION_ERROR)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``cli._COMMANDS``: one subparser per
    subcommand, each flag added with its table options, then ``--output``."""
    parser = _Parser(prog="rootstrings", description="Root-string bounds from Cartan data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, flags in cli._COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag, options in (*flags, cli._OUTPUT):
            sp.add_argument(flag, **options)
        sp.set_defaults(handler=handler)
    return parser
