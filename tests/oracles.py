"""Test oracles that share no code with the routines they check.

The closed forms of the d-sequence multiply field elements by integers, so
they share no code with ``cartan._walk``, which adds residue coordinates step
by step.  Trial division decides irreducibility by brute force, independently
of ``field.check_irreducible``'s gcd test.  ``sweep_pairs`` enumerates the
rank-2 configurations that the exhaustive tests walk.  ``build_parser``
builds argparse's parser from the CLI's flag table, which ``cli._parse``
reads by its own code.
"""

import argparse
import itertools
import math

from rootstrings import cli
from rootstrings.cartan import Parity
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
