"""Closed forms of the d-sequence, kept as test oracles for the recursion walk.

They multiply field elements by integers, so they share no code with
``cartan._walk``, which adds residue coordinates step by step.
"""

import math

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
