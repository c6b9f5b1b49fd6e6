"""Root-string bounds from Cartan data.

For a Lie superalgebra with Cartan matrix A and parities I of the Chevalley
generators, the bound B_kj (k != j) is the largest m >= 0 such that
alpha_j + m*alpha_k is a root.  The first-zero rule takes it to be the
first index m >= 0 at which the scalar sequence

    d_{-1} = 0,    d_m = (-1)^{i_k} (d_{m-1} - A_kj - m*A_kk)

vanishes, and every bound that this module reports is that first zero.  The
rule needs the assumption below, that A_kj = 0 only where A_jk = 0.

The assumption.  Let X_m = (ad e_k)^m e_j in the contragredient algebra
g(A).  Then alpha_j + m*alpha_k is a root exactly when X_m is not in the
maximal ideal r, and X_{m+1} lies in r exactly when both its brackets with
f_k and with f_j do.  The first is [f_k, X_{m+1}] = d_m X_m.  The second is
a multiple of A_jk (ad e_k)^m e_k: +-A_jk e_k at m = 0, a multiple of
A_jk [e_k, e_k] at m = 1, and 0 beyond.  So where A_kj = 0 (then d_0 = 0)
but A_jk != 0, [f_j, [e_k, e_j]] = +-A_jk e_k != 0 and alpha_j + alpha_k is
a root of g(A), yet the first-zero rule answers B_kj = 0.  For example,
``table`` over Q on [[2, 0], [1, 2]], both rows even, answers B_12 = 0.
Where the assumption fails, the reported 0 is the first-zero rule, not B
in g(A); no report checks the assumption.

Two independent routes compute the first zero here:

* ``b_recursive`` walks the sequence and returns the first zero, and
* ``b_closed`` evaluates a closed-form case ladder on (i_k, A_kk, A_kj):
  one call of ``_row_ladder`` takes (i_k, A_kk) and a list of A_kj, picks
  the row's rule once and returns the list of their bounds.  ``b_closed``
  calls it with one entry, ``b_row`` with the whole row.

Below the public functions every route takes one entry form: the
characteristic p and each entry as its coordinate tuple, laid out like
``FieldElement.coeffs`` (power-basis ints mod p over GF(p^k), one Fraction
over Q).  Only ``_pair``, for one entry, and ``_row_ints``, for a row, read
a datum's elements; ``selfcheck`` builds its tuples without them.

Both routes answer in plain ints, with None for an infinite bound; only
``_shared_bound``, called by ``b_recursive``, ``b_closed`` and ``b_row``,
turns a bound into a ``BValue``.  The ``table`` report writes the ints of
``_row_ints``, the one ladder call per row that ``b_row`` wraps.

The recursion only adds and scales by the integer m, so its step is written
once, in ``_walk_coordinate``, on ints at every characteristic: over
GF(p^k) each power-basis coordinate walks on its own, reduced mod p, and
over Q the walk yields L * d_m, where L is the lcm of the denominators of
A_kj and A_kk, an int that vanishes exactly when d_m does.  For
``selfcheck``'s exhaustive sweeps, ``_row_walk`` answers a row in one call:
over GF(p^k) d_m = alpha_m * A_kj + beta_m * A_kk, where alpha_m and beta_m
depend only on p and the parity, so ``_zero_table`` walks the same step
once per (p, parity) and records where A_kj = c * A_kk first vanishes for
each c in GF(p); each call then builds one dict of p keys, in O(p * k), and
maps the row's list of A_kj through it.  ``selfcheck`` calls both routes
once per row and compares the two lists.

In positive characteristic the sequence is guaranteed to vanish by
m = 2p - 1, so every bound is finite; in characteristic 0 the bound can be
infinite, and only the closed form can certify that.

Integer scalars (the index m, the literal 2) always act through their
canonical image m * 1 in the field, which makes the p = 2 degeneracies such
as 2 = 0 automatic.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator
from enum import Enum
from functools import lru_cache, total_ordering

from .field import FieldElement, FieldSpec, _fraction
from .frozen import Frozen


#: How far ``b_recursive`` scans the d-sequence at characteristic 0 by default.
DEFAULT_SCAN_CAP = 1000


class ConsistencyError(RuntimeError):
    """The two routes to a bound disagreed, or a guaranteed zero never came.

    Either indicates an arithmetic bug, not a valid input state.
    """


class Parity(Enum):
    """Parity of a Chevalley generator."""

    EVEN = "ev"
    ODD = "od"

    @property
    def sign(self) -> int:
        """(-1) ** parity: +1 for even, -1 for odd."""
        return 1 if self is Parity.EVEN else -1


@total_ordering
class BValue(Frozen):
    """A root-string bound: a non-negative integer, or +infinity.

    Infinity is encoded as ``value = None`` and arises only in
    characteristic 0.  Compares transparently against plain integers.
    """

    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: int | None) -> None:
        if value is not None:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError("finite bounds are integers")
            if value < 0:
                raise ValueError("bounds are non-negative")
        self._fill(value)

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def _as_number(self) -> int | float:
        return math.inf if self.value is None else self.value

    @staticmethod
    def _other_number(other) -> int | float | None:
        if isinstance(other, BValue):
            return other._as_number()
        if isinstance(other, int) and not isinstance(other, bool):
            return other
        return None

    def __eq__(self, other):
        num = self._other_number(other)
        if num is None:
            return NotImplemented
        return self._as_number() == num

    def __hash__(self):
        return hash(self.value)

    def __lt__(self, other):
        num = self._other_number(other)
        if num is None:
            return NotImplemented
        return self._as_number() < num

    def __int__(self) -> int:
        if self.value is None:
            raise ValueError("bound is infinite")
        return self.value

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    def __repr__(self) -> str:
        return f"BValue({self.value})"


#: The infinite bound.
INFINITY = BValue(None)


@lru_cache(maxsize=1024)
def _shared_bound(value: int | None) -> BValue:
    """The ``BValue`` of a bound that a route answered as an int, or None for
    infinity: the one place where a bound becomes a ``BValue``.  A ``BValue``
    is immutable, so every entry with bound m can hand out one object, built
    once, unchecked: the ladder answers only non-negative ints.  Bounds at
    large p or over Q have no upper limit, so the cache is bounded."""
    return INFINITY if value is None else BValue._trusted(value)


class CartanDatum(Frozen):
    """A Cartan matrix together with the parities of its Chevalley generators.

    ``entries[i][j]`` is A_{i+1, j+1}; all indices in the public operations
    are 1-based, matching the usual numbering alpha_1, ..., alpha_n of the
    simple roots.  The document parser builds every entry with
    ``spec.element``, and the n x n tuple of tuples and the tuple of n
    parities itself, so it builds its datum with ``_trusted``, which skips
    the per-entry checks.
    """

    __slots__ = __match_args__ = ("spec", "entries", "parities")

    def __init__(self, spec: FieldSpec, entries, parities) -> None:
        entries, parities = tuple(tuple(row) for row in entries), tuple(parities)
        n = len(parities)
        if n == 0:
            raise ValueError("rank must be positive")
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"matrix must be square of size {n}")
        for row in entries:
            for entry in row:
                if not isinstance(entry, FieldElement):
                    raise TypeError("matrix entries must be field elements")
                if entry.spec is not spec and entry.spec != spec:
                    raise ValueError("all entries must share the datum's field")
        if any(not isinstance(q, Parity) for q in parities):
            raise TypeError("parities must be Parity values")
        self._fill(spec, entries, parities)

    @classmethod
    def build(cls, spec: FieldSpec, rows, parities) -> "CartanDatum":
        """Coerce raw entries (ints, rationals, coefficient lists) and parity
        labels ("ev"/"od" or Parity) into a datum."""
        entries = tuple(tuple(spec.element(v) for v in row) for row in rows)
        pars = tuple(q if isinstance(q, Parity) else Parity(q) for q in parities)
        return cls(spec, entries, pars)

    @property
    def n(self) -> int:
        return len(self.parities)

    def entry(self, k: int, j: int) -> FieldElement:
        """A_kj with 1-based indices; IndexError outside [1, n]."""
        n = self.n
        if not 1 <= k <= n or not 1 <= j <= n:
            raise IndexError(f"indices must lie in [1, {n}], got k={k}, j={j}")
        return self.entries[k - 1][j - 1]

    def parity(self, k: int) -> Parity:
        """i_k with a 1-based index; IndexError outside [1, n]."""
        if not 1 <= k <= self.n:
            raise IndexError(f"k must lie in [1, {self.n}]")
        return self.parities[k - 1]


class DSequence(Frozen):
    """The prefix d_{-1}, d_0, ..., d_M of the recursion for one pair (k, j).

    Index with the sequence position: ``seq[m]`` is d_m for -1 <= m <= M.
    """

    __slots__ = __match_args__ = ("k", "j", "values")

    def __init__(self, k: int, j: int, values: tuple[FieldElement, ...]) -> None:
        self._fill(k, j, values)

    def __getitem__(self, m: int) -> FieldElement:
        if not -1 <= m <= self.last_index:
            raise IndexError(f"index {m} outside [-1, {self.last_index}]")
        return self.values[m + 1]

    @property
    def last_index(self) -> int:
        return len(self.values) - 2


def pair_datum(spec: FieldSpec, a_kk, a_kj, parity: Parity) -> CartanDatum:
    """Minimal rank-2 datum exposing one (A_kk, A_kj) pair at (k, j) = (1, 2).

    Only row 1 matters for B_12, so row 2 is zero-filled.
    """
    return CartanDatum.build(spec, ((a_kk, a_kj), (0, 0)), (parity, Parity.EVEN))


def _pair(datum: CartanDatum, k: int, j: int) -> tuple[Parity, tuple, tuple]:
    """(i_k, A_kk, A_kj) for k != j, the two entries as coordinate tuples;
    the datum checks that k and j lie in [1, n] before k = j is refused."""
    kj = datum.entry(k, j).coeffs
    if k == j:
        raise ValueError("k and j must differ")
    return datum.parities[k - 1], datum.entries[k - 1][k - 1].coeffs, kj


def d_next(d_prev: FieldElement, a_kj: FieldElement, a_kk: FieldElement,
           m: int, parity: Parity) -> FieldElement:
    """One recursion step: (-1)^parity * (d_prev - A_kj - m*A_kk)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    step = d_prev - a_kj - m * a_kk
    return step if parity is Parity.EVEN else -step


def _walk_coordinate(a: int, c: int, sign: int, p: int) -> Iterator[int]:
    """The one recursion step, on the ints of one coordinate of d_0, d_1, ...:
    A_kk's coordinate is ``a`` and A_kj's is ``c``.  Reduced mod p when
    p > 0; never ends.

    Step m draws c_m = A_kj + m * A_kk from ``itertools.count`` and sets
    d_m = d_{m-1} - c_m for an even row, c_m - d_{m-1} for an odd one: the
    parity picks the loop once, so no step multiplies by the sign."""
    d, cs = 0, itertools.count(c, a)        # c_m for m = 0, 1, ...
    if sign > 0:
        for c in cs:
            yield (d := (d - c) % p if p else d - c)
    else:
        for c in cs:
            yield (d := (c - d) % p if p else c - d)


def _scale(kk: tuple, kj: tuple) -> int:
    """L, the lcm of the denominators of A_kk and A_kj: 1 over GF(q), whose
    coordinates are ints, so L * x is an int for both at every characteristic."""
    return math.lcm(*(x.denominator for x in kk + kj))


def _walk(parity: Parity, p: int, kk: tuple, kj: tuple) -> list[Iterator[int]]:
    """L * d_0, L * d_1, ... as one int stream per coordinate, without
    building field elements; L is ``_scale``, 1 at p > 0.  Zipped, the
    streams give the int coordinate tuples of the steps.

    The recursion only adds and scales by the integer m, and GF(p) acts
    coordinate-wise in the power basis, so each coordinate walks on its own.
    At p = 0 the walk runs on L * A_kj and L * A_kk, so every step is the
    int L * d_m, which vanishes exactly when d_m does.  So a step is zero
    exactly when each stream holds 0 there, at every characteristic.  The
    streams never end.
    """
    sign, scale = parity.sign, _scale(kk, kj)
    return [_walk_coordinate(int(a * scale), int(c * scale), sign, p)
            for a, c in zip(kk, kj)]


def _last_step(p: int) -> int:
    """How far a walk of the d-sequence goes at characteristic p > 0: a zero
    is guaranteed by m = 2p - 1."""
    return 2 * p - 1


def _missed_zero(parity: Parity, p: int, kk: tuple, kj: tuple) -> ConsistencyError:
    """The error for a walk that reached ``_last_step`` without a zero; it
    names A_kk and A_kj as coordinate lists."""
    return ConsistencyError(
        f"no zero of the d-sequence up to m = {_last_step(p)} at "
        f"(i_k, A_kk, A_kj) = ({parity.value}, {list(kk)}, {list(kj)})")


def _first_zero(parity: Parity, p: int, kk: tuple, kj: tuple,
                scan_cap: int = DEFAULT_SCAN_CAP) -> int | None:
    """The first m >= 0 with d_m = 0 on ``_walk``, one triple at a time: at
    degree 1 the first 0 of the one stream, one int comparison per step,
    and above it the first zero tuple of the zipped streams, one tuple
    comparison per step.

    In characteristic p > 0 the walk stops at ``_last_step`` and a miss
    raises ``_missed_zero``; ``scan_cap`` is not read.  In characteristic 0
    the walk stops at m = ``scan_cap`` and a miss returns None.  It is the
    walk that ``b_recursive``, and so ``bkj``, runs, and the test oracle of
    ``_row_walk``, which settles a whole row from one table.
    """
    last = _last_step(p) if p else scan_cap
    walk = _walk(parity, p, kk, kj)
    steps, zero = (walk[0], 0) if len(walk) == 1 else (zip(*walk), (0,) * len(walk))
    try:
        return operator.indexOf(itertools.islice(steps, last + 1), zero)
    except ValueError:
        if p:
            raise _missed_zero(parity, p, kk, kj) from None
        return None


@lru_cache(maxsize=1)
def _zero_table(parity: Parity, p: int) -> tuple[dict[int, int], int | None, int | None]:
    """(first, stop, flat): where d_m = alpha_m * A_kj + beta_m * A_kk first
    vanishes at p > 0, for ``parity``.

    (alpha_m, beta_m) are the two streams of one ``_walk``, zipped, up to
    ``_last_step(p)``, with A_kk = (0, 1) and A_kj = (1, 0): its coordinate
    0 walks (A_kj, A_kk) = (1, 0), and its coordinate 1 walks (0, 1).  They
    depend on p and the parity only.  ``stop`` is the first m with alpha_m =
    beta_m = 0, where d_m vanishes whatever A_kj and A_kk are, and ``flat``
    the first m with alpha_m = 0.  ``first[c]``, for c in GF(p), is the
    first m before ``stop`` with alpha_m != 0 and alpha_m * c + beta_m = 0,
    and c is absent where there is none; the dict runs in descending m.
    ``stop`` and ``flat`` are None where the walk finds none.  ``selfcheck``
    sweeps every row of one parity in turn, so the table is built once per
    field and parity, with one modular inverse per step.
    """
    steps = list(itertools.islice(zip(*_walk(parity, p, (0, 1), (1, 0))), _last_step(p) + 1))
    stop = next((m for m, step in enumerate(steps) if step == (0, 0)), None)
    flat = next((m for m, (alpha, _) in enumerate(steps) if not alpha), None)
    first: dict[int, int] = {}
    for m, (alpha, beta) in enumerate(steps[:stop]):
        if alpha:
            first.setdefault(-beta * pow(alpha, -1, p) % p, m)
    return dict(reversed(first.items())), stop, flat


def _row_walk(parity: Parity, p: int, kk: tuple, kjs: list[tuple]) -> list[int]:
    """The recursion of one row, i_k = ``parity`` and A_kk = ``kk`` at p > 0:
    the list, in the order of ``kjs``, of the first m >= 0 with d_m = 0 for
    each A_kj of ``kjs``.

    The recursion is GF(p)-linear in A_kj and A_kk, so d_m = alpha_m * A_kj
    + beta_m * A_kk, and ``_zero_table`` holds where it first vanishes.  If
    A_kj = c * A_kk with c in GF(p), d_m = (alpha_m * c + beta_m) * A_kk, so
    A_kj gets ``first[c]``, or ``stop`` if c is absent.  Any other A_kj is
    independent of a nonzero A_kk, so it gets ``stop``; if A_kk = 0, every
    nonzero A_kj gets ``flat``, since d_m = alpha_m * A_kj.  The row is one
    dict of the p points c * A_kk, built column by column in O(p * k) over
    GF(p^k) with no walk and no modular inverse; built in descending m, its
    one key at A_kk = 0, the zero tuple, keeps the least m.  The first A_kj
    of the list that gets no m raises ``_missed_zero``.  Nothing here reads
    the closed form.
    """
    first, stop, flat = _zero_table(parity, p)
    zero_of = dict(zip(zip(*[[c * b % p for c in first] for b in kk]), first.values()))
    rest = stop if any(kk) else flat
    zeros = list(map(zero_of.get, kjs, itertools.repeat(rest)))
    if rest is None and None in zeros:      # the dict's values are ints
        raise _missed_zero(parity, p, kk, kjs[zeros.index(None)])
    return zeros


def d_sequence(datum: CartanDatum, k: int, j: int, last: int) -> DSequence:
    """Iterate the recursion from d_{-1} = 0 up to index ``last``.

    The walk runs on int coordinates; only the returned values are built as
    field elements.  At p = 0 the walk holds L * d_m (``_walk``), so each
    returned value is divided by L.
    """
    parity, kk, kj = _pair(datum, k, j)
    if last < -1:
        raise ValueError("last index must be >= -1")
    spec = datum.spec
    walk = itertools.islice(zip(*_walk(parity, spec.characteristic, kk, kj)), last + 1)
    if not spec.characteristic:
        scale, fraction = _scale(kk, kj), _fraction()
        walk = ((fraction(d, scale),) for d, in walk)
    values = (spec.zero(), *(FieldElement._trusted(spec, d) for d in walk))
    return DSequence._trusted(k, j, values)


def b_recursive(datum: CartanDatum, k: int, j: int, *,
                scan_cap: int = DEFAULT_SCAN_CAP) -> BValue:
    """First index m >= 0 with d_m = 0, walking the recursion directly.

    ``_first_zero`` decides how far to walk: to the guaranteed zero at
    p > 0, and to ``scan_cap`` in characteristic 0.  There a scan that comes
    up empty cannot certify infinity on its own, so the row's ladder, asked
    for this one entry, then decides between an infinite bound and a
    too-small cap.  The walk runs on int coordinates and builds no field
    element per step, and the bound is the shared ``BValue`` of
    ``_shared_bound``.  A negative cap is refused at every characteristic.
    """
    parity, kk, kj = _pair(datum, k, j)
    if scan_cap < 0:
        raise ValueError("scan cap must be >= 0")
    p = datum.spec.characteristic
    m = _first_zero(parity, p, kk, kj, scan_cap)
    if m is None:
        closed = _row_ladder(parity, p, kk, [kj])[0]
        if closed is not None:
            raise ValueError(f"scan cap {scan_cap} is below the closed-form bound {closed}; "
                             "raise scan_cap (--max-m on the command line)")
    return _shared_bound(m)


def _row_ladder(parity: Parity, p: int, kk: tuple, kjs: list[tuple]) -> list[int | None]:
    """The closed-form case ladder of one row, i_k = ``parity`` and A_kk =
    ``kk``: the list, in the order of ``kjs``, of B_kj as ints for each A_kj
    of ``kjs``, with None for an infinite bound.

    One ladder serves every characteristic p (p = 0 for the rationals).
    With c the prime-field scalar such that A_kj = c * A_kk, when there is
    one, the branches in order are:

    1. A_kj = 0                                  -> 0
    2. A_kk = 0: even                            -> p - 1 (infinity at p = 0)
                 odd                             -> 1
    3. even, p = 2: A_kj = A_kk                  -> 2, otherwise -> 3
    4. no such c: even                           -> p - 1
                  odd                            -> 2p - 1
    5. otherwise: even                           -> -2c
                  odd                            -> 2 * (-c)

    In branch 5, p > 0 reduces the integer -2c or -c into [0, p); at p = 0 it
    must be a non-negative integer, and otherwise the bound is infinite.
    Branch 4 never fires at p = 0, where every ratio is rational.

    The rule is chosen once per call, from the row's facts: A_kk = 0
    (branches 1 and 2), even parity at p = 2 (branches 1 and 3), p > 0
    (branches 4 and 5) or p = 0.  Only the first two test A_kj = 0: in the
    others A_kj = 0 is c = 0, or m = 0 below, which branch 5 sends to 0.
    Branch 3 is one lookup in a dict of two keys, the zero tuple and A_kk;
    branch 2 tests ``any`` instead, since over Q a lookup would hash
    Fractions.  Branch 5's bound is t * (-s * c mod p), with s = 2, t = 1
    (even) or s = 1, t = 2 (odd).

    At p > 0 the row fixes A_kk's first nonzero coordinate i, that
    coordinate's inverse mod p, ratio = -s * inv mod p and the branch-4
    bound.  GF(p) acts on the power basis coordinate-wise, so if A_kj =
    c * A_kk then c = x * inv, where x is A_kj's coordinate i, and branch 5
    gives t * (x * ratio mod p); no field division happens.  At degree 1
    every A_kj is c * A_kk, so the list is one comprehension over its
    residues, with nothing of size p.  At degree > 1 the list tabulates the
    points c * A_kk that it can hit, keyed on x, with their branch-5
    bounds, and every entry is then one lookup, the branch-4 bound where it
    misses.  A list of at least p entries tabulates all p points, which
    spares it building the set of its x; a shorter one only those of the x
    that occur in it, so the table never has more keys than the list has
    entries.

    At p = 0, A_kk = y/z and A_kj = u/v in lowest terms (v, z > 0), and
    m = -s * A_kj / A_kk = (-s*z*u) / (y*v), so one integer ``divmod``
    decides it; no Fraction is built.
    """
    even = parity is Parity.EVEN
    s, t = (2, 1) if even else (1, 2)
    if not any(kk):                                 # branches 1 and 2
        other = (p - 1 if p else None) if even else 1
        return [other if any(kj) else 0 for kj in kjs]
    if even and p == 2:                             # branches 1 and 3
        bound_of = {(0,) * len(kk): 0, kk: 2}
        return list(map(bound_of.get, kjs, itertools.repeat(3)))
    if p == 0:
        # branch 5: m = u * top / (v * bottom); divmod leaves no remainder
        # exactly when the quotient is an integer, whatever the sign of the divisor
        y, z = kk[0].as_integer_ratio()
        top, bottom = -s * z, y
        return [None if rest or m < 0 else t * m
                for u, v in (kj[0].as_integer_ratio() for kj in kjs)
                for m, rest in [divmod(u * top, v * bottom)]]
    i = next(i for i, b in enumerate(kk) if b)      # branches 4 and 5
    inv = pow(kk[i], -1, p)
    ratio = -s * inv % p                            # -s * c = x * ratio
    if len(kk) == 1:
        return [t * (kj[0] * ratio % p) for kj in kjs]
    independent = p - 1 if even else 2 * p - 1
    xs = range(p) if p <= len(kjs) else {kj[i] for kj in kjs}
    points = zip(*[[x * inv * b % p for x in xs] for b in kk])
    bound_of = dict(zip(points, [t * (x * ratio % p) for x in xs]))
    return list(map(bound_of.get, kjs, itertools.repeat(independent)))


def b_closed(datum: CartanDatum, k: int, j: int) -> BValue:
    """The bound B_kj from the closed-form case ladder of row k
    (``_row_ladder``, whose docstring lists its branches), called with a
    one-entry list, as a shared ``BValue``.  It reads power-basis
    coordinates and does no field division."""
    parity, kk, kj = _pair(datum, k, j)
    return _shared_bound(_row_ladder(parity, datum.spec.characteristic, kk, [kj])[0])


def _row_ints(datum: CartanDatum, k: int) -> list[int | None]:
    """The bounds B_kj, j != k, of row k in column order, as the row's
    ladder answers them: ints, None for an infinite bound.

    B_kj depends only on (i_k, A_kk, A_kj), and the first two are fixed along
    row k, so the ladder is called once, with the row's n - 1 entries A_kj.
    ``b_row`` and ``table`` both read a row from here.
    """
    parity = datum.parity(k)        # IndexError outside [1, n]
    kjs = list(map(operator.attrgetter("coeffs"), datum.entries[k - 1]))
    kk = kjs.pop(k - 1)
    return _row_ladder(parity, datum.spec.characteristic, kk, kjs)


def b_row(datum: CartanDatum, k: int) -> tuple[BValue | None, ...]:
    """The bounds B_k1, ..., B_kn of row k, None at j = k.

    Each int of ``_row_ints`` becomes a ``BValue`` through ``_shared_bound``,
    so equal bounds are one object.
    """
    out = list(map(_shared_bound, _row_ints(datum, k)))
    out.insert(k - 1, None)
    return tuple(out)


def b_table(datum: CartanDatum) -> tuple[tuple[BValue | None, ...], ...]:
    """All bounds at once: entry [k-1][j-1] is B_kj, None on the diagonal.
    Row k is ``b_row(datum, k)``."""
    return tuple(b_row(datum, k) for k in range(1, datum.n + 1))
