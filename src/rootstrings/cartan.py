"""Root-string bounds from Cartan data.

For a Lie superalgebra with Cartan matrix A and parities I of the Chevalley
generators, the bound B_kj (k != j) is the largest m >= 0 such that
alpha_j + m*alpha_k is a root.  Under the standard regularity assumptions it
equals the first index m >= 0 at which the scalar sequence

    d_{-1} = 0,    d_m = (-1)^{i_k} (d_{m-1} - A_kj - m*A_kk)

vanishes.  Two independent routes compute it here:

* ``b_recursive`` walks the sequence and returns the first zero, and
* ``b_closed`` evaluates a closed-form case ladder on (i_k, A_kk, A_kj),
  built once per row from (i_k, A_kk) and applied to each A_kj.

For ``selfcheck``'s exhaustive sweeps, ``_row_walk`` runs the recursion a
row at a time: over GF(p^k) d_m is GF(p)-linear in A_kj and A_kk, so one
walk of its two coefficients settles the first zero of every A_kj.

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
from collections.abc import Callable, Iterator
from enum import Enum
from functools import lru_cache, total_ordering

from .field import FieldElement, FieldSpec
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
        self._fill(value)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.value is not None:
            if not isinstance(self.value, int) or isinstance(self.value, bool):
                raise ValueError("finite bounds are integers")
            if self.value < 0:
                raise ValueError("bounds are non-negative")

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

#: The ladder's finite bounds, shared: a ``BValue`` is immutable, so every
#: row that reaches bound m can hand out one object, built once, unchecked:
#: the ladder only asks for non-negative ints.  Bounds at large p or over Q
#: have no upper limit, so the cache is bounded.
_shared_bound = lru_cache(maxsize=1024)(BValue._trusted)


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
        self._fill(spec, entries, parities)
        self.__post_init__()

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(tuple(row) for row in self.entries))
        object.__setattr__(self, "parities", tuple(self.parities))
        n = len(self.parities)
        if n == 0:
            raise ValueError("rank must be positive")
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ValueError(f"matrix must be square of size {n}")
        for row in self.entries:
            for entry in row:
                if not isinstance(entry, FieldElement):
                    raise TypeError("matrix entries must be field elements")
                if entry.spec is not self.spec and entry.spec != self.spec:
                    raise ValueError("all entries must share the datum's field")
        if any(not isinstance(q, Parity) for q in self.parities):
            raise TypeError("parities must be Parity values")

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


def _pair(datum: CartanDatum, k: int, j: int) -> tuple[Parity, FieldElement, FieldElement]:
    """(i_k, A_kk, A_kj) for k != j; the datum checks that k and j lie in
    [1, n] before k = j is refused."""
    a_kj = datum.entry(k, j)
    if k == j:
        raise ValueError("k and j must differ")
    return datum.parities[k - 1], datum.entries[k - 1][k - 1], a_kj


def d_next(d_prev: FieldElement, a_kj: FieldElement, a_kk: FieldElement,
           m: int, parity: Parity) -> FieldElement:
    """One recursion step: (-1)^parity * (d_prev - A_kj - m*A_kk)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    step = d_prev - a_kj - m * a_kk
    return step if parity is Parity.EVEN else -step


def _walk_coordinate(a: int | Fraction, c: int | Fraction, sign: int,
                     p: int) -> Iterator[int | Fraction]:
    """One power-basis coordinate of d_0, d_1, ...: A_kk's coordinate is
    ``a``, A_kj's is ``c``.  Reduced mod p when p > 0; never ends."""
    d = 0
    while True:     # c = A_kj + m * A_kk at step m
        d = sign * (d - c) % p if p else sign * (d - c)
        yield d
        c += a


def _walk(a_kj: FieldElement, a_kk: FieldElement,
          parity: Parity) -> Iterator[tuple]:
    """d_0, d_1, ... as coordinate tuples laid out like ``FieldElement.coeffs``,
    without building field elements.

    The recursion only adds and scales by the integer m, and GF(p) acts
    coordinate-wise in the power basis, so each coordinate walks on its own
    (a ``Fraction`` at p = 0).  As for a field element, a step is zero when
    no coordinate is nonzero.  The iterator never ends.
    """
    p, sign = a_kk.spec.characteristic, parity.sign
    return zip(*(_walk_coordinate(a, c, sign, p) for a, c in zip(a_kk.coeffs, a_kj.coeffs)))


def _last_step(p: int) -> int:
    """How far a walk of the d-sequence goes at characteristic p > 0: a zero
    is guaranteed by m = 2p - 1."""
    return 2 * p - 1


def _missed_zero(parity: Parity, a_kk: FieldElement, a_kj: FieldElement) -> ConsistencyError:
    """The error for a walk that reached ``_last_step`` without a zero."""
    return ConsistencyError(
        f"no zero of the d-sequence up to m = {_last_step(a_kk.spec.characteristic)} at "
        f"(i_k, A_kk, A_kj) = ({parity.value}, {a_kk}, {a_kj})")


def _first_zero(a_kj: FieldElement, a_kk: FieldElement, parity: Parity,
                scan_cap: int = DEFAULT_SCAN_CAP) -> int | None:
    """The first m >= 0 with d_m = 0 on ``_walk``, one triple at a time.

    In characteristic p > 0 the walk stops at ``_last_step`` and a miss
    raises ``_missed_zero``; ``scan_cap`` is not read.  In characteristic 0
    the walk stops at m = ``scan_cap`` and a miss returns None.  It is the
    oracle of ``_row_walk``, which settles a whole row in one walk.
    """
    p = a_kk.spec.characteristic
    last = _last_step(p) if p else scan_cap
    steps = itertools.islice(_walk(a_kj, a_kk, parity), last + 1)
    try:
        return operator.indexOf(map(any, steps), False)
    except ValueError:
        if p:
            raise _missed_zero(parity, a_kk, a_kj) from None
        return None


def _linear_walk(sign: int, p: int) -> Iterator[tuple[int, int]]:
    """(alpha_m, beta_m) mod p for m = 0, 1, ...: the recursion is GF(p)-linear
    in A_kj and A_kk, so d_m = alpha_m * A_kj + beta_m * A_kk, where
    alpha_{-1} = beta_{-1} = 0, alpha_m = sign * (alpha_{m-1} - 1) and
    beta_m = sign * (beta_{m-1} - m).  The iterator never ends."""
    alpha = beta = 0
    for m in itertools.count():
        alpha = sign * (alpha - 1) % p
        beta = sign * (beta - m) % p
        yield alpha, beta


def _row_walk(parity: Parity, a_kk: FieldElement) -> Callable[[tuple], int]:
    """The recursion of one row, i_k = ``parity`` and A_kk = ``a_kk`` at p > 0:
    a function from the coordinates of A_kj (laid out like
    ``FieldElement.coeffs``) to the first m >= 0 with d_m = 0.

    One walk of ``_linear_walk`` to ``_last_step`` settles every A_kj of the
    row, in O(p + q) over GF(q) instead of O(p) per A_kj.  At step m, if
    alpha_m != 0 exactly one A_kj has d_m = 0, namely c * A_kk with
    c = -beta_m / alpha_m in GF(p); it gets m unless an earlier step gave it
    one.  If alpha_m = 0, d_m = beta_m * A_kk, so when that vanishes every
    A_kj still without a zero gets m, and the walk stops.  An A_kj that gets
    no m raises ``_missed_zero``.  Nothing here reads the closed form.
    """
    spec = a_kk.spec
    p, kk = spec.characteristic, a_kk.coeffs
    zeros: dict[tuple, int] = {}
    rest = None                     # the m every other A_kj gets, if any
    steps = itertools.islice(_linear_walk(parity.sign, p), _last_step(p) + 1)
    for m, (alpha, beta) in enumerate(steps):
        if alpha:
            c = -beta * pow(alpha, -1, p) % p
            zeros.setdefault(tuple(c * b % p for b in kk), m)
        elif not beta or not any(kk):
            rest = m
            break
    zero_of = zeros.get

    def first_zero(kj: tuple) -> int:
        m = zero_of(kj, rest)
        if m is None:
            raise _missed_zero(parity, a_kk, FieldElement._trusted(spec, kj))
        return m

    return first_zero


def d_sequence(datum: CartanDatum, k: int, j: int, last: int) -> DSequence:
    """Iterate the recursion from d_{-1} = 0 up to index ``last``.

    The walk runs on residue coordinates; only the returned values are built
    as field elements.
    """
    parity, a_kk, a_kj = _pair(datum, k, j)
    if last < -1:
        raise ValueError("last index must be >= -1")
    spec = datum.spec
    walk = _walk(a_kj, a_kk, parity)
    values = [spec.zero()]
    values += (FieldElement._trusted(spec, d) for d in itertools.islice(walk, last + 1))
    return DSequence._trusted(k, j, tuple(values))


def b_recursive(datum: CartanDatum, k: int, j: int, *,
                scan_cap: int = DEFAULT_SCAN_CAP) -> BValue:
    """First index m >= 0 with d_m = 0, walking the recursion directly.

    ``_first_zero`` decides how far to walk: to the guaranteed zero at
    p > 0, and to ``scan_cap`` in characteristic 0.  There a scan that comes
    up empty cannot certify infinity on its own, so the closed form then
    decides between an infinite bound and a too-small cap.  The walk runs on
    residue coordinates and builds no field element per step.  A negative
    cap is refused at every characteristic.
    """
    parity, a_kk, a_kj = _pair(datum, k, j)
    if scan_cap < 0:
        raise ValueError("scan cap must be >= 0")
    m = _first_zero(a_kj, a_kk, parity, scan_cap)
    if m is not None:
        return BValue(m)
    closed = b_closed(datum, k, j)
    if closed.is_finite:
        raise ValueError(
            f"scan cap {scan_cap} is below the closed-form bound {closed}; raise scan_cap")
    return INFINITY


def _row_ladder(parity: Parity, a_kk: FieldElement) -> Callable[[tuple], BValue]:
    """The closed-form case ladder of one row, i_k = ``parity`` and A_kk =
    ``a_kk``: a function from the coordinates of A_kj (laid out like
    ``FieldElement.coeffs``) to B_kj.

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

    The row's facts are fixed here once: the zero test on A_kk, its first
    nonzero coordinate i and that coordinate's inverse mod p.  GF(p) acts on
    the power basis coordinate-wise, so c is read off coordinate i of A_kj
    and checked against all the others; no field division happens.  At
    p = 0, A_kk = y/z and A_kj = u/v in lowest terms (v, z > 0), and
    m = -s * A_kj / A_kk = (-s*z*u) / (y*v) with s = 2 (even) or 1 (odd), so
    one integer ``divmod`` decides it; no Fraction is built.  Finite bounds
    come from a bounded cache and are shared between rows and calls.
    """
    p = a_kk.spec.characteristic
    even = parity is Parity.EVEN
    kk = a_kk.coeffs
    i = next((i for i, b in enumerate(kk) if b), None)     # None: A_kk = 0
    inv = pow(kk[i], -1, p) if p and i is not None else None
    if not p and i is not None:
        # m = u * top / (v * bottom); divmod leaves no remainder exactly when
        # the quotient is an integer, whatever the sign of the divisor
        y, z = kk[0].as_integer_ratio()
        top, bottom = (-2 if even else -1) * z, y

    def bound(kj: tuple) -> BValue:
        if not any(kj):
            return _shared_bound(0)
        if i is None:
            if not even:
                return _shared_bound(1)
            return _shared_bound(p - 1) if p else INFINITY
        if even and p == 2:
            return _shared_bound(2 if kj == kk else 3)
        if p:
            c = kj[i] * inv % p
            if len(kk) > 1 and any((a - c * b) % p for a, b in zip(kj, kk)):
                return _shared_bound(p - 1 if even else 2 * p - 1)
            return _shared_bound(-2 * c % p if even else 2 * (-c % p))
        u, v = kj[0].as_integer_ratio()
        m, rest = divmod(u * top, v * bottom)
        if rest or m < 0:
            return INFINITY
        return _shared_bound(m if even else 2 * m)

    return bound


def b_closed(datum: CartanDatum, k: int, j: int) -> BValue:
    """The bound B_kj from the closed-form case ladder of row k
    (``_row_ladder``, whose docstring lists its branches).  It reads
    power-basis coordinates and does no field division."""
    parity, a_kk, a_kj = _pair(datum, k, j)
    return _row_ladder(parity, a_kk)(a_kj.coeffs)


_COEFFS = operator.attrgetter("coeffs")
_FIRST = operator.itemgetter(0)
_RATIO = operator.methodcaller("as_integer_ratio")


def b_row(datum: CartanDatum, k: int) -> tuple[BValue | None, ...]:
    """The bounds B_k1, ..., B_kn of row k, None at j = k.

    B_kj depends only on (i_k, A_kk, A_kj), and the first two are fixed along
    row k, so the row's ladder is built once and runs once per distinct A_kj
    of the row: at most q times over GF(q).  Equal A_kj get the same
    ``BValue`` object.
    """
    parity = datum.parity(k)        # IndexError outside [1, n]
    row = datum.entries[k - 1]
    ladder = _row_ladder(parity, row[k - 1])
    coeffs = list(map(_COEFFS, row))
    del coeffs[k - 1]
    # over GF(q) the coordinates are tuples of ints; over Q they hold a
    # Fraction, whose hash computes a modular inverse, so the row is keyed
    # on its integer pair (numerator, denominator) instead
    keys = (coeffs if datum.spec.characteristic
            else list(map(_RATIO, map(_FIRST, coeffs))))
    bounds = {key: ladder(c) for key, c in dict(zip(keys, coeffs)).items()}
    out = list(map(bounds.__getitem__, keys))
    out.insert(k - 1, None)
    return tuple(out)


def b_table(datum: CartanDatum) -> tuple[tuple[BValue | None, ...], ...]:
    """All bounds at once: entry [k-1][j-1] is B_kj, None on the diagonal.
    Row k is ``b_row(datum, k)``."""
    return tuple(b_row(datum, k) for k in range(1, datum.n + 1))
