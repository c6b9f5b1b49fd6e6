"""Reflections of a simple-root system, expressed in the original basis.

Reflecting at the k-th simple root sends alpha_k to -alpha_k and every other
alpha_j to alpha_j + B_kj * alpha_k, the deepest root on the string through
alpha_j in the alpha_k direction.  The result is recorded as integer
coordinate vectors in the old basis together with the change-of-basis
matrix, which is the identity except for row k and hence has determinant -1.

Only the new simple roots are produced.  No Cartan matrix is derived for the
reflected system, and reflections do not compose here: bounds relative to
the new system would need that matrix.
"""

from __future__ import annotations

from collections.abc import Sequence

from .cartan import BValue, CartanDatum, b_row
from .frozen import Frozen


class ReflectionUndefinedError(ValueError):
    """Reflection impossible: some bound B_kj is infinite (characteristic 0)."""

    def __init__(self, k: int, j: int):
        super().__init__(f"B is infinite at j = {j} when reflecting at k = {k}")
        self.k = k
        self.j = j


class RootVector(Frozen):
    """Integer coordinates in the simple-root basis alpha_1, ..., alpha_n.

    Each coordinate must have the exact type ``int``: a float, a string or
    a bool is refused with TypeError rather than converted.
    """

    __slots__ = __match_args__ = ("coords",)

    def __init__(self, coords: Sequence[int]) -> None:
        self._fill(coords)
        self.__post_init__()

    def __post_init__(self) -> None:
        coords = tuple(self.coords)
        if not set(map(type, coords)) <= {int}:
            raise TypeError("root coordinates must be ints")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def simple(cls, n: int, i: int) -> "RootVector":
        """alpha_i inside a rank-n system (1-based i)."""
        if not 1 <= i <= n:
            raise IndexError(f"index must lie in [1, {n}]")
        return cls(tuple(1 if pos == i - 1 else 0 for pos in range(n)))

    def __neg__(self) -> "RootVector":
        return RootVector._trusted(tuple(-c for c in self.coords))

    def __add__(self, other):
        if not isinstance(other, RootVector):
            return NotImplemented
        if len(other.coords) != len(self.coords):
            raise ValueError("rank mismatch")
        return RootVector._trusted(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        if not isinstance(other, RootVector):
            return NotImplemented
        return self + (-other)

    def scaled(self, m: int) -> "RootVector":
        return RootVector(tuple(m * c for c in self.coords))


class ReflectionResult(Frozen):
    """New simple roots sigma_1, ..., sigma_n after reflecting at index k.

    ``basis_matrix`` holds sigma_j in its j-th column, so it maps new-basis
    coordinates to old-basis coordinates.
    """

    __slots__ = __match_args__ = ("k", "b_row", "sigma", "basis_matrix")

    def __init__(self, k: int, b_row: tuple[BValue | None, ...], sigma: tuple[RootVector, ...],
                 basis_matrix: tuple[tuple[int, ...], ...]) -> None:
        self._fill(k, b_row, sigma, basis_matrix)


def basis_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant, by fraction-free (Bareiss) elimination.

    A row whose entry below the pivot is already zero is left alone when the
    pivot equals the previous one: its update would be x * prev // prev = x.
    The basis matrix of a reflection is the identity except for one row, so
    its determinant then costs O(n^2), not O(n^3).

    Each entry must have the exact type ``int``, as in ``RootVector``: a
    float, a string or a bool is refused with TypeError rather than converted.
    """
    n = len(matrix)
    rows = [list(row) for row in matrix]
    if not all(set(map(type, row)) <= {int} for row in rows):
        raise TypeError("determinant entries must be ints")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        if rows[i][i] == 0:
            for r in range(i + 1, n):
                if rows[r][i] != 0:
                    rows[i], rows[r] = rows[r], rows[i]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[i][i]
        for r in range(i + 1, n):
            if rows[r][i] == 0 and pivot == prev:
                continue
            for c in range(i + 1, n):
                rows[r][c] = (rows[r][c] * pivot - rows[r][i] * rows[i][c]) // prev
            rows[r][i] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]


def reflect(datum: CartanDatum, k: int) -> ReflectionResult:
    """Apply the reflection rule at the k-th simple root (1-based).

    Every B_kj must be finite, which always holds in positive
    characteristic; at characteristic 0 an infinite bound raises
    ReflectionUndefinedError naming the smallest offending j.  The basis
    matrix is the identity with row k replaced by (B_k1, ..., -1, ..., B_kn),
    and sigma_j is its j-th column.
    """
    bounds = b_row(datum, k)
    for j, b in enumerate(bounds, 1):
        if b is not None and not b.is_finite:
            raise ReflectionUndefinedError(k, j)
    n = datum.n
    row_k = tuple(-1 if b is None else b.value for b in bounds)
    matrix = tuple(row_k if r == k - 1 else (0,) * r + (1,) + (0,) * (n - r - 1)
                   for r in range(n))
    sigma = tuple(map(RootVector._trusted, zip(*matrix)))
    return ReflectionResult._trusted(k, bounds, sigma, matrix)


def unimodularity_check(result: ReflectionResult) -> bool:
    """True iff the change of basis has determinant exactly -1."""
    return basis_determinant(result.basis_matrix) == -1
