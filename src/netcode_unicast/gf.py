"""Prime-field arithmetic and the small linear algebra the coding layer needs.

Everything here works over GF(q) for a prime q.  Vectors are plain tuples of
ints in ``range(q)``; keeping them hashable matters because the search code
uses them as memo keys.  Matrices are short lists of such tuples, so the
one elimination routine, :func:`_reduce`, is written directly instead of
pulling in a numerics dependency.  It reduces one row against an echelon
basis: ``in_span`` builds its basis from the rows in order and reads the
target's coefficients off the combinations the basis rows carry, and the
search keeps each span as the reduced row echelon basis it builds with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

Vector = tuple[int, ...]

# largest field order accepted; the primality test is trial division, which
# takes milliseconds up to here and hangs on orders with 18 digits
MAX_FIELD_ORDER = 2**31 - 1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def _checked_prime(q: int) -> int:
    if q > MAX_FIELD_ORDER:
        raise ValueError(f"field order must be at most 2**31 - 1, got {q}")
    if not is_prime(q):
        raise ValueError(f"field order must be prime, got {q}")
    return q


@dataclass(frozen=True, slots=True)
class PrimeField:
    """Arithmetic over GF(q), q prime.

    Scalar methods operate on plain ints already reduced mod q.
    """

    q: int

    def __post_init__(self) -> None:
        _checked_prime(self.q)

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def zeros(self, n: int) -> Vector:
        return (0,) * n

    def unit(self, n: int, k: int) -> Vector:
        """Length-n unit vector with a 1 in coordinate k."""
        if not 0 <= k < n:
            raise IndexError(f"unit index {k} out of range for length {n}")
        return tuple(1 if i == k else 0 for i in range(n))

    def vec_add(self, u: Vector, v: Vector) -> Vector:
        if len(u) != len(v):
            raise ValueError("vector length mismatch")
        return tuple((a + b) % self.q for a, b in zip(u, v))

    def vec_scale(self, c: int, v: Vector) -> Vector:
        c %= self.q
        if c == 0:
            return (0,) * len(v)
        if c == 1:
            return v
        return tuple((c * a) % self.q for a in v)

    def vec_combine(self, coeffs: Iterable[int], vectors: Iterable[Vector], n: int) -> Vector:
        acc = [0] * n
        for c, v in zip(coeffs, vectors):
            c %= self.q
            if c == 0:
                continue
            for i, a in enumerate(v):
                if a:
                    acc[i] = (acc[i] + c * a) % self.q
        return tuple(acc)


def _reduce(
    row: list[int], basis: Iterable[tuple[int, Sequence[int]]], n_cols: int, q: int
) -> int:
    """Clear every basis pivot from ``row`` in place, then scale ``row`` so
    its first nonzero entry among the first ``n_cols`` is 1.

    ``basis`` holds (pivot, b) pairs: b is 1 in column pivot and 0 in the
    pivot columns of the pairs before it, so one pass in order clears them
    all.  Entries must lie in ``range(q)``.  Returns the column of the
    leading 1, or -1 when ``row`` is zero in its first ``n_cols`` columns.
    """
    for col, b in basis:
        c = row[col]
        if c:
            row[:] = [(x - c * y) % q for x, y in zip(row, b)]
    for col in range(n_cols):
        if row[col]:
            if row[col] != 1:
                inv = pow(row[col], -1, q)
                row[:] = [(x * inv) % q for x in row]
            return col
    return -1


def in_span(target: Vector, rows: Sequence[Vector], q: int) -> Vector | None:
    """Express ``target`` as a combination of ``rows`` over GF(q).

    Returns the coefficient tuple (one entry per row), or None when
    ``target`` is outside the span.  The rows are reduced in order into an
    echelon basis; each basis row carries, after the n columns of the
    vector, the combination of input rows it stands for.  A row that
    reduces to zero depends on those before it and keeps coefficient 0, so
    the answer is the unique expression of ``target`` in the rows
    independent of their predecessors.
    """
    n, m = len(target), len(rows)
    basis: list[tuple[int, list[int]]] = []
    for j, r in enumerate(rows):
        if len(r) != n:
            raise ValueError("vector length mismatch")
        row = [x % q for x in r] + [0] * m
        row[n + j] = 1
        col = _reduce(row, basis, n, q)
        if col >= 0:
            basis.append((col, row))
    want = [x % q for x in target]
    # target - sum(c_k * b_k) leaves -sum(c_k * tag_k) in the tag columns
    rest = want + [0] * m
    if _reduce(rest, basis, n, q) >= 0:
        return None
    coeffs = tuple([-c % q for c in rest[n:]])
    if PrimeField(q).vec_combine(coeffs, rows, n) != tuple(want):
        return None
    return coeffs
