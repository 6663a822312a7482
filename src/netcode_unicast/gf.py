"""Prime-field arithmetic and the small linear algebra the coding layer needs.

Everything here works over GF(q) for a prime q.  Vectors are plain tuples of
ints in ``range(q)``; keeping them hashable matters because the search code
uses them as memo keys.  Matrices are short lists of such tuples, so the
elimination routine below is written directly instead of pulling in a
numerics dependency.
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


def _eliminate(mat: list[list[int]], n_cols: int, q: int) -> list[int]:
    """Row-reduce ``mat`` in place over its first ``n_cols`` columns.

    Entries must already lie in ``range(q)``.  Pivoting is deterministic:
    rows are processed in order, pivot columns scanned left to right, so
    identical input always gives identical output.  Returns the pivot
    column of each leading row (row k pivots in column ``pivots[k]``); the
    rows below them are zero in the first ``n_cols`` columns.
    """
    pivots: list[int] = []
    n_rows = len(mat)
    for col in range(n_cols):
        row = len(pivots)
        for sel in range(row, n_rows):
            if mat[sel][col]:
                break
        else:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        inv = pow(mat[row][col], -1, q)
        pivot = mat[row] = [(x * inv) % q for x in mat[row]]
        for r in range(n_rows):
            c = mat[r][col]
            if c and r != row:
                mat[r] = [(a - c * b) % q for a, b in zip(mat[r], pivot)]
        pivots.append(col)
        if len(pivots) == n_rows:
            break
    return pivots


def in_span(target: Vector, rows: Sequence[Vector], q: int) -> Vector | None:
    """Express ``target`` as a combination of ``rows`` over GF(q).

    Returns the coefficient tuple (one entry per row) of the deterministic
    least-squares-free solution found by Gaussian elimination, or None when
    ``target`` is outside the span.  Free coefficients are set to zero, so
    the answer is unique given the row order.
    """
    n = len(target)
    if any(len(r) != n for r in rows):
        raise ValueError("vector length mismatch")
    if not any(x % q for x in target):
        return (0,) * len(rows)
    if not rows:
        return None
    # Solve rows^T x = target by eliminating the augmented transpose.
    m = len(rows)
    aug = [[rows[r][c] % q for r in range(m)] + [target[c] % q] for c in range(n)]
    field = PrimeField(q)
    pivots = _eliminate(aug, m, q)
    # Inconsistent if a row left zero in every coefficient column has nonzero rhs.
    if any(aug[r][m] for r in range(len(pivots), n)):
        return None
    coeffs = [0] * m
    for r, col in enumerate(pivots):
        coeffs[col] = aug[r][m]
    # Consistency can still fail when non-pivot structure absorbs nothing.
    combined = field.vec_combine(coeffs, rows, n)
    if combined != tuple(x % q for x in target):
        return None
    return tuple(coeffs)
