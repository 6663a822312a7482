"""Vectors over a prime field and the small linear algebra the coding layer needs.

Everything here works over GF(q) for a prime q.  :class:`Vectors` is GF(q)^n,
for the code layer and for the search where no table of the q**n vectors
fits: plain tuples of n ints in ``range(q)``, hashable because the search
uses them as memo keys.  The one elimination routine, :func:`_reduce`, is
written directly instead of pulling in a numerics dependency.  It reduces
one row against an echelon basis: ``in_span`` builds its basis from the rows
in order, once for any number of targets, and reads each target's
coefficients off the combinations the basis rows carry, and
:meth:`Vectors.extend` keeps a span as its reduced row echelon basis.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Iterable, Sequence

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


class Vectors:
    """GF(q)^n, q prime.  A span is its reduced row echelon basis, which is
    canonical: rows by ascending pivot, each led by a 1 and zero in the
    other pivot columns."""

    __slots__ = ("q", "n", "zero")
    zero_span: tuple[Vector, ...] = ()

    def __init__(self, q: int, n: int):
        self.q = _checked_prime(q)
        self.n = n
        self.zero: Vector = (0,) * n

    def unit(self, k: int) -> Vector:
        """The unit vector with a 1 in coordinate k."""
        if not 0 <= k < self.n:
            raise IndexError(f"unit index {k} out of range for length {self.n}")
        return self.zero[:k] + (1,) + self.zero[k + 1 :]

    def add(self, u: Vector, v: Vector) -> Vector:
        if len(u) != len(v):
            raise ValueError("vector length mismatch")
        q = self.q
        return tuple([(a + b) % q for a, b in zip(u, v)])

    def combine(self, coeffs: Iterable[int], vectors: Iterable[Vector]) -> Vector:
        """The sum of c * v over paired coefficients and vectors."""
        q = self.q
        acc = [0] * self.n
        for c, v in zip(coeffs, vectors):
            c %= q
            if c == 0:
                continue
            for i, a in enumerate(v):
                if a:
                    acc[i] = (acc[i] + c * a) % q
        return tuple(acc)

    def adder(self, g: Vector) -> Callable[[Vector], Vector]:
        return partial(self.add, g)

    def extend(self, basis: tuple[Vector, ...], v: Vector) -> tuple[Vector, ...]:
        """The reduced row echelon basis of span(basis) + <v>."""
        q = self.q
        pivoted = [(b.index(1), b) for b in basis]  # zeros, then the leading 1
        row = list(v)
        col = _reduce(row, pivoted, self.n, q)
        if col < 0:
            return basis
        # clear the new pivot from the old rows, which keeps theirs
        rows = [
            (p, tuple((x - b[col] * y) % q for x, y in zip(b, row)) if b[col] else b)
            for p, b in pivoted
        ]
        rows.append((col, tuple(row)))
        rows.sort()
        return tuple(b for _, b in rows)


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


def in_span(
    targets: Sequence[Vector], rows: Sequence[Vector], q: int
) -> list[Vector | None]:
    """Express each of ``targets`` as a combination of ``rows`` over GF(q).

    Returns, per target, the coefficient tuple (one entry per row), or None
    when that target is outside the span.  One elimination serves every
    target: the rows are reduced in order into an echelon basis, and each
    basis row carries, after the n columns of the vector, the combination
    of the independent rows it stands for, one tag column per basis row.
    The basis has at most min(n, rows) members, so the tags are sized by
    rank, not by the number of rows, and each tag maps back to its input
    row's index.  A row that reduces to zero depends on those before it and
    keeps coefficient 0; once the basis has n members every later row does.
    So each answer is the unique expression of its target in the rows
    independent of their predecessors.
    """
    if not targets:
        return []
    n, m = len(targets[0]), len(rows)
    if any(len(v) != n for v in (*targets, *rows)):
        raise ValueError("vector length mismatch")
    rank = min(n, m)
    basis: list[tuple[int, list[int]]] = []
    independent: list[int] = []  # the input row behind each basis row
    for j, r in enumerate(rows):
        if len(basis) == rank:
            break
        if not any(r):
            continue  # zero, so dependent, however the other rows lie
        row = [x % q for x in r] + [0] * rank
        row[n + len(basis)] = 1
        col = _reduce(row, basis, n, q)
        if col >= 0:
            basis.append((col, row))
            independent.append(j)
    V = Vectors(q, n)
    picked = [rows[j] for j in independent]
    answers: list[Vector | None] = []
    for target in targets:
        want = tuple([x % q for x in target])
        # target - sum(c_k * b_k) leaves -sum(c_k * tag_k) in the tag columns
        rest = list(want) + [0] * rank
        if _reduce(rest, basis, n, q) >= 0:
            answers.append(None)
            continue
        used = [-c % q for c in rest[n : n + len(picked)]]
        # every other row has coefficient 0, so the picked rows alone must
        # sum to the target
        if V.combine(used, picked) != want:
            answers.append(None)
            continue
        coeffs = [0] * m
        for j, c in zip(independent, used):
            coeffs[j] = c
        answers.append(tuple(coeffs))
    return answers
