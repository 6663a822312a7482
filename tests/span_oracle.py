"""Reference span membership: eliminate the augmented transpose.

This is the earlier ``gf.in_span``.  It solves rows^T x = target by
row-reducing the n x (m + 1) augmented transpose with its own elimination
routine, reads the coefficient of each pivot column off the right-hand
side, and sets free coefficients to zero.  ``gf`` now reduces the rows once
into an echelon basis that carries each row's combination; both must give
the same coefficients, and the search's reduced row echelon spans must equal
``rref`` here.
"""

from __future__ import annotations

from typing import Sequence

from netcode_unicast.gf import Vector


def eliminate(mat: list[list[int]], n_cols: int, q: int) -> list[int]:
    """Row-reduce ``mat`` in place over its first ``n_cols`` columns.

    Entries must already lie in ``range(q)``.  Rows are processed in order,
    pivot columns scanned left to right.  Returns the pivot column of each
    leading row; the rows below them are zero in the first ``n_cols``
    columns.
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


def rref(rows: Sequence[Vector], q: int) -> tuple[Vector, ...]:
    """The reduced row echelon basis of the span of ``rows``."""
    mat = [[x % q for x in r] for r in rows]
    rank = len(eliminate(mat, len(mat[0]), q)) if mat else 0
    return tuple(tuple(r) for r in mat[:rank])


def in_span_reference(target: Vector, rows: Sequence[Vector], q: int) -> Vector | None:
    """Coefficients of ``target`` over ``rows``, free ones zero, or None."""
    n = len(target)
    if any(len(r) != n for r in rows):
        raise ValueError("vector length mismatch")
    if not any(x % q for x in target):
        return (0,) * len(rows)
    if not rows:
        return None
    m = len(rows)
    aug = [[rows[r][c] % q for r in range(m)] + [target[c] % q] for c in range(n)]
    pivots = eliminate(aug, m, q)
    if any(aug[r][m] for r in range(len(pivots), n)):
        return None
    coeffs = [0] * m
    for r, col in enumerate(pivots):
        coeffs[col] = aug[r][m]
    got = [sum(c * r[i] for c, r in zip(coeffs, rows)) % q for i in range(n)]
    if got != [x % q for x in target]:
        return None
    return tuple(coeffs)
