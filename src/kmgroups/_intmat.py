"""Tiny exact integer-matrix helpers shared across the package.

Matrices are tuples of row tuples of Python ints: immutable, hashable,
arbitrary precision.  No floats anywhere.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import mul

Matrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in a)


def mat_vec(a: Matrix, v: Sequence[int]) -> tuple[int, ...]:
    return tuple([sum(map(mul, row, v)) for row in a])


def column(a: Matrix, j: int) -> tuple[int, ...]:
    return tuple(row[j] for row in a)


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination.

    Every intermediate division is exact, so the result is exact for any
    integer input.  The empty matrix has determinant 1.

    >>> det([[2, -1], [-1, 2]])
    3
    >>> det([[2, -2], [-2, 2]])
    0
    >>> det([])
    1
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[-1][-1]
