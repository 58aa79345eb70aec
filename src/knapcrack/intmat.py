"""Exact arithmetic helpers for integer and rational matrices.

Everything here works on plain lists of Python ints / Fractions, so values
of arbitrary magnitude are handled without overflow.  Matrices are stored
row-major.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import DimensionMismatch, SingularE


def mat_vec(rows: list[list[int]], x: list[int]) -> list[int]:
    if any(len(r) != len(x) for r in rows):
        raise DimensionMismatch(f"matrix width != vector length {len(x)}")
    return [sum(a * b for a, b in zip(r, x)) for r in rows]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch("inner dimensions differ")
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def gram(cols: list[list[int]]) -> list[list[int]]:
    """Gram matrix of a column set: G[i][j] = <col_i, col_j>."""
    n = len(cols)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        ci = cols[i]
        for j in range(i + 1):
            s = sum(map(mul, ci, cols[j]))
            g[i][j] = s
            g[j][i] = s
    return g


def det_bareiss(mat: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise DimensionMismatch("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(r) for r in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def rank(mat: list[list[int]]) -> int:
    """Rank over the rationals via fraction-free row elimination."""
    a = [[Fraction(x) for x in r] for r in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        for i in range(r + 1, rows):
            if a[i][c] != 0:
                f = a[i][c] / inv
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def solve_exact(mat: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Solve a nonsingular square system exactly over the rationals."""
    n = len(mat)
    if any(len(r) != n for r in mat) or len(rhs) != n:
        raise DimensionMismatch("square system expected")
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            raise SingularE("singular coefficient matrix")
        a[c], a[piv] = a[piv], a[c]
        pv = a[c][c]
        a[c] = [x / pv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [a[i][n] for i in range(n)]
