"""Exact arithmetic helpers for integer matrices.

Everything here works on rows of Python ints, so values of arbitrary
magnitude are handled without overflow.  Matrices are stored row-major.

``products`` computes the inner product of every row with every column,
for the Gram matrix of the kernel features (``gram``) and the
decomposition's contract (``formulations``).  It is the ``products`` entry
of the kernel ``lattice`` chose (its module docstring): the C extension's
or its Python twin, ``lattice._python_products``, which return the same
lists on every input; the lengths are checked here, before either runs.
``solve_exact`` returns the integer solution of a nonsingular square
system, or None when that solution is not integral.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from operator import mul

from .errors import DimensionMismatch, SingularE
from .lattice import _native


def products(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]
             ) -> list[list[int]]:
    """The inner product of every row with every column: out[i][j] = <rows[i], cols[j]>.

    rows and cols are sequences of int vectors of one length; vectors of
    unequal length raise DimensionMismatch.  In the kernel's products
    (module docstring).
    """
    if len(set(map(len, chain(rows, cols)))) > 1:
        raise DimensionMismatch("the rows and the columns must share one length")
    return _native().products(rows, cols)


def gram(cols: list[list[int]]) -> list[list[int]]:
    """Gram matrix of a column set: G[i][j] = <col_i, col_j>."""
    return products(cols, cols)


def _eliminate(rows) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss 1968) row echelon form of any integer matrix.

    Returns (a, pivots, sign): pivots[k] is row k's pivot column (pivot-free
    columns are skipped), rows past the last pivot are zero, and sign is
    (-1)^(row swaps).  Each a[i][j] is a minor (Sylvester's identity), so
    every division by the previous pivot is exact.
    """
    a = list(rows)  # rows are only read; an eliminated row is a new list
    pivots: list[int] = []
    sign = prev = 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == len(a):
            break
        for piv in range(r, len(a)):
            if a[piv][c]:
                break
        else:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r]
        p = top[c]
        for i in range(r + 1, len(a)):
            f = a[i][c]
            a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        pivots.append(c)
    return a, pivots, sign


def det_bareiss(mat: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise DimensionMismatch("determinant needs a square matrix")
    if n == 0:
        return 1
    a, _, sign = _eliminate(mat)
    return sign * a[-1][-1]  # the last pivot, or 0 below full rank


def rank(mat: list[list[int]]) -> int:
    """Rank over the rationals: the number of Bareiss pivots."""
    return len(_eliminate(mat)[1])


def solve_exact(mat: list[list[int]], rhs: list[int]) -> list[int] | None:
    """The integer solution of a nonsingular square system, or None if it has none.

    Back-substitutes through the Bareiss form of (mat | rhs): a remainder in
    x_k means x is not integral.  Raises SingularE when mat is singular.
    """
    n = len(mat)
    if any(len(r) != n for r in mat) or len(rhs) != n:
        raise DimensionMismatch("square system expected")
    a, pivots, _ = _eliminate([[*row, b] for row, b in zip(mat, rhs)])
    if pivots != list(range(n)):
        raise SingularE("singular coefficient matrix")
    x = [0] * n
    for k in range(n - 1, -1, -1):
        row = a[k]
        x[k], rem = divmod(row[n] - sum(map(mul, row[k + 1:n], x[k + 1:])), row[k])
        if rem:
            return None
    return x
