"""Exact arithmetic helpers for integer matrices (rational solve results).

Everything here works on rows of Python ints, so values of arbitrary
magnitude are handled without overflow.  Matrices are stored row-major.

``products`` computes the inner product of every row with every column,
for the Gram matrix of the kernel features (``gram``) and the
decomposition's contract (``formulations``).  It runs in C, as the third
entry of the LLL loop's extension (``_lll.c``), which reads the rows and
columns as the LLL loop reads its columns, wherever that loads
(``lattice.kernel_name()`` is "gmp"), and ``_products`` otherwise: the
Python fallback, and the reference the tests hold the C entry to.  Both
return the same lists on every input; the lengths are checked here, before
either runs.  ``mat_vec`` stays in Python.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import chain
from operator import mul

from .errors import DimensionMismatch, SingularE
from .lattice import _native


def mat_vec(rows: list[list[int]], x: list[int]) -> list[int]:
    if any(len(r) != len(x) for r in rows):
        raise DimensionMismatch(f"matrix width != vector length {len(x)}")
    return [sum(map(mul, r, x)) for r in rows]


def _products(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]
              ) -> list[list[int]]:
    """[[<row, col> for col in cols] for row in rows], in Python."""
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


def products(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]
             ) -> list[list[int]]:
    """The inner product of every row with every column: out[i][j] = <rows[i], cols[j]>.

    rows and cols are sequences of int vectors of one length; vectors of
    unequal length raise DimensionMismatch.  In the C extension where it
    loads, else in ``_products`` (module docstring).
    """
    if len(set(map(len, chain(rows, cols)))) > 1:
        raise DimensionMismatch("the rows and the columns must share one length")
    kernel = _native()
    if kernel is None:
        return _products(rows, cols)
    return kernel.products(rows, cols)


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
    a = [list(r) for r in rows]
    pivots: list[int] = []
    sign = prev = 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
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


def solve_exact(mat: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Solve a nonsingular square system exactly over the rationals.

    Back-substitutes y = den * x, den the last pivot of (mat | rhs): y is
    integral by Cramer's rule, so every division is exact.
    """
    n = len(mat)
    if any(len(r) != n for r in mat) or len(rhs) != n:
        raise DimensionMismatch("square system expected")
    a, pivots, _ = _eliminate([list(row) + [b] for row, b in zip(mat, rhs)])
    if pivots != list(range(n)):
        raise SingularE("singular coefficient matrix")
    den = a[n - 1][n - 1] if n else 1
    y = [0] * n
    for k in range(n - 1, -1, -1):
        row = a[k]
        y[k] = (den * row[n] - sum(map(mul, row[k + 1:n], y[k + 1:]))) // row[k]
    return [Fraction(v, den) for v in y]
