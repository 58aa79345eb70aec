"""Pure-Python exact LLL kernel.

The reduction state follows the classic denominator-free bookkeeping:
``d[i]`` is the Gram determinant of the first ``i`` basis vectors and
``lam[i][j] = mu_{i,j} * d[j+1]``, so every projection coefficient is the
exact rational ``lam/d`` and all updates stay in integer arithmetic.  The
reduce/exchange updates below are the incremental closed forms for the
Gram-Schmidt data with denominators cleared; all comparisons (size
reduction, Lovasz test, nearest-integer rounding with the asymmetric
half-tie rule) are exact.  The set-up (``integral_gso``) and the rounding
are shared with the solution-shortening sweeps in ``reduction``.
"""

from __future__ import annotations

from .errors import DependentColumns
from .intmat import gram

def round_nearest(num: int, den: int, mode: str = "asymmetric") -> int:
    """Nearest integer to num/den (den > 0) with an explicit half-tie rule.

    "asymmetric" is ceil(q - 1/2) (4.5 -> 4, -4.5 -> -5); "symmetric"
    rounds halves away from zero (4.5 -> 5, -4.5 -> -5).
    """
    if mode == "asymmetric":
        return -((den - 2 * num) // (2 * den))
    if mode == "symmetric":
        if num >= 0:
            return (2 * num + den) // (2 * den)
        return -((den - 2 * num) // (2 * den))
    raise ValueError(f"unknown rounding mode {mode!r}")


def gso_row(g_row: list[int], d: list[int], lam: list[list[int]]) -> list[int]:
    """Integral GSO row of one more vector from its inner products g_row.

    g_row[j] is the inner product with vector j of the GSO (d, lam) built so
    far; entry j of the result is lam = mu_j * d[j+1].  When g_row also
    holds the vector's own squared norm (index len(lam)), the last entry is
    its d.
    """
    row: list[int] = []
    for j, u in enumerate(g_row):
        lj = lam[j] if j < len(lam) else row
        for k in range(j):
            u = (d[k + 1] * u - row[k] * lj[k]) // d[k]
        row.append(u)
    return row


def integral_gso(g: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Integral GSO (d, lam) of the vectors with Gram matrix g.

    d[i] is the determinant of the leading i x i block of g and lam[i] holds
    lam[i][j] = mu_{i,j} * d[j+1] for j < i.  Raises DependentColumns when
    a vector depends on the earlier ones.
    """
    d = [1]
    lam: list[list[int]] = []
    for i, gi in enumerate(g):
        row = gso_row(gi[:i + 1], d, lam)
        di = row.pop()
        if di == 0:
            raise DependentColumns(f"column {i} is dependent on earlier columns")
        d.append(di)
        lam.append(row)
    return d, lam


def lll_reduce(cols: list[list[int]], alpha_num: int, alpha_den: int) -> list[list[int]]:
    """LLL-reduce integer columns in place and return them.

    alpha = alpha_num / alpha_den is the Lovasz parameter.  Raises
    DependentColumns when the columns are not linearly independent.
    """
    n = len(cols)
    if n == 0:
        return cols
    p = alpha_num
    q = alpha_den
    d, lam = integral_gso(gram(cols))

    def size_reduce(k: int, j: int) -> None:
        dj = d[j + 1]
        lkj = lam[k][j]
        if 2 * lkj > dj or 2 * lkj < -dj:
            gamma = round_nearest(lkj, dj)
            ck = cols[k]
            cj = cols[j]
            for t in range(len(ck)):
                ck[t] -= gamma * cj[t]
            lk = lam[k]
            lj = lam[j]
            for i in range(j):
                lk[i] -= gamma * lj[i]
            lk[j] -= gamma * dj

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        lkk = lam[k][k - 1]
        # Exchange when ||b*_k + mu b*_{k-1}||^2 < alpha ||b*_{k-1}||^2.
        if q * (d[k + 1] * d[k - 1] + lkk * lkk) < p * d[k] * d[k]:
            cols[k - 1], cols[k] = cols[k], cols[k - 1]
            lk = lam[k]
            lk1 = lam[k - 1]
            for j in range(k - 1):
                lk[j], lk1[j] = lk1[j], lk[j]
            dnew = (d[k + 1] * d[k - 1] + lkk * lkk) // d[k]
            for i in range(k + 1, n):
                li = lam[i]
                t = li[k]
                li[k] = (d[k + 1] * li[k - 1] - lkk * t) // d[k]
                li[k - 1] = (dnew * t + lkk * li[k]) // d[k + 1]
            d[k] = dnew
            if k > 1:
                k -= 1
        else:
            for h in range(k - 2, -1, -1):
                size_reduce(k, h)
            k += 1
    return cols
