"""Pure-Python exact LLL kernel.

The reduction state follows the classic denominator-free bookkeeping:
``d[i]`` is the Gram determinant of the first ``i`` basis vectors and
``lam[i][j] = mu_{i,j} * d[j+1]``, so every projection coefficient is the
exact rational ``lam/d`` and all updates stay in integer arithmetic.  The
reduce/exchange updates below are the incremental closed forms for the
Gram-Schmidt data with denominators cleared; all comparisons (size
reduction, Lovasz test, nearest-integer rounding with the asymmetric
half-tie rule) are exact.

``lll_reduce`` is Cohen's integral LLL (*A Course in Computational
Algebraic Number Theory*, Alg. 2.6.7): it keeps ``k_max``, the largest
index visited so far, and holds GSO rows only for columns ``0..k_max``.
Column ``k`` is untouched until ``k`` first passes ``k_max``, and its row
is then built from its inner products with the current columns ``0..k``
(``gso_row``).  Each ``d[i]`` and ``lam[i][j]`` depends only on the current
columns ``0..i``, so the lazy row equals the one an up-front set-up would
have carried through the earlier exchanges, and the output is the same;
the exchange updates run over rows ``k+1..k_max`` only.  A dependency is
found when its column is first visited, after the independent prefix
before it has been reduced.

The GSO set-up (``integral_gso``, ``gso_row``) and the rounding are shared
with the solution-shortening sweeps in ``reduction``.
"""

from __future__ import annotations

from operator import mul

from .errors import DependentColumns


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


def _add_row(cols: list[list[int]], k: int, d: list[int], lam: list[list[int]]) -> None:
    """Append column k's GSO row to (d, lam), which cover columns 0..k-1."""
    ck = cols[k]
    row = gso_row([sum(map(mul, ck, cj)) for cj in cols[:k + 1]], d, lam)
    dk = row.pop()
    if dk == 0:
        raise DependentColumns(f"column {k} is dependent on earlier columns")
    d.append(dk)
    lam.append(row)


def integral_gso(cols: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Integral GSO (d, lam) of the columns.

    d[i] is the Gram determinant of columns 0..i-1 and lam[i] holds
    lam[i][j] = mu_{i,j} * d[j+1] for j < i.  Raises DependentColumns when
    a column depends on the earlier ones.
    """
    d = [1]
    lam: list[list[int]] = []
    for k in range(len(cols)):
        _add_row(cols, k, d, lam)
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
    d, lam = integral_gso(cols[:1])
    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            # First visit: column k is still the input column.
            kmax = k
            _add_row(cols, k, d, lam)
        lk = lam[k]
        dk = d[k]
        lkk = lk[k - 1]
        if abs(2 * lkk) > dk:
            gamma = round_nearest(lkk, dk)
            cols[k] = [a - gamma * b for a, b in zip(cols[k], cols[k - 1])]
            lk[:k - 1] = [a - gamma * b for a, b in zip(lk, lam[k - 1])]
            lkk -= gamma * dk
            lk[k - 1] = lkk
        dk1 = d[k + 1]
        num = dk1 * d[k - 1] + lkk * lkk
        # Exchange when ||b*_k + mu b*_{k-1}||^2 < alpha ||b*_{k-1}||^2.
        if q * num < p * dk * dk:
            cols[k - 1], cols[k] = cols[k], cols[k - 1]
            # Rows k-1 and k trade their entries for columns 0..k-2.
            lam[k - 1], lk[:k - 1] = lk[:k - 1], lam[k - 1]
            dnew = num // dk
            for li in lam[k + 1:]:  # rows k+1..kmax; later rows are not built yet
                t = li[k]
                li[k] = u = (dk1 * li[k - 1] - lkk * t) // dk
                li[k - 1] = (dnew * t + lkk * u) // dk1
            d[k] = dnew
            if k > 1:
                k -= 1
        else:
            ck = cols[k]
            for j in range(k - 2, -1, -1):
                dj = d[j + 1]
                lkj = lk[j]
                if abs(2 * lkj) > dj:
                    gamma = round_nearest(lkj, dj)
                    ck = [a - gamma * b for a, b in zip(ck, cols[j])]
                    lk[:j] = [a - gamma * b for a, b in zip(lk, lam[j])]
                    lk[j] = lkj - gamma * dj
            cols[k] = ck
            k += 1
    return cols
