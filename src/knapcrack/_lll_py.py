"""Pure-Python exact LLL kernel.

The reduction state follows the classic denominator-free bookkeeping:
``d[i]`` is the Gram determinant of the first ``i`` basis vectors and
``lam[i][j] = mu_{i,j} * d[j+1]``, so every projection coefficient is the
exact rational ``lam/d`` and all updates stay in integer arithmetic.  The
reduce/exchange updates below are the incremental closed forms for the
Gram-Schmidt data with denominators cleared; all comparisons (size
reduction, Lovasz test, and the nearest integer under the one half-tie
rule, ``ceil(q - 1/2)``) are exact.

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

Inside ``lll_reduce`` each column is one Python int (Kronecker
substitution): with slot width ``w``, column ``b`` is packed as
``P = sum_r b[r] * 2**(w*r)``, entry ``r`` in slot ``r`` in signed form.
Packing is Z-linear, so both size-reduction updates are one big-integer
operation, ``P_k -= gamma * P_j``, and an exchange swaps two ints.  Slots
may overflow into each other while a column is not size-reduced; the int
still equals the packing of the true column.  Only decoding needs the
entries to fit: adding ``offset`` (half of ``2**w`` in every slot) makes
every slot hold ``b[r] + 2**(w-1)`` in ``[0, 2**w)`` with no borrow, and a
shift and mask reads it.

The width comes from a proof, not from tracking.  Let ``B`` be the largest
squared norm of the ``n`` input columns.  Every ``||b*_j||^2`` is at most
``B``: a Gram-Schmidt vector is a projection of its column, which is an
input column until it is first visited, and an exchange at ``k`` makes
``b*_{k-1}`` shorter than the old ``b*_{k-1}`` (the Lovasz test failed) and
the new ``b*_k`` a projection of the old ``b*_{k-1}``.  A size-reduced
column ``b_i = b*_i + sum_{j<i} mu_{i,j} b*_j`` with ``|mu_{i,j}| <= 1/2``
then has ``||b_i||^2 <= (1 + n/4) * B < (1 + n) * B < 2**L``, where ``L``
is the bit length of ``(1 + n) * B``, so every entry is below
``2**(L//2 + 1)`` in absolute value and ``w = L//2 + 3`` leaves the sign
bit and one spare.  Columns are decoded only while size-reduced: at exit,
and at the first visit of column ``k``, when columns ``0..k-1`` are (LLL's
invariant: at index ``k`` the columns before ``k`` are size-reduced, since
a column changes only while the index is at it, by reduction, or by an
exchange that moves the index back to it).  The premise
``d[j+1] <= B * d[j]`` is checked on the output, and a failure raises
``AssertionError`` instead of returning wrapped entries.

A first visit needs the input column's inner products with the current
columns ``0..k-1``.  They are read from the packed columns only at the
input column's nonzero coordinates, ``m + 1`` of them for an ``[I; N*A]``
basis; decoding the whole prefix on every first visit costs most of what
packing saves.  The input column is packed at its first visit, and every
column is unpacked once at exit.

The GSO set-up (``integral_gso``, ``gso_row``) and ``round_nearest`` are shared
with the solution-shortening sweeps in ``reduction``.
"""

from __future__ import annotations

from operator import mul

from .errors import DependentColumns


def round_nearest(num: int, den: int) -> int:
    """Nearest integer to q = num/den (den > 0), halves down: ceil(q - 1/2).

    The half-tie rule is asymmetric: 4.5 -> 4, -4.5 -> -5.
    """
    return -((den - 2 * num) // (2 * den))


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


def _append_row(g_row: list[int], k: int, d: list[int], lam: list[list[int]]) -> None:
    """Append column k's GSO row to (d, lam), which cover columns 0..k-1.

    g_row holds column k's inner products with columns 0..k, its own
    squared norm last.
    """
    row = gso_row(g_row, d, lam)
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
    for k, ck in enumerate(cols):
        _append_row([sum(map(mul, ck, cj)) for cj in cols[:k + 1]], k, d, lam)
    return d, lam


def _visit(col: list[int], packed: list[int], w: int, offset: int,
           d: list[int], lam: list[list[int]]) -> None:
    """First visit of the input column col as column k = len(packed).

    Appends its GSO row to (d, lam) and its packing to packed.  The inner
    products read the slots of the packed columns 0..k-1 only where col is
    nonzero.
    """
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    nz = [(w * r, x) for r, x in enumerate(col) if x]
    g_row = []
    for pj in packed:
        s = pj + offset
        g_row.append(sum(x * (((s >> sh) & mask) - half) for sh, x in nz))
    g_row.append(sum(x * x for _, x in nz))
    _append_row(g_row, len(packed), d, lam)
    packed.append(sum(x << sh for sh, x in nz))


def _unpack(pk: int, w: int, offset: int, dim: int) -> list[int]:
    """The dim signed w-bit slots of pk, lowest slot first."""
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    s = pk + offset
    return [((s >> (w * r)) & mask) - half for r in range(dim)]


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
    dim = len(cols[0])
    bound = max(sum(x * x for x in c) for c in cols)
    w = ((1 + n) * bound).bit_length() // 2 + 3  # slot width, proved in the module docstring
    offset = sum(1 << (w * r + w - 1) for r in range(dim))  # half of every slot
    packed: list[int] = []  # packed[i] = sum_r b_i[r] << (w * r) for i <= kmax
    d = [1]
    lam: list[list[int]] = []
    _visit(cols[0], packed, w, offset, d, lam)
    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            # First visit: column k is still the input column, and columns
            # 0..k-1 are size-reduced, so their slots decode exactly.
            kmax = k
            _visit(cols[k], packed, w, offset, d, lam)
        lk = lam[k]
        dk = d[k]
        lkk = lk[k - 1]
        if abs(2 * lkk) > dk:
            gamma = round_nearest(lkk, dk)
            packed[k] -= gamma * packed[k - 1]
            lk[:k - 1] = [a - gamma * b for a, b in zip(lk, lam[k - 1])]
            lkk -= gamma * dk
            lk[k - 1] = lkk
        dk1 = d[k + 1]
        num = dk1 * d[k - 1] + lkk * lkk
        # Exchange when ||b*_k + mu b*_{k-1}||^2 < alpha ||b*_{k-1}||^2.
        if q * num < p * dk * dk:
            packed[k - 1], packed[k] = packed[k], packed[k - 1]
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
            pk = packed[k]
            for j in range(k - 2, -1, -1):
                dj = d[j + 1]
                lkj = lk[j]
                if abs(2 * lkj) > dj:
                    gamma = round_nearest(lkj, dj)
                    pk -= gamma * packed[j]
                    lk[:j] = [a - gamma * b for a, b in zip(lk, lam[j])]
                    lk[j] = lkj - gamma * dj
            packed[k] = pk
            k += 1
    for j in range(n):
        if d[j + 1] > bound * d[j]:
            raise AssertionError(f"||b*_{j}||^2 exceeds the largest input norm {bound}")
    cols[:] = [_unpack(pk, w, offset, dim) for pk in packed]
    return cols
