"""Exact LLL basis reduction and the integral Gram-Schmidt state it runs in.

Bases are column-major: a ``LatticeBasis`` holds ``n`` integer columns of
equal dimension, each a tuple of ints.  The loop reads these tuples and
yields tuples, so ``lll`` and ``lll_shared_prefix`` wrap its output as it
is, with no per-entry conversion.  The Gram-Schmidt convention is fixed as

    B = B* . M^T,   i.e.   b_i = sum_{j <= i} mu[i][j] * b*_j,

so ``mu`` is lower-unitriangular with ``mu[i][j]`` the projection
coefficient of column ``i`` onto the orthogonal direction ``j``.  The state
follows the classic denominator-free bookkeeping: ``d[i]`` is the Gram
determinant of the first ``i`` columns and ``lam[i][j] = mu[i][j] * d[j+1]``,
so every projection coefficient is the exact rational ``lam/d`` and all
updates stay in integer arithmetic.  The reduce/exchange updates below are
the incremental closed forms for this state with denominators cleared; all
comparisons (size reduction, the Lovasz test, and the nearest integer under
the one asymmetric half-tie rule, ``ceil(q - 1/2)``: 4.5 -> 4, -4.5 -> -5)
are exact.  The GSO set-up (``integral_gso``, ``gso_row``) and
``round_nearest`` are shared with the decomposition's contract in
``formulations`` and the solution-shortening sweeps in ``reduction``.

The loop (``_reduce``) is Cohen's integral LLL (*A Course in Computational
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

Inside the loop each column is one Python int (Kronecker
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

One prefix, several last columns (``lll_shared_prefix``; ``lll`` is the
case of one last column).  LO's target and its complement are its one use:
their bases share their first ``n - 1`` columns and differ in the last.
Before ``k`` first reaches index ``n - 1`` the loop reads and writes only
columns ``0..k_max < n - 1``: the last column is read at its first visit
and not before.  So the state at that point (packed columns, ``d``,
``lam``, ``k``, ``k_max``) is the same whichever last column follows, and
it is the state a run over the prefix alone ends in.  That run is made
once, and each last column's reduction continues from a copy of it.  Each
output is, bit for bit, that of one run from scratch on
``prefix + [last]``.  The slot width is computed once, from the prefix and
every last column: it is at least the width each run needs, and a wider slot
changes only the representation, not a single value.  The premise check
keeps each run's own bound, ``B = max(prefix input norms, ||last||^2)``.
The runs are lazy: a last column's reduction runs when its result is asked
for, so a fallback that is not needed costs nothing.

Two exact shortcuts cut interpreter steps without changing a value.  Most
size reductions have ``gamma = +-1`` (over three quarters on the column-scan
attacks), and for those the ``lam`` row update is ``map(sub, ...)`` or
``map(add, ...)``, run in C, instead of the general-``gamma`` comprehension.
And ``gso_row`` skips the zero prefix of its inner products: when
``g_row[0..z-1]`` are 0, so are entries ``0..z-1`` of the row, and each of
the first ``z`` steps of a later entry's recurrence is
``u -> u * d[k+1] / d[k]``; they telescope to ``g_row[j] * d[z]``, as
``d[0] = 1``.  The remaining steps walk zipped slices of ``d``, the row and
``lam[j]``.  First visits of an ``[I; N*A]`` basis have long zero prefixes:
the new column ``e_k + N*a_k`` is orthogonal to every kernel vector
already reduced, and LLL moves those to the front (59% of first-visit
entries on the column-scan attacks are such zeros).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

from .errors import DependentColumns, InvalidAlpha

DEFAULT_ALPHA = Fraction(99, 100)


def kernel_name() -> str:
    """Name of the LLL kernel, recorded in benchmark provenance."""
    return "python"


@dataclass(frozen=True)
class LatticeBasis:
    """Ordered integer basis columns, all of equal dimension."""

    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.columns:
            raise ValueError("a basis needs at least one column")
        dim = len(self.columns[0])
        if dim < 1:
            raise ValueError("columns must have length >= 1")
        if any(len(c) != dim for c in self.columns):
            raise ValueError("columns must share one dimension")

    @property
    def n(self) -> int:
        return len(self.columns)


def round_nearest(num: int, den: int) -> int:
    """Nearest integer to q = num/den (den > 0), halves down: ceil(q - 1/2)."""
    return -((den - 2 * num) // (2 * den))


def gso_row(g_row: list[int], d: list[int], lam: list[list[int]]) -> list[int]:
    """Integral GSO row of one more vector from its inner products g_row.

    g_row[j] is the inner product with vector j of the GSO (d, lam) built so
    far; entry j of the result is lam = mu_j * d[j+1].  When g_row also
    holds the vector's own squared norm (index len(lam)), the last entry is
    its d.  A zero prefix of g_row is skipped (module docstring).
    """
    z = 0  # leading zeros of g_row
    for u in g_row:
        if u:
            break
        z += 1
    row = [0] * z
    if z == len(g_row):
        return row
    dz = d[z]
    d_hi, d_lo = d[z + 1:], d[z:]
    for j in range(z, len(g_row)):
        lj = lam[j] if j < len(lam) else row
        u = g_row[j] * dz
        for dk1, dk, rk, ljk in zip(d_hi, d_lo, row[z:], lj[z:]):
            u = (dk1 * u - rk * ljk) // dk
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


def integral_gso(cols: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
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


def _visit(col: Sequence[int], packed: list[int], w: int, offset: int,
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


def _unpack(pk: int, w: int, offset: int, dim: int) -> tuple[int, ...]:
    """The dim signed w-bit slots of pk, lowest slot first."""
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    s = pk + offset
    return tuple(((s >> (w * r)) & mask) - half for r in range(dim))


def _reduce(cols: Sequence[Sequence[int]], k: int, kmax: int, packed: list[int],
            d: list[int], lam: list[list[int]], w: int, offset: int,
            p: int, q: int) -> tuple[int, int]:
    """Run the LLL loop on the columns cols from index k; return the final (k, kmax).

    The Lovasz parameter is alpha = p/q.
    """
    n = len(cols)
    while k < n:
        if k > kmax:
            # First visit: column k is still the input column, and columns
            # 0..k-1 are size-reduced, so their slots decode exactly.
            kmax = k
            _visit(cols[k], packed, w, offset, d, lam)
            if k == 0:
                k = 1
                continue
        lk = lam[k]
        dk = d[k]
        lkk = lk[k - 1]
        if abs(2 * lkk) > dk:
            gamma = round_nearest(lkk, dk)
            packed[k] -= gamma * packed[k - 1]
            if gamma == 1:
                lk[:k - 1] = map(sub, lk, lam[k - 1])
            elif gamma == -1:
                lk[:k - 1] = map(add, lk, lam[k - 1])
            else:
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
                    if gamma == 1:
                        lk[:j] = map(sub, lk, lam[j])
                    elif gamma == -1:
                        lk[:j] = map(add, lk, lam[j])
                    else:
                        lk[:j] = [a - gamma * b for a, b in zip(lk, lam[j])]
                    lk[j] = lkj - gamma * dj
            packed[k] = pk
            k += 1
    return k, kmax


def _reduce_lasts(prefix: Sequence[tuple[int, ...]], lasts: Sequence[tuple[int, ...]],
                  alpha: Fraction) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield the LLL reduction of prefix + [last], as column tuples, per last.

    The prefix is reduced once, at the first next(); each yield then
    finishes one last column's reduction from a copy of that state.
    """
    if not lasts:
        return
    p, q = alpha.numerator, alpha.denominator
    n = len(prefix) + 1
    dim = len(lasts[0])
    prefix_bound = max((sum(x * x for x in c) for c in prefix), default=0)
    bounds = [max(prefix_bound, sum(x * x for x in c)) for c in lasts]
    w = ((1 + n) * max(bounds)).bit_length() // 2 + 3  # slot width, proved in the module docstring
    offset = sum(1 << (w * r + w - 1) for r in range(dim))  # half of every slot
    packed: list[int] = []  # packed[i] = sum_r b_i[r] << (w * r) for i <= kmax
    d = [1]
    lam: list[list[int]] = []
    k, kmax = _reduce(prefix, 0, -1, packed, d, lam, w, offset, p, q)
    for last, bound in zip(lasts, bounds):
        run_packed, run_d, run_lam = packed[:], d[:], [row[:] for row in lam]
        _reduce([*prefix, last], k, kmax, run_packed, run_d, run_lam, w, offset, p, q)
        for j in range(n):
            if run_d[j + 1] > bound * run_d[j]:
                raise AssertionError(f"||b*_{j}||^2 exceeds the largest input norm {bound}")
        yield tuple(_unpack(pk, w, offset, dim) for pk in run_packed)


def lll_shared_prefix(prefix: Sequence[tuple[int, ...]], lasts: Sequence[tuple[int, ...]],
                      alpha: Fraction = DEFAULT_ALPHA) -> Iterator[LatticeBasis]:
    """Iterate the LLL reduction of prefix + [last] over the lasts, reducing prefix once.

    Each result is what lll(LatticeBasis((*prefix, last)), alpha) returns,
    and lazy: a last column's reduction runs only when its basis is asked
    for.  Alpha and the shape of every prefix + [last] are checked here;
    DependentColumns comes from the next() whose basis is dependent: a
    dependent prefix at the first, a last column at its own.
    """
    alpha = Fraction(alpha)
    if not Fraction(1, 4) < alpha < 1:
        raise InvalidAlpha(f"alpha must lie in (1/4, 1), got {alpha}")
    for last in lasts:
        LatticeBasis((*prefix, last))  # raises on a bad shape
    return map(LatticeBasis, _reduce_lasts(prefix, lasts, alpha))


def lll(basis: LatticeBasis, alpha: Fraction = DEFAULT_ALPHA) -> LatticeBasis:
    """LLL-reduce the basis columns with Lovasz parameter alpha.

    The output spans the same lattice and satisfies |mu[i][j]| <= 1/2 for
    j < i together with the Lovasz condition
    ||b*_i + mu[i][i-1] b*_{i-1}||^2 >= alpha ||b*_{i-1}||^2.
    """
    cols = basis.columns
    return next(lll_shared_prefix(cols[:-1], cols[-1:], alpha))
