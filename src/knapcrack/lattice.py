"""Exact LLL basis reduction and the integral Gram-Schmidt state it runs in.

Bases are column-major: a ``LatticeBasis`` holds ``n`` integer columns of
equal dimension, each a tuple of ints.  Both kernels read these tuples and
return tuples, with no per-entry conversion.  The Gram-Schmidt convention is
fixed as

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
are exact.  ``gso_row`` and ``round_nearest`` are shared with the
solution-shortening sweeps in ``reduction``.

The loop (``_python_reduce``) is Cohen's integral LLL (*A Course in
Computational Algebraic Number Theory*, Alg. 2.6.7): it keeps ``k_max``, the
largest index visited so far, and holds GSO rows only for columns
``0..k_max``.  Column ``k`` is untouched until ``k`` first passes ``k_max``,
and its row is then built from its inner products with the current columns
``0..k`` (``gso_row``).  Each ``d[i]`` and ``lam[i][j]`` depends only on the
current columns ``0..i``, so the lazy row equals the one an up-front set-up
would have carried through the earlier exchanges, and the output is the
same; the exchange updates run over rows ``k+1..k_max`` only.  A dependency
is found when its column is first visited, after the independent prefix
before it has been reduced.

The loop ends with exact ``d`` and ``lam`` of the columns it returns.  It
returns one record, ``Reduced``: those columns, and ``d[0..k]`` with ``lam``
rows ``0..k-1``, the Gram-Schmidt of the first ``k`` columns, for a prefix
``k`` its caller names (0 unless asked).  ``decompose`` asks for the kernel
basis, the first ``s`` columns, and keeps that state instead of building it
again from D's columns.

Two kernels run this loop and compute one function.  ``_lll.c`` holds it in
C over GMP ``mpz_t``, step for step: ``knapcrack_lll`` has the same first
visits and zero-prefix skip, the same rounding, Lovasz test and exchange
update, so on every input it returns the same record and raises the same
``DependentColumns`` (same column) and premise or budget
``AssertionError``.  Only the prefix's state crosses back from C, after the
columns.  The C loop packs each column into one ``mpz_t``; that format, its
slot width and the proof that the width suffices belong to ``_lll.c`` alone
and are written in its header.  The Python loop runs on plain integer
columns, so the tests hold the C loop's packing to plain integer arithmetic.
The file is built on the first call in a process (``_native``): ``cc -O2
-shared -fPIC ... -lgmp`` writes it next to its source under a name keyed to
a hash of the source, renamed into place whole, and ``ctypes`` loads it;
that build then deletes the binaries of other sources beside it.
``_kernel`` holds the C loop, or ``None``.  Entries cross as hex text.
Where the build or the load fails (no C compiler, no GMP, no ``__int128``,
a read-only directory) the Python loop runs instead, and the build is not
tried again in that process.
``_python_reduce`` is that fallback and the reference the tests hold the C
loop to; ``kernel_name()`` says which loop runs.  Both loops take
``(cols, p, q, prefix)`` and return a ``Reduced``, and ``lll`` calls
whichever runs.

The Python code divides with ``//``, which floors; the C code floors with
``mpz_fdiv_q`` only in ``round_nearest``, whose quotient is not exact.  Its
four other quotients are exact, and ``mpz_divexact`` computes them: the new
``d[k]`` of an exchange, ``num // d[k]``, is the Gram determinant of the
exchanged columns ``0..k-1``; the exchange's two row updates return
``lam[i][k]`` and ``lam[i][k-1]`` of the exchanged basis, minors of its
integral Gram matrix; and after step ``i`` of ``gso_row``'s recurrence,
``u`` is ``d[i+1]`` times the inner product of two columns projected
orthogonally to columns ``0..i``, a Gram determinant of columns ``0..i``
bordered by the two.  All are integers, and on an exact quotient ``//`` and
exact division agree.  Most ``d`` and ``lam`` the C loop meets fit in one
64-bit limb, so its four hot steps (the Lovasz test, the size reduction,
the exchange's row update and the ``gso_row`` step) compute in machine words
when their operands fit in a C ``long``: in ``__int128``, where a product
of two longs and a sum of two such products are exact, or in ``long`` under
overflow checks.  A result is stored from a word only when it fits in a
``long``, and GMP computes any other, so every value and decision is the
one GMP computes.

Let ``B`` be the largest squared norm of the ``n`` input columns.  LLL keeps
every ``||b*_j||^2`` at most ``B``, that is ``d[j+1] <= B * d[j]``.  Both
loops check this premise on the output, which the C loop's slot width rests
on, and a failure raises ``AssertionError`` naming ``j``.

Both loops also check the two steps of LLL's termination proof: each
exchange lowers ``d[k]`` and leaves it positive, and the exchanges stay
within a budget (``_exchange_budget``).  So a wrong ``d`` or ``lam`` ends in
an error instead of an endless loop.  Let ``r`` be the first dependent
input column (or ``n``); the loop raises on visiting it, so every exchange
is at some ``k < r``.  An exchange at ``k`` multiplies ``d[k]`` by less than ``alpha``
and changes no other ``d[i]``, ``i <= r`` (for ``i > k`` the first ``i``
columns are the same set, and size reductions change no Gram determinant).
So ``P = d[1] ... d[r]``, a product of positive integers, falls by that
factor at each exchange and stays at least 1.  By Hadamard,
``log2 P0 <= sum_j (n - j) * bitlen(||b_j||^2)``, and ``ln(q/p) >= (q -
p)/q`` with ``1/ln 2 > 1`` gives exchanges ``< q log2 P0 / (q - p)``.  Every
step without an exchange raises ``k`` and an exchange lowers it by at most
one, so the loop takes at most ``n + 2 * exchanges`` steps.  The norms are
those the loops take ``B`` from, so the bound costs no pass of its own.
When either step fails both loops raise the same ``AssertionError``; the C
loop returns its own status for it, and its wrapper computes the same budget
for the message.  In the Python loop the exact ``//`` always lowers ``d[k]``;
in C the check can stop a wrong word-path step at the exchange it spoils,
where the budget alone can take minutes.

A first visit (``_visit``) takes the input column's inner products with the
current columns ``0..k`` and appends its row with ``gso_row``.  Two exact
shortcuts cut steps without changing a value.  Most size reductions have
``gamma = +-1`` (over three quarters on the column-scan attacks), and for
those the column and ``lam`` row updates are ``map(sub, ...)`` or
``map(add, ...)`` (``mpz_sub`` or ``mpz_add`` in C), instead of the
general-``gamma`` multiply.  And ``gso_row`` skips the zero prefix of its
inner products, in both kernels: when ``g_row[0..z-1]`` are 0, so are
entries ``0..z-1`` of the row, and each of the first ``z`` steps of a later
entry's recurrence is ``u -> u * d[k+1] / d[k]``; they telescope to
``g_row[j] * d[z]``, as ``d[0] = 1``.  The remaining steps walk zipped
slices of ``d``, the row and ``lam[j]``.  First visits of an ``[I; N*A]``
basis have long zero prefixes: the new column ``e_k + N*a_k`` is orthogonal
to every kernel vector already reduced, and LLL moves those to the front
(59% of first-visit entries on the column-scan attacks are such zeros).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import add, mul, sub
from pathlib import Path
from typing import NamedTuple

from .errors import DependentColumns, InvalidAlpha

DEFAULT_ALPHA = Fraction(99, 100)

_SOURCE = Path(__file__).with_name("_lll.c")
BUILD_TIMEOUT_S = 120
C_DEPENDENT, C_PREMISE, C_NO_MEMORY, C_BUDGET = 1, 2, 3, 4  # the C loop's failure statuses
_UNBUILT = object()
# The C loop once _native has loaded it, or None where it cannot be built;
# one value per process, as the build is tried once.
_kernel: object = _UNBUILT


class Reduced(NamedTuple):
    """What an LLL loop returns: the reduced columns, and d[0..k] and lam
    rows 0..k-1 of their integral Gram-Schmidt for the prefix k asked for."""

    columns: tuple[tuple[int, ...], ...]
    d: list[int]
    lam: list[list[int]]


# Either LLL loop: (cols, p, q, prefix) -> the reduction of cols at alpha = p/q
Reduce = Callable[[Sequence[Sequence[int]], int, int, int], Reduced]


def kernel_name() -> str:
    """The kernel that runs in this process: "gmp" (the C loop) or "python"."""
    return "python" if _native() is None else "gmp"


def _native() -> Reduce | None:
    """The C loop, built and loaded at the first call; None where it cannot be."""
    global _kernel
    if _kernel is _UNBUILT:
        _kernel = _load(_SOURCE)
    return _kernel


def _load(source: Path) -> Reduce | None:
    """Load the C loop of source, built next to it on first use, and wrap it.

    The library's name carries a hash of the source, so an edited source is
    never run from an old binary; a build removes the binaries of other
    sources beside it.  Without a C compiler with ``__int128`` or GMP, or in
    a read-only directory, this returns None.
    """
    import ctypes
    import hashlib

    try:
        code = source.read_bytes()
        binary = source.with_name(f"{source.stem}_{hashlib.sha256(code).hexdigest()[:16]}.so")
        if not binary.exists():
            if not _build(source, binary):
                return None
            for stale in source.parent.glob(f"{source.stem}_{'[0-9a-f]' * 16}.so"):
                if stale != binary:
                    stale.unlink(missing_ok=True)
        lib = ctypes.CDLL(str(binary))
    except OSError:
        return None
    c_lll, c_free = lib.knapcrack_lll, lib.knapcrack_free
    c_lll.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.c_char_p, ctypes.c_char_p,
                      ctypes.c_char_p, ctypes.c_int, ctypes.POINTER(ctypes.c_void_p),
                      ctypes.POINTER(ctypes.c_int)]
    c_lll.restype = ctypes.c_int
    c_free.argtypes = [ctypes.c_void_p]
    c_free.restype = None

    def reduce(cols: Sequence[Sequence[int]], p: int, q: int, prefix: int) -> Reduced:
        n, dim = len(cols), len(cols[0])
        out, where = ctypes.c_void_p(), ctypes.c_int()
        status = c_lll(n, dim, ",".join(map(hex, chain.from_iterable(cols))).encode(),
                       hex(p).encode(), hex(q).encode(), prefix, ctypes.byref(out),
                       ctypes.byref(where))
        if status == C_DEPENDENT:
            raise _dependent(where.value)
        if status == C_PREMISE:
            raise _premise_failure(where.value, max(sum(x * x for x in c) for c in cols))
        if status == C_NO_MEMORY:
            raise MemoryError("the C loop could not allocate its state")
        if status == C_BUDGET:
            norms = [sum(x * x for x in c) for c in cols]
            raise _termination_failure(_exchange_budget(norms, p, q))
        try:
            text = ctypes.string_at(out.value)
        finally:
            c_free(out)
        entries = map(int, text.split(b","), repeat(16))
        cells = islice(entries, n * dim)
        columns = tuple(zip(*[cells] * dim))  # dim consecutive entries per column
        # Then d[1..prefix] and lam rows 1..prefix-1, row i of i entries; d[0] = 1
        # and the empty row 0 are not sent.
        d = [1, *islice(entries, prefix)]
        return Reduced(columns, d, [list(islice(entries, i)) for i in range(prefix)])

    return reduce


def _build(source: Path, binary: Path) -> bool:
    """Compile source into the shared library binary; False when that fails.

    The library is linked in a fresh directory and renamed into place whole,
    so a concurrent process never loads a half-written file.
    """
    import subprocess
    import tempfile

    try:
        with tempfile.TemporaryDirectory(prefix=f"{source.stem}_build_",
                                         dir=source.parent) as tmp:
            built = Path(tmp, binary.name)
            subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", str(built), str(source),
                            "-lgmp"], check=True, capture_output=True, timeout=BUILD_TIMEOUT_S)
            built.replace(binary)
    except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired):
        return False
    return True


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


def _dependent(k: int) -> DependentColumns:
    return DependentColumns(f"column {k} is dependent on earlier columns")


def _premise_failure(j: int, bound: int) -> AssertionError:
    return AssertionError(f"||b*_{j}||^2 exceeds the largest input norm {bound}")


def _exchange_budget(norms: Sequence[int], p: int, q: int) -> int:
    """The most exchanges LLL at alpha = p/q makes on columns of these squared norms.

    The bound of LLL's termination proof (module docstring), q log2(P0) / (q - p)
    with log2(P0) <= sum_j (n - j) bitlen(norms[j]).
    """
    n = len(norms)
    return q * sum((n - j) * v.bit_length() for j, v in enumerate(norms)) // (q - p)


def _termination_failure(budget: int) -> AssertionError:
    return AssertionError(f"LLL left its termination proof: an exchange did not lower "
                          f"d[k] to a positive value, or passed the budget of {budget}")


def _visit(col: Sequence[int], b: list[Sequence[int]], d: list[int],
           lam: list[list[int]]) -> None:
    """First visit of col as column k = len(b), where b holds columns 0..k-1
    and (d, lam) their GSO.

    Appends col to b and its GSO row to (d, lam); raises DependentColumns
    when col depends on columns 0..k-1.
    """
    b.append(col)
    row = gso_row([sum(map(mul, col, bj)) for bj in b], d, lam)  # its own norm last
    dk = row.pop()
    if dk == 0:
        raise _dependent(len(b) - 1)
    d.append(dk)
    lam.append(row)


def _python_reduce(cols: Sequence[Sequence[int]], p: int, q: int, prefix: int) -> Reduced:
    """The LLL reduction of cols at alpha = p/q, in the Python loop, with the
    Gram-Schmidt of its first prefix columns.

    The C loop takes the same arguments and returns the same value.
    """
    n = len(cols)
    norms = [sum(x * x for x in c) for c in cols]
    bound = max(norms)
    budget, exchanges = _exchange_budget(norms, p, q), 0
    b: list[Sequence[int]] = []  # the current columns 0..kmax
    d = [1]
    lam: list[list[int]] = []
    k, kmax = 0, -1
    while k < n:
        if k > kmax:
            # First visit: column k is still the input column.
            kmax = k
            _visit(cols[k], b, d, lam)
            if k == 0:
                k = 1
                continue
        lk = lam[k]
        dk = d[k]
        lkk = lk[k - 1]
        if abs(2 * lkk) > dk:
            gamma = round_nearest(lkk, dk)
            if gamma == 1:
                b[k] = list(map(sub, b[k], b[k - 1]))
                lk[:k - 1] = map(sub, lk, lam[k - 1])
            elif gamma == -1:
                b[k] = list(map(add, b[k], b[k - 1]))
                lk[:k - 1] = map(add, lk, lam[k - 1])
            else:
                b[k] = [x - gamma * y for x, y in zip(b[k], b[k - 1])]
                lk[:k - 1] = [x - gamma * y for x, y in zip(lk, lam[k - 1])]
            lkk -= gamma * dk
            lk[k - 1] = lkk
        dk1 = d[k + 1]
        num = dk1 * d[k - 1] + lkk * lkk
        # Exchange when ||b*_k + mu b*_{k-1}||^2 < alpha ||b*_{k-1}||^2.
        if q * num < p * dk * dk:
            dnew = num // dk
            exchanges += 1
            if exchanges > budget or not 0 < dnew < dk:
                raise _termination_failure(budget)
            b[k - 1], b[k] = b[k], b[k - 1]
            # Rows k-1 and k trade their entries for columns 0..k-2.
            lam[k - 1], lk[:k - 1] = lk[:k - 1], lam[k - 1]
            for li in lam[k + 1:]:  # rows k+1..kmax; later rows are not built yet
                t = li[k]
                li[k] = u = (dk1 * li[k - 1] - lkk * t) // dk
                li[k - 1] = (dnew * t + lkk * u) // dk1
            d[k] = dnew
            if k > 1:
                k -= 1
        else:
            bk = b[k]
            for j in range(k - 2, -1, -1):
                dj = d[j + 1]
                lkj = lk[j]
                if abs(2 * lkj) > dj:
                    gamma = round_nearest(lkj, dj)
                    if gamma == 1:
                        bk = list(map(sub, bk, b[j]))
                        lk[:j] = map(sub, lk, lam[j])
                    elif gamma == -1:
                        bk = list(map(add, bk, b[j]))
                        lk[:j] = map(add, lk, lam[j])
                    else:
                        bk = [x - gamma * y for x, y in zip(bk, b[j])]
                        lk[:j] = [x - gamma * y for x, y in zip(lk, lam[j])]
                    lk[j] = lkj - gamma * dj
            b[k] = bk
            k += 1
    for j in range(n):
        if d[j + 1] > bound * d[j]:
            raise _premise_failure(j, bound)
    return Reduced(tuple(map(tuple, b)), d[:prefix + 1], lam[:prefix])


def lll(basis: LatticeBasis, alpha: Fraction = DEFAULT_ALPHA, prefix: int = 0) -> Reduced:
    """LLL-reduce the basis columns with Lovasz parameter alpha.

    The output columns span the same lattice and satisfy |mu[i][j]| <= 1/2
    for j < i together with the Lovasz condition
    ||b*_i + mu[i][i-1] b*_{i-1}||^2 >= alpha ||b*_{i-1}||^2.  The record
    also holds d[0..prefix] and lam rows 0..prefix-1 of the output columns:
    d[i] is the Gram determinant of columns 0..i-1 and lam[i][j] =
    mu[i][j] * d[j+1].
    """
    alpha = Fraction(alpha)
    if not Fraction(1, 4) < alpha < 1:
        raise InvalidAlpha(f"alpha must lie in (1/4, 1), got {alpha}")
    if not 0 <= prefix <= basis.n:
        raise ValueError(f"prefix must lie in 0..{basis.n}, got {prefix}")
    reduce = _native() or _python_reduce
    return reduce(basis.columns, alpha.numerator, alpha.denominator, prefix)
