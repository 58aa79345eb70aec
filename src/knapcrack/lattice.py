"""Exact LLL basis reduction and the integral Gram-Schmidt state it runs in.

Bases are column-major: a ``LatticeBasis`` holds ``n`` integer columns of
equal dimension, each a tuple of ints.  Both kernels read these tuples and
return tuples, so ``lll`` wraps their output as it is, with no per-entry
conversion.  The Gram-Schmidt convention is fixed as

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

Two kernels run this loop and the set-up ``integral_gso``, and compute one
function.  ``_lll.c`` holds both in C over GMP ``mpz_t``, step for step:
``knapcrack_lll`` has the same first visits, packed columns and zero-prefix
skip, the same rounding, Lovasz test and exchange update, so on every input
it returns the same columns and raises the same ``DependentColumns`` (same
column) and premise ``AssertionError``; ``knapcrack_gso`` returns
``_python_gso``'s ``(d, lam)``, or raises at the same column.  The file is
built on the first call in a process (``_native``): ``cc -O2 -shared -fPIC
... -lgmp`` writes it next to its source under a name keyed to a hash of the
source, renamed into place whole, and ``ctypes`` loads it; that build then
deletes the binaries of other sources beside it.  ``_kernel`` holds both
entries as a ``Kernel(reduce, gso)``, or ``None``: ``_load`` returns both or
neither.  Entries cross as hex text.  Where the build or the load fails (no
C compiler, no GMP, no ``__int128``, a read-only directory) the Python code
runs instead, and the build is not tried again in that process.
``_python_reduce`` and ``_python_gso`` are that fallback and the references
the tests hold the C entries to; ``kernel_name()`` says which kernel runs.
Both loops take ``(cols, p, q)`` and return the reduced columns, and ``lll``
calls whichever runs; ``integral_gso`` likewise.  The contract in
``formulations`` calls ``integral_gso`` on D's columns, never on the loop's
own state, so it checks the output of either loop from scratch.

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

Inside both loops each column is one integer, a Python int or an ``mpz_t``
(Kronecker substitution): with slot width ``w``, column ``b`` is packed as
``P = sum_r b[r] * 2**(w*r)``, entry ``r`` in slot ``r`` in signed form.
Packing is Z-linear, so both size-reduction updates are one big-integer
operation, ``P_k -= gamma * P_j``, and an exchange swaps two integers.  Slots
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

Both loops use the same ``w`` and ``offset``, computed before the loop, and
the proof and the decoding invariant hold for each.  A first visit needs the
input column's inner products with the current columns ``0..k-1``.  They
are read from the packed columns only at the input column's nonzero
coordinates, ``m + 1`` of them for an ``[I; N*A]`` basis; decoding the whole
prefix on every first visit costs most of what packing saves.  The input
column is packed at its first visit, and every column is unpacked once at
exit.

Two exact shortcuts cut steps without changing a value.  Most size
reductions have ``gamma = +-1`` (over three quarters on the column-scan
attacks), and for those the ``lam`` row update is ``map(sub, ...)`` or
``map(add, ...)`` (``mpz_sub`` or ``mpz_add`` in C), instead of the
general-``gamma`` multiply.  And ``gso_row`` skips the zero prefix of its
inner products, in both kernels: when
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
C_DEPENDENT, C_PREMISE, C_NO_MEMORY = 1, 2, 3  # the C entries' failure statuses
_UNBUILT = object()
# The C entries once _native has loaded them, or None where they cannot be
# built; one value per process, as the build is tried once.
_kernel: object = _UNBUILT
# Either LLL loop: (cols, p, q) -> the reduced columns of cols at alpha = p/q
Reduce = Callable[[Sequence[Sequence[int]], int, int], tuple[tuple[int, ...], ...]]
# Either integral Gram-Schmidt: cols -> (d, lam)
Gso = Callable[[Sequence[Sequence[int]]], tuple[list[int], list[list[int]]]]


class Kernel(NamedTuple):
    """The C entries of _lll.c: the twins of _python_reduce and _python_gso."""

    reduce: Reduce
    gso: Gso


def kernel_name() -> str:
    """The kernel that runs in this process: "gmp" (the C entries) or "python"."""
    return "python" if _native() is None else "gmp"


def _native() -> Kernel | None:
    """The C entries, built and loaded at the first call; None where they cannot be."""
    global _kernel
    if _kernel is _UNBUILT:
        _kernel = _load(_SOURCE)
    return _kernel


def _load(source: Path) -> Kernel | None:
    """Load the C entries of source, built next to it on first use, and wrap them.

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
    c_lll, c_gso, c_free = lib.knapcrack_lll, lib.knapcrack_gso, lib.knapcrack_free
    out_args = [ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(ctypes.c_int)]
    c_lll.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.c_char_p, ctypes.c_char_p,
                      ctypes.c_char_p, *out_args]
    c_gso.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.c_char_p, *out_args]
    c_lll.restype = c_gso.restype = ctypes.c_int
    c_free.argtypes = [ctypes.c_void_p]
    c_free.restype = None

    def call(entry, cols: Sequence[Sequence[int]], *args) -> map:
        """The output entries of entry on cols and args; raises on its failures."""
        out, where = ctypes.c_void_p(), ctypes.c_int()
        status = entry(len(cols), len(cols[0]) if cols else 0,
                       ",".join(map(hex, chain.from_iterable(cols))).encode(), *args,
                       ctypes.byref(out), ctypes.byref(where))
        if status == C_DEPENDENT:
            raise _dependent(where.value)
        if status == C_PREMISE:
            raise _premise_failure(where.value, max(sum(x * x for x in c) for c in cols))
        if status == C_NO_MEMORY:
            raise MemoryError("a C entry could not allocate its state")
        try:
            text = ctypes.string_at(out.value)
        finally:
            c_free(out)
        return map(int, text.split(b","), repeat(16))

    def reduce(cols: Sequence[Sequence[int]], p: int, q: int) -> tuple[tuple[int, ...], ...]:
        entries = call(c_lll, cols, hex(p).encode(), hex(q).encode())
        return tuple(zip(*[entries] * len(cols[0])))  # dim consecutive entries per column

    def gso(cols: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
        entries = call(c_gso, cols)
        d = list(islice(entries, len(cols) + 1))
        return d, [list(islice(entries, i)) for i in range(len(cols))]  # row i: i entries

    return Kernel(reduce, gso)


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


def _append_row(g_row: list[int], k: int, d: list[int], lam: list[list[int]]) -> None:
    """Append column k's GSO row to (d, lam), which cover columns 0..k-1.

    g_row holds column k's inner products with columns 0..k, its own
    squared norm last.
    """
    row = gso_row(g_row, d, lam)
    dk = row.pop()
    if dk == 0:
        raise _dependent(k)
    d.append(dk)
    lam.append(row)


def integral_gso(cols: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Integral GSO (d, lam) of the columns, in the C entry where it loaded.

    d[i] is the Gram determinant of columns 0..i-1 and lam[i] holds
    lam[i][j] = mu_{i,j} * d[j+1] for j < i.  Raises DependentColumns when
    a column depends on the earlier ones.
    """
    kernel = _native()
    return kernel.gso(cols) if kernel else _python_gso(cols)


def _python_gso(cols: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """integral_gso in Python; the C entry's gso takes the same argument and
    returns the same value."""
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


def _slot_width(n: int, bound: int) -> int:
    """Both loops' slot width for n columns of largest squared norm bound
    (module docstring)."""
    return ((1 + n) * bound).bit_length() // 2 + 3


def _python_reduce(cols: Sequence[Sequence[int]], p: int, q: int) -> tuple[tuple[int, ...], ...]:
    """The LLL-reduced columns of cols at alpha = p/q, in the Python loop.

    The C loop's reduce takes the same arguments and returns the same value.
    """
    n, dim = len(cols), len(cols[0])
    bound = max(sum(x * x for x in c) for c in cols)
    w = _slot_width(n, bound)
    offset = sum(1 << (w * r + w - 1) for r in range(dim))  # half of every slot
    packed: list[int] = []  # packed[i] = sum_r b_i[r] << (w * r) for i <= kmax
    d = [1]
    lam: list[list[int]] = []
    k, kmax = 0, -1
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
    for j in range(n):
        if d[j + 1] > bound * d[j]:
            raise _premise_failure(j, bound)
    return tuple(_unpack(pk, w, offset, dim) for pk in packed)


def lll(basis: LatticeBasis, alpha: Fraction = DEFAULT_ALPHA) -> LatticeBasis:
    """LLL-reduce the basis columns with Lovasz parameter alpha.

    The output spans the same lattice and satisfies |mu[i][j]| <= 1/2 for
    j < i together with the Lovasz condition
    ||b*_i + mu[i][i-1] b*_{i-1}||^2 >= alpha ||b*_{i-1}||^2.
    """
    alpha = Fraction(alpha)
    if not Fraction(1, 4) < alpha < 1:
        raise InvalidAlpha(f"alpha must lie in (1/4, 1), got {alpha}")
    kernel = _native()
    reduce = kernel.reduce if kernel else _python_reduce
    return LatticeBasis(reduce(basis.columns, alpha.numerator, alpha.denominator))
