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
are exact.  ``gso_row`` and ``round_nearest`` are shared with the Python
twin of ``reduction``'s solution-shortening sweep (``_python_sweep``).

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

So a run on n columns reduces columns 0..r-1 exactly as a run on those r
columns alone, and first visits column r at the step where that run ends,
with k = r and k_max = r - 1.  ``lll``'s ``start`` is that run's record with
prefix r; both loops resume from it, from its columns, ``d[0..r]`` and
``lam`` rows ``0..r-1``, and return what the whole run returns.  LO's two
bases differ only in their last column, so it reduces their shared prefix
once.  A resumed run is a run on its own input, the start's columns and
the new ones, for everything below: its ``B`` and its budget (its exchanges
are counted from 0).  The proofs hold for that input because each head
``||b*_j||^2`` is at most its column's squared norm, at most ``B``, and the
head's ``d`` are that input's Gram determinants.

The loop ends with exact ``d`` and ``lam`` of the columns it returns.  It
returns one record, ``Reduced``: those columns, and ``d[0..k]`` with ``lam``
rows ``0..k-1``, the Gram-Schmidt of the first ``k`` columns, for a prefix
``k`` its caller names (0 unless asked).  ``decompose`` asks for the kernel
basis, the first ``s`` columns, and keeps that state instead of building it
again from D's columns.

Two kernels run this loop and compute one function.  ``_lll.c`` holds it in
C, over machine words and GMP, step for step: its ``reduce`` has the same first
visits and zero-prefix skip, the same rounding, Lovasz test and exchange
update, so on every input it returns the same record and raises the same
``DependentColumns`` (same column) and premise or budget
``AssertionError``.  Only the prefix's state crosses back from C, after the
columns.  Both loops run on plain integer columns; the C loop holds a
column's entries as C ``long``s while all fit, and in GMP from an update
that overflows one until they fit again (``_lll.c``'s header, "Columns").
The file is a CPython extension module, built on the first call in a
process (``_native``): ``cc -O2 -shared -fPIC -I<Python headers> ...
-lgmp`` writes it next to its source under a name keyed to a 64-bit digest
of the source (``_binary_name``) and ending in the interpreter's extension
suffix, renamed into place whole, and ``importlib`` loads it as
``knapcrack._lll``, outside ``sys.modules``, so that builds of several
sources load side by side; that build then deletes the binaries of other
sources beside it.  The extension has three entries, on one vector format
(``_lll.c``'s header, "Columns"): ``reduce``, this loop; ``sweep``, the
kernel sweep of ``reduction``, which runs on this loop's own state with the
target as one more column, so that the first visit's inner products and
``gso_row``, the rounding and the column update are the loop's own; and
``products``, ``intmat``'s exact inner products, which read their rows and
columns as the loop reads its columns.
``reduce`` takes the column tuples and returns the record's parts as ints,
tuples and lists, or a failure as a status with its column or index, from
which the wrapper raises the Python loop's error.  Where the build or the
load fails (no C compiler, no GMP, no ``__int128``, no Python headers, a
read-only directory, a binary that does not import) their Python twins run
instead, and the build is not tried again in that process.  This module
holds the three twins as ``_lll.c`` holds the three entries:
``_python_reduce``, ``_python_sweep`` and ``_python_products`` take the C
entries' arguments and return their values, and they are the fallback and
the reference the tests hold the C entries to.  A kernel is a ``Kernel`` of
three entries: the C ones, or ``PYTHON``, the twins.  ``_native()`` chooses
one, once per process, and ``_kernel`` holds it; ``lll``, ``reduction``'s
sweeps and ``intmat.products`` call its entries without asking which it is,
and ``kernel_name()`` says which runs.

The twins are 9.7-13.8x slower than the C entries on the benchmark
workloads (README, "The LLL kernel").  Measured on the fallback
(``perfbench/run.py``, ops/s of ``lattice_scan``, ``dag_rescue`` and
``kernel_geometry``, alternating runs on a 2-core x86 VM): LO's resumed
tails took ``lattice_scan`` from 36.0 to 41.5 (medians of 3); reading the
kernel's Gram-Schmidt off the loop's state moved the three from 37.1, 39.4
and 7.1 to 37.3, 41.3 and 7.5; and a Python loop that packed each column
into one integer ran 16-23% more (44.9, 44.0 and 8.7 against 36.4, 38.0 and
7.1); it runs on plain columns, as the C loop does.

The Python code divides with ``//``, which floors; the C code floors with
``mpz_fdiv_q`` only in ``round_nearest``, whose quotient is not exact.  Its
four other quotients are exact: the new ``d[k]`` of an exchange, ``num //
d[k]``, is the Gram determinant of the exchanged columns ``0..k-1``; the
exchange's two row updates return ``lam[i][k]`` and ``lam[i][k-1]`` of the
exchanged basis, minors of its integral Gram matrix; and after step ``i`` of
``gso_row``'s recurrence, ``u`` is ``d[i+1]`` times the inner product of two
columns projected orthogonally to columns ``0..i``, a Gram determinant of
columns ``0..i`` bordered by the two.  All are integers, and on an exact
quotient ``//`` and exact division agree.  Most ``d`` and ``lam`` the C loop
meets fit in one 64-bit limb, and reading and writing them was its cost, so
it holds each one as an ``__int128`` where it lies within ``+-(2^127 - 1)``
and in a GMP ``mpz_t`` only past that (``_lll.c``'s header, "Machine
words"): an operand is one load and a result one store.  The Lovasz test,
the exchange's row update and the ``gso_row`` step compute in machine words
when their operands fit in a C ``long``: in ``__int128``, where a product of
two longs and a sum of two such products are exact.  The size reduction's
test, rounding and ``lam`` update compute in ``__int128`` under overflow
checks wherever their operands are within two limbs, and GMP computes
anything past those, so every value and decision is the one GMP computes.
The row update's and the ``gso_row`` step's quotients have a second path
before GMP, for operands of up to two limbs: an exact quotient is the
numerator modulo ``2^128``, shifted right by the divisor's ``z`` trailing
zero bits, times the inverse of the divisor's odd part modulo ``2^128``,
sign-extended from ``128 - z`` bits.  It runs where the operands are below
``2^127`` and their bit lengths put the quotient below ``2^(125 - z)``, two
bits inside the ``2^(127 - z)`` it needs, and one inverse serves all rows of
an exchange (``_lll.c``'s header, "Division").  The new ``d[k]`` is never
such a modular quotient: it is the value the falling-``d`` check of the
termination proof tests, which guards against a wrong state, where ``num``
need not be a multiple of ``d[k]`` and a modular quotient is any residue.

Let ``B`` be the largest squared norm of the ``n`` input columns.  LLL keeps
every ``||b*_j||^2`` at most ``B``, that is ``d[j+1] <= B * d[j]``.  Both
loops check this invariant on the output, and a failure raises
``AssertionError`` naming ``j``.

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
Where alpha is so close to 1 that the budget passes ``ULONG_MAX``, as for
``p/q = (2^65 + 1)/(2^65 + 3)``, no loop reaches it (the C loop holds it as
``ULONG_MAX``), and only the falling-``d`` check guards such a run.
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
``map(add, ...)`` (``mpz_sub`` or ``mpz_add`` for a ``lam`` entry in GMP in
C), instead of the general-``gamma`` multiply.  ``_sub_multiple`` writes
that update, ``v - gamma * w``, once for the Python twins: both size
reductions of the loop and the sweep's updates of its target and its row
call it.  And ``gso_row`` skips the
zero prefix of its inner products, in both kernels: when ``g_row[0..z-1]``
are 0, so are entries ``0..z-1`` of the row, and each of the first ``z``
steps of a later entry's recurrence is ``u -> u * d[k+1] / d[k]``; they
telescope to ``g_row[j] * d[z]``, as ``d[0] = 1``.  The remaining steps walk
zipped slices of ``d``, the row and ``lam[j]``.  First visits of an ``[I; N*A]``
basis have long zero prefixes: the new column ``e_k + N*a_k`` is orthogonal
to every kernel vector already reduced, and LLL moves those to the front
(59% of first-visit entries on the column-scan attacks are such zeros).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, mul, sub
from pathlib import Path
from typing import NamedTuple

from .errors import DependentColumns, InvalidAlpha

DEFAULT_ALPHA = Fraction(99, 100)

_SOURCE = Path(__file__).with_name("_lll.c")
BUILD_TIMEOUT_S = 120
C_DEPENDENT, C_PREMISE, C_BUDGET = 1, 2, 3  # the C loop's failure statuses
_UNBUILT = object()
# The kernel _native chose: the C entries, or PYTHON where they cannot be
# built; one value per process, as the build is tried once.
_kernel: object = _UNBUILT


class Reduced(NamedTuple):
    """What an LLL loop returns: the reduced columns, and d[0..k] and lam
    rows 0..k-1 of their integral Gram-Schmidt for the prefix k asked for."""

    columns: tuple[tuple[int, ...], ...]
    d: list[int]
    lam: list[list[int]]


# The start of a run from k = 0: no columns, d = [1] and no lam rows.
_NO_START = Reduced((), [1], [])

# Either LLL loop: (cols, p, q, prefix, start) -> the reduction of cols at
# alpha = p/q, resumed from start or None
Reduce = Callable[[Sequence[Sequence[int]], int, int, int, Reduced | None], Reduced]


class Kernel(NamedTuple):
    """One kernel's three entries: the LLL loop, ``Reduce``; ``reduction``'s
    sweep, ``(cols, d, lam, target, step) -> list``; and ``intmat``'s
    products, ``(rows, cols) -> list of lists``.  The C extension's, with
    its loop wrapped to return a ``Reduced`` or raise the Python loop's
    errors, or ``PYTHON``, their Python twins."""

    reduce: Reduce
    sweep: Callable[..., list[int]]
    products: Callable[..., list[list[int]]]


def kernel_name() -> str:
    """The kernel that runs in this process: "gmp" (the C entries) or "python"."""
    return "python" if _native() is PYTHON else "gmp"


def _native() -> Kernel:
    """The C entries, built and loaded at the first call; PYTHON where they cannot be."""
    global _kernel
    if _kernel is _UNBUILT:
        _kernel = _load(_SOURCE)
    return _kernel


def _binary_name(source: Path) -> str:
    """The file name the extension of source is built and loaded under: its
    stem, a 64-bit digest of its content (CRC-32 and Adler-32, from ``zlib``,
    which ``site`` has already imported) and the interpreter's extension suffix.

    Reading and digesting the source and importing the binary take 0.74 ms
    per process, against 5.4 ms when the name was a SHA-256 prefix that
    imported ``hashlib`` and 3.9 ms for the ``ctypes`` library the extension
    replaced (medians of 15 fresh processes each, Python 3.11.7, a 2-core x86
    VM)."""
    from importlib.machinery import EXTENSION_SUFFIXES
    from zlib import adler32, crc32

    code = source.read_bytes()
    return f"{source.stem}_{crc32(code):08x}{adler32(code):08x}{EXTENSION_SUFFIXES[0]}"


def _load(source: Path) -> Kernel:
    """Load the C entries of source, built next to it on first use.

    The extension's name carries a digest of the source, so an edited source
    is never run from an old binary; a build removes the binaries of other
    sources beside it, for this interpreter's suffix and the plain ``.so`` of
    older builds.  Without a C compiler with ``__int128``, GMP or the Python
    headers, in a read-only directory, or where the binary does not import,
    this returns PYTHON, the Python twins.
    """
    from importlib.machinery import EXTENSION_SUFFIXES
    from importlib.util import module_from_spec, spec_from_file_location

    suffix = EXTENSION_SUFFIXES[0]
    try:
        binary = source.with_name(_binary_name(source))
        if not binary.exists():
            if not _build(source, binary):
                return PYTHON
            hashed = f"{source.stem}_{'[0-9a-f]' * 16}"
            for stale in chain(source.parent.glob(hashed + suffix),
                               source.parent.glob(hashed + ".so")):
                if stale != binary:
                    stale.unlink(missing_ok=True)
        spec = spec_from_file_location("knapcrack._lll", binary)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
    except (OSError, ImportError):
        return PYTHON
    c_reduce = module.reduce

    def reduce(cols: Sequence[Sequence[int]], p: int, q: int, prefix: int,
               start: Reduced | None = None) -> Reduced:
        status, value = c_reduce(cols, p, q, prefix, start)
        if status == C_DEPENDENT:
            raise _dependent(value)
        if status == C_PREMISE:
            raise _premise_failure(value, max(sum(x * x for x in c) for c in cols))
        if status == C_BUDGET:
            norms = [sum(x * x for x in c) for c in cols]
            raise _termination_failure(_exchange_budget(norms, p, q))
        return Reduced._make(value)

    return Kernel(reduce, module.sweep, module.products)


def _build(source: Path, binary: Path) -> bool:
    """Compile source into the extension module binary; False when that fails.

    The module is linked in a fresh directory and renamed into place whole,
    so a concurrent process never loads a half-written file.
    """
    import subprocess
    import sysconfig
    import tempfile

    include = sysconfig.get_paths()["include"]
    try:
        with tempfile.TemporaryDirectory(prefix=f"{source.stem}_build_",
                                         dir=source.parent) as tmp:
            built = Path(tmp, binary.name)
            subprocess.run(["cc", "-O2", "-shared", "-fPIC", f"-I{include}", "-o", str(built),
                            str(source), "-lgmp"],
                           check=True, capture_output=True, timeout=BUILD_TIMEOUT_S)
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
        if set(map(len, self.columns)) != {dim}:
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


def _sub_multiple(v: Sequence[int], w: Sequence[int], gamma: int) -> list[int]:
    """v - gamma * w over the first len(w) entries of v (zip's length), with
    map(sub) and map(add) for gamma = +-1 (module docstring)."""
    if gamma == 1:
        return list(map(sub, v, w))
    if gamma == -1:
        return list(map(add, v, w))
    return [x - gamma * y for x, y in zip(v, w)]


def _python_reduce(cols: Sequence[Sequence[int]], p: int, q: int, prefix: int,
                   start: Reduced | None = None) -> Reduced:
    """The LLL reduction of cols at alpha = p/q, in the Python loop, with the
    Gram-Schmidt of its first prefix columns, resumed from start when given.

    The C loop takes the same arguments and returns the same value.
    """
    n = len(cols)
    norms = [sum(x * x for x in c) for c in cols]
    bound = max(norms)
    budget, exchanges = _exchange_budget(norms, p, q), 0
    start = start or _NO_START
    # The current columns 0..kmax and their GSO; start's rows are copied, as
    # the loop writes them.
    b: list[Sequence[int]] = list(start.columns)
    d = start.d[:]
    lam = [row[:] for row in start.lam]
    k = len(b)
    kmax = k - 1
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
            b[k] = _sub_multiple(b[k], b[k - 1], gamma)
            lk[:k - 1] = _sub_multiple(lk, lam[k - 1], gamma)
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
                    bk = _sub_multiple(bk, b[j], gamma)
                    lk[:j] = _sub_multiple(lk, lam[j], gamma)
                    lk[j] = lkj - gamma * dj
            b[k] = bk
            k += 1
    for j in range(n):
        if d[j + 1] > bound * d[j]:
            raise _premise_failure(j, bound)
    return Reduced(tuple(map(tuple, b)), d[:prefix + 1], lam[:prefix])


def _python_sweep(cols: Sequence[Sequence[int]], d: list[int], lam: list[list[int]],
                  target: list[int], step: int) -> list[int]:
    """``reduction``'s sweep in Python: target less q_j * cols[j] for each
    kernel column j from the last down, where (d, lam) is the columns'
    Gram-Schmidt.

    Each q_j = step * round(mu_j / step) is picked on the target's row
    lam_t, and taken off lam_t in closed form and off the target with the
    loop's update (``_sub_multiple``), as the C sweep does; that takes the
    same arguments and returns the same list.
    """
    lam_t = gso_row([sum(map(mul, col, target)) for col in cols], d, lam)
    for j in range(len(cols) - 1, -1, -1):
        q = step * round_nearest(lam_t[j], step * d[j + 1])
        if q:
            lam_t[:j] = _sub_multiple(lam_t, lam[j], q)
            target = _sub_multiple(target, cols[j], q)
    return target


def _python_products(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]
                     ) -> list[list[int]]:
    """``intmat.products`` in Python: [[<row, col> for col in cols] for row in rows]."""
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


# The Python twins of the C entries, the kernel where those cannot be built
PYTHON = Kernel(_python_reduce, _python_sweep, _python_products)


def lll(basis: LatticeBasis, alpha: Fraction = DEFAULT_ALPHA, prefix: int = 0,
        start: Reduced | None = None) -> Reduced:
    """LLL-reduce the basis columns with Lovasz parameter alpha.

    The output columns span the same lattice and satisfy |mu[i][j]| <= 1/2
    for j < i together with the Lovasz condition
    ||b*_i + mu[i][i-1] b*_{i-1}||^2 >= alpha ||b*_{i-1}||^2.  The record
    also holds d[0..prefix] and lam rows 0..prefix-1 of the output columns:
    d[i] is the Gram determinant of columns 0..i-1 and lam[i][j] =
    mu[i][j] * d[j+1].

    start, when given, is what ``lll`` returned at this alpha, with prefix r,
    for the first r columns of a basis B, and the basis is B with those
    columns replaced by start's.  The loop resumes from start (module
    docstring) and returns what ``lll(B, alpha, prefix)`` returns; start is
    only read.  A start of another shape (lam row i holds i entries) or with
    a d that is not positive raises ValueError, before either loop runs.
    """
    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    if not q < 4 * p < 4 * q:  # 1/4 < p/q < 1, as q > 0
        raise InvalidAlpha(f"alpha must lie in (1/4, 1), got {alpha}")
    if not 0 <= prefix <= basis.n:
        raise ValueError(f"prefix must lie in 0..{basis.n}, got {prefix}")
    if start is not None:
        r = len(start.columns)
        if (basis.columns[:r] != start.columns or len(start.d) != r + 1
                or any(d <= 0 for d in start.d) or len(start.lam) != r
                or any(len(row) != i for i, row in enumerate(start.lam))):
            raise ValueError("start must be the reduction of the basis's first columns, "
                             "with their Gram-Schmidt")
    return _native().reduce(basis.columns, p, q, prefix, start)
