"""Independent brute-force and canonical-form oracles for the test suite.

Nothing here shares code paths with the package's lattice machinery: the
Hermite normal form is plain integer column elimination, membership tests
reduce against the HNF pivot structure, and existence questions are
settled by exhaustive enumeration.  Gram-Schmidt is done once, in plain
Fractions (``gso``); the update lemmas, the reduced-basis check, the
textbook LLL (recomputing its GSO, or carrying it by the lemmas) and the
rational sweep are all built on it.  ``integral_gso`` does share one
piece: it computes the integral (d, lam) of given columns from scratch with
the package's ``gso_row`` recurrence on dense inner products, and the tests
pin it to the rational ``gso``.  It is the reference that the Gram-Schmidt
an LLL loop returns with its columns is held to.  The decomposition
contract is checked by its definition, an n x n Bareiss determinant of
(D | C).
``brute_force_solve`` lists every binary solution (direct enumeration to
n = 20, meet-in-the-middle to n = 30), and the ``njp_*`` functions state the
paper's cut-off implications between neighbouring jump points, which no
attack uses; ``uk_bound`` is the floor formula of the slack bound, the
reference for ``modular_transform``'s u_k.  ``enumerate_jump_points`` lists
jump points by sorting every j/den, the reference for the package's heap
merge, and ``kernel_of`` wraps a plain matrix as a decomposition holding
only D and its ``integral_gso``, the one kernel shape the sweeps and the
features take; ``basis_of`` wraps any integer columns as a
``LatticeBasis`` of int tuples, the one basis format.  ``attack_lo_two_lll``
runs LO and its complement fallback on bases built entry by entry, the
reference for ``attack_lo`` and its ``_stacked`` basis.  ``mat_mul``
multiplies two matrices in plain Python, for the contract's products.
``rank_fraction`` and ``solve_exact_fraction`` eliminate in Fractions and
``det_leibniz`` sums over permutations: the references for the package's
one fraction-free elimination.  ``size_reductions`` and ``sweep_updates``
list the vector updates of the textbook LLL and of the rational sweep, and
``a_long`` and ``overflow_at`` say where ``_lll.c``'s word path would leave
a long on one: the preconditions of the tests that reach that path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

import numpy as np

from knapcrack.disagg import JUMP_CAP, JumpPoint, _jump_denominators, row_coeffs
from knapcrack.errors import (DependentColumns, DimensionMismatch, KnapcrackError,
                              RankDeficient, SingularE, SizeLimit)
from knapcrack.formulations import (FAILURE, AttackVerdict, KernelDecomposition,
                                    _scan_lo, classify_solution)
from knapcrack.intmat import det_bareiss, gram, solve_exact
from knapcrack.lattice import DEFAULT_ALPHA, LatticeBasis, gso_row, lll
from knapcrack.problems import LdeSystem, complement

FULL_ENUM_LIMIT = 20
MITM_LIMIT = 30


def hnf_columns(mat: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical column Hermite normal form (zero columns dropped).

    Columns are processed by unimodular column operations only, so the
    column span (the lattice) is preserved; equal lattices give equal
    forms.
    """
    rows = len(mat)
    a = [list(r) for r in mat]
    ncols = len(a[0]) if rows else 0

    def colop_sub(dst: int, src: int, q: int) -> None:
        for r in range(rows):
            a[r][dst] -= q * a[r][src]

    def swap(i: int, j: int) -> None:
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]

    k = 0
    for r in range(rows):
        piv = next((j for j in range(k, ncols) if a[r][j] != 0), None)
        if piv is None:
            continue
        swap(k, piv)
        for j in range(k + 1, ncols):
            while a[r][j] != 0:
                q = a[r][k] // a[r][j]
                colop_sub(k, j, q)
                swap(k, j)
        if a[r][k] < 0:
            for rr in range(rows):
                a[rr][k] = -a[rr][k]
        for j in range(k):
            q = a[r][j] // a[r][k]
            if q:
                colop_sub(j, k, q)
        k += 1
    cols = [tuple(a[r][j] for r in range(rows)) for j in range(ncols)]
    return tuple(c for c in cols if any(c))


def hnf_with_transform(mat: list[list[int]]):
    """HNF plus the unimodular U with mat * U = H (zero columns kept)."""
    rows = len(mat)
    a = [list(r) for r in mat]
    ncols = len(a[0]) if rows else 0
    u = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def colop_sub(dst: int, src: int, q: int) -> None:
        for r in range(rows):
            a[r][dst] -= q * a[r][src]
        for r in range(ncols):
            u[r][dst] -= q * u[r][src]

    def swap(i: int, j: int) -> None:
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(ncols):
            u[r][i], u[r][j] = u[r][j], u[r][i]

    def negate(j: int) -> None:
        for r in range(rows):
            a[r][j] = -a[r][j]
        for r in range(ncols):
            u[r][j] = -u[r][j]

    k = 0
    for r in range(rows):
        piv = next((j for j in range(k, ncols) if a[r][j] != 0), None)
        if piv is None:
            continue
        swap(k, piv)
        for j in range(k + 1, ncols):
            while a[r][j] != 0:
                q = a[r][k] // a[r][j]
                colop_sub(k, j, q)
                swap(k, j)
        if a[r][k] < 0:
            negate(k)
        for j in range(k):
            q = a[r][j] // a[r][k]
            if q:
                colop_sub(j, k, q)
        k += 1
    return a, u, k


def kernel_basis(mat: list[list[int]]) -> list[list[int]]:
    """Integer kernel basis columns of mat, via the HNF transform."""
    a, u, rank = hnf_with_transform(mat)
    ncols = len(u)
    return [[u[r][j] for r in range(ncols)] for j in range(rank, ncols)]


def hnf_member(hnf_cols, vec: list[int]) -> bool:
    """Membership of vec in the lattice spanned by canonical HNF columns."""
    if not hnf_cols:
        return all(v == 0 for v in vec)
    rows = len(hnf_cols[0])
    v = list(vec)
    for col in hnf_cols:
        r = next(i for i in range(rows) if col[i] != 0)
        if v[r] % col[r]:
            return False
        q = v[r] // col[r]
        if q:
            v = [x - q * y for x, y in zip(v, col)]
    return all(x == 0 for x in v)


def lattices_equal(cols_a, cols_b, dim: int) -> bool:
    rows_a = [[c[r] for c in cols_a] for r in range(dim)]
    rows_b = [[c[r] for c in cols_b] for r in range(dim)]
    return hnf_columns(rows_a) == hnf_columns(rows_b)


def enumerate_lattice_shortest(cols, bound: int) -> list[int]:
    """Shortest nonzero vector with combination coefficients in [-bound, bound]."""
    n = len(cols)
    dim = len(cols[0])
    best = None
    best_norm = None
    for z in itertools.product(range(-bound, bound + 1), repeat=n):
        if all(c == 0 for c in z):
            continue
        vec = [sum(cols[j][i] * z[j] for j in range(n)) for i in range(dim)]
        norm = sum(x * x for x in vec)
        if best_norm is None or norm < best_norm:
            best, best_norm = vec, norm
    return best


def independent_short_vectors(cols, bound: int, count: int) -> list[list[int]]:
    """Greedily pick `count` short independent lattice vectors (small cases)."""
    n = len(cols)
    dim = len(cols[0])
    vecs = []
    for z in itertools.product(range(-bound, bound + 1), repeat=n):
        if all(c == 0 for c in z):
            continue
        vec = [sum(cols[j][i] * z[j] for j in range(n)) for i in range(dim)]
        vecs.append((sum(x * x for x in vec), vec))
    vecs.sort(key=lambda p: p[0])
    chosen: list[list[int]] = []

    def independent(cand: list[int]) -> bool:
        rows = [[Fraction(x) for x in v] for v in chosen] + [[Fraction(x) for x in cand]]
        r = 0
        for c in range(dim):
            piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            for i in range(r + 1, len(rows)):
                if rows[i][c] != 0:
                    f = rows[i][c] / rows[r][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            r += 1
        return r == len(rows)

    for _, vec in vecs:
        if independent(vec):
            chosen.append(vec)
            if len(chosen) == count:
                break
    return chosen


@dataclass(frozen=True)
class GsoResult:
    """Lower-unitriangular mu and the orthogonal columns b*."""

    mu: tuple[tuple[Fraction, ...], ...]
    bstar: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.mu)

    def bstar_norms_sq(self) -> list[Fraction]:
        return [sum(x * x for x in col) for col in self.bstar]


def gso(cols) -> GsoResult:
    """Exact rational Gram-Schmidt orthogonalization of the columns.

    b_i = sum_{j <= i} mu[i][j] * b*_j.  Raises DependentColumns when a
    column depends on the earlier ones.
    """
    n = len(cols)
    cols = [[Fraction(x) for x in c] for c in cols]
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar: list[list[Fraction]] = []
    norms: list[Fraction] = []
    for i in range(n):
        mu[i][i] = Fraction(1)
        v = cols[i]
        for j in range(i):
            c = sum(a * b for a, b in zip(cols[i], bstar[j])) / norms[j]
            mu[i][j] = c
            v = [a - c * b for a, b in zip(v, bstar[j])]
        nv = sum(x * x for x in v)
        if nv == 0:
            raise DependentColumns(f"column {i} is dependent on earlier columns")
        bstar.append(v)
        norms.append(nv)
    return GsoResult(
        mu=tuple(tuple(row) for row in mu),
        bstar=tuple(tuple(col) for col in bstar),
    )


def integral_gso(cols) -> tuple[list[int], list[list[int]]]:
    """Integral GSO (d, lam) of the columns, computed from scratch.

    d[i] is the Gram determinant of columns 0..i-1 and lam[i] holds
    lam[i][j] = mu_{i,j} * d[j+1] for j < i: each column's row is
    ``gso_row`` of its inner products with columns 0..k, its own norm last.
    Raises DependentColumns at the first column that depends on the earlier
    ones, with the LLL loops' message.
    """
    d = [1]
    lam: list[list[int]] = []
    for k, col in enumerate(cols):
        row = gso_row([sum(map(mul, col, c)) for c in cols[:k + 1]], d, lam)
        dk = row.pop()
        if dk == 0:
            raise DependentColumns(f"column {k} is dependent on earlier columns")
        d.append(dk)
        lam.append(row)
    return d, lam


def gso_after_reduce(g: GsoResult, k: int, l: int, gamma: int) -> GsoResult:
    """GSO of the basis with column k replaced by column_k - gamma*column_l.

    Uses the closed-form mu updates of the column-reduction lemma; the
    orthogonal columns are untouched.  Indices are 0-based with l < k.
    """
    n = g.n
    if not (0 <= l < k < n):
        raise IndexError(f"need 0 <= l < k < {n}, got k={k}, l={l}")
    if gamma == 0:
        return g
    mu = [list(row) for row in g.mu]
    for j in range(l):
        mu[k][j] -= gamma * mu[l][j]
    mu[k][l] -= gamma
    return GsoResult(mu=tuple(tuple(row) for row in mu), bstar=g.bstar)


def gso_after_swap(g: GsoResult, k: int) -> GsoResult:
    """GSO of the basis with columns k-1 and k exchanged.

    Applies the closed forms of the column-exchange lemma: only the two
    orthogonal columns at the swap position and the mu entries coupling to
    them change.  Index is 0-based with 1 <= k < n.
    """
    n = g.n
    if not (1 <= k < n):
        raise IndexError(f"need 1 <= k < {n}, got k={k}")
    mu = [list(row) for row in g.mu]
    bstar = [list(col) for col in g.bstar]
    m = mu[k][k - 1]
    b_k1 = sum(x * x for x in bstar[k - 1])
    b_k = sum(x * x for x in bstar[k])
    b_new = b_k + m * m * b_k1

    new_km1 = [x + m * y for x, y in zip(bstar[k], bstar[k - 1])]
    c1 = b_k / b_new
    c2 = m * b_k1 / b_new
    new_k = [c1 * y - c2 * x for x, y in zip(bstar[k], bstar[k - 1])]
    bstar[k - 1] = new_km1
    bstar[k] = new_k

    for j in range(k - 1):
        mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
    mu[k][k - 1] = m * b_k1 / b_new
    for i in range(k + 1, n):
        mik1, mik = mu[i][k - 1], mu[i][k]
        mu[i][k - 1] = (mik * b_k + mik1 * m * b_k1) / b_new
        mu[i][k] = mik1 - mik * m
    return GsoResult(
        mu=tuple(tuple(row) for row in mu),
        bstar=tuple(tuple(col) for col in bstar),
    )


def is_lll_reduced(cols, alpha=DEFAULT_ALPHA) -> bool:
    """Exact check of both reduced-basis conditions."""
    g = gso(cols)
    n = g.n
    norms = g.bstar_norms_sq()
    for i in range(n):
        for j in range(i):
            if abs(g.mu[i][j]) > Fraction(1, 2):
                return False
    for i in range(1, n):
        if norms[i] + g.mu[i][i - 1] ** 2 * norms[i - 1] < alpha * norms[i - 1]:
            return False
    return True


def _textbook_lll(cols, alpha, after_reduce, after_swap) -> list[list[int]]:
    """Textbook rational LLL on a copy of cols.

    after_reduce(g, cols, k, j, gamma) and after_swap(g, cols, k) return the
    GSO of cols after the change, given the GSO g from before it.
    """
    cols = [list(c) for c in cols]
    n = len(cols)
    alpha = Fraction(alpha)
    g = gso(cols)

    def size_reduce(k, j):
        nonlocal g
        q = g.mu[k][j]
        if abs(q) > Fraction(1, 2):
            # the asymmetric half-tie rule: ceil(mu - 1/2)
            gamma = -((-(2 * q.numerator - q.denominator)) // (2 * q.denominator))
            cols[k] = [a - gamma * b for a, b in zip(cols[k], cols[j])]
            g = after_reduce(g, cols, k, j, gamma)

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        norm_k1, norm_k = (sum(x * x for x in g.bstar[i]) for i in (k - 1, k))
        if norm_k + g.mu[k][k - 1] ** 2 * norm_k1 < alpha * norm_k1:
            cols[k - 1], cols[k] = cols[k], cols[k - 1]
            g = after_swap(g, cols, k)
            if k > 1:
                k -= 1
        else:
            for h in range(k - 2, -1, -1):
                size_reduce(k, h)
            k += 1
    return cols


def naive_lll(cols: list[list[int]], alpha) -> list[list[int]]:
    """Textbook rational LLL: full GSO recomputation after every change.

    Hopelessly slow, but independent of the package's incremental update
    machinery; used to pin the kernel's exact output column-for-column.
    """
    return _textbook_lll(cols, alpha, lambda g, cols, k, j, gamma: gso(cols),
                         lambda g, cols, k: gso(cols))


def lemma_lll(cols: list[list[int]], alpha) -> list[list[int]]:
    """naive_lll with the GSO carried by the rational update lemmas.

    gso_after_reduce and gso_after_swap replace the recomputation, which
    makes bases of 30 columns affordable; the lemmas are pinned against
    recomputation, and this loop against naive_lll.
    """
    return _textbook_lll(cols, alpha,
                         lambda g, cols, k, j, gamma: gso_after_reduce(g, k, j, gamma),
                         lambda g, cols, k: gso_after_swap(g, k))


def size_reductions(cols: list[list[int]], alpha) -> list[tuple[list[int], list[int], int]]:
    """Each column update lemma_lll makes on cols, in order: (column k before
    it, column j, gamma), for column k -= gamma * column j.  A dependent
    column raises DependentColumns."""
    updates = []

    def after_reduce(g, cols, k, j, gamma):
        updates.append(([a + gamma * b for a, b in zip(cols[k], cols[j])], cols[j], gamma))
        return gso_after_reduce(g, k, j, gamma)

    _textbook_lll(cols, alpha, after_reduce, lambda g, cols, k: gso_after_swap(g, k))
    return updates


def sweep_fraction(vectors: list[list[int]], target: list[int], rounding: str,
                   updates: list | None = None) -> list[int]:
    """Rational Babai size reduction of target against vectors' GSO.

    The solution-shortening sweep in plain Fractions: full rational GSO,
    then nearest-integer subtraction from the last vector to the first,
    updating the remaining projection coefficients in closed form.  The
    reference the package's integral sweep is held to, tie rules included.
    Each subtraction, out -= lam * vectors[j], is appended to updates as
    (out before it, j, lam) where updates is a list.
    """

    def nearest_integer(q: Fraction, mode: str) -> int:
        if mode == "asymmetric":
            return math.ceil(q - Fraction(1, 2))
        if mode == "symmetric":
            r = math.floor(abs(q) + Fraction(1, 2))
            return r if q >= 0 else -r
        raise ValueError(f"unknown rounding mode {mode!r}")

    s = len(vectors)
    dim = len(target)
    if any(len(v) != dim for v in vectors):
        raise DimensionMismatch("kernel vectors and target differ in length")
    g = gso(vectors)
    norms = g.bstar_norms_sq()
    coeff = [sum(a * b for a, b in zip(target, g.bstar[j])) / norms[j]
             for j in range(s)]
    out = list(target)
    for j in range(s - 1, -1, -1):
        lam = nearest_integer(coeff[j], rounding)
        if lam:
            vj = vectors[j]
            if updates is not None:
                updates.append((list(out), j, lam))
            for t in range(dim):
                out[t] -= lam * vj[t]
            for i in range(j):
                coeff[i] -= lam * g.mu[j][i]
            coeff[j] -= lam
    return out


def sweep_updates(vectors: list[list[int]], target: list[int], step: int
                  ) -> list[tuple[list[int], list[int], int]]:
    """Each update of target in the sweep with step 1 or 2 (reduction's sweep),
    in order: (target before it, vector j, q) for target -= q * vector j, q != 0.

    With step 2 the sweep is sweep_fraction's against the doubled vectors."""
    updates = []
    sweep_fraction([[step * v for v in c] for c in vectors], target, "asymmetric", updates)
    return [(before, vectors[j], step * lam) for before, j, lam in updates]


def a_long(x: int) -> bool:
    """Whether x fits in a C long, the word of _lll.c's columns and vectors."""
    return -2**63 <= x < 2**63


def overflow_at(before: list[int], other: list[int], gamma: int) -> int | None:
    """The coordinate at which _lll.c's word path for the update
    before - gamma * other (sub_column) first leaves a long, in the product or
    the difference, where gamma and both vectors are words; else None."""
    if a_long(gamma) and all(map(a_long, before + other)):
        for r, (x, y) in enumerate(zip(before, other)):
            if not (a_long(gamma * y) and a_long(x - gamma * y)):
                return r
    return None


def half_sweep_fraction(vectors: list[list[int]], x: list[int], rounding: str) -> list[int]:
    """sweep_fraction on (2D | 2x - 1), then undo the half shift."""
    doubled = [[2 * v for v in c] for c in vectors]
    reduced = sweep_fraction(doubled, [2 * v - 1 for v in x], rounding)
    return [(v + 1) // 2 for v in reduced]


def integer_solvable(rows: list[list[int]], rhs: list[int]) -> bool:
    """Does A x = b admit any integer solution?  (b in the column lattice.)"""
    if len(rows) == 1:
        g = 0
        for v in rows[0]:
            g = gcd(g, v)
        return rhs[0] % g == 0 if g else rhs[0] == 0
    h = hnf_columns(rows)
    return hnf_member(h, list(rhs))


def binary_solutions_naive(rows: list[list[int]], rhs: list[int]) -> list[tuple[int, ...]]:
    """All binary solutions by plain product enumeration (tiny n only)."""
    n = len(rows[0])
    out = []
    for x in itertools.product((0, 1), repeat=n):
        if all(sum(r[i] * x[i] for i in range(n)) == b for r, b in zip(rows, rhs)):
            out.append(x)
    return out


def transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(r) for r in zip(*a)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The product of two row-major matrices, entry by entry in Python."""
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch("inner dimensions differ")
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def solve_integer_combination(cols: list[list[int]], target: list[int]) -> list[int] | None:
    """Express target as an integer combination of the given columns.

    Returns the coefficient vector, or None when no rational solution exists
    or the rational solution is not integral.  Columns must be linearly
    independent.
    """
    m = len(cols)
    if m == 0:
        return [] if all(x == 0 for x in target) else None
    g = gram(cols)
    rhs = [sum(x * y for x, y in zip(c, target)) for c in cols]
    try:
        coeffs = solve_exact(g, rhs)
    except SingularE:
        return None
    if any(c.denominator != 1 for c in coeffs):
        return None
    z = [int(c) for c in coeffs]
    # Gram projection only gives the least-squares answer; confirm exactly.
    recon = [sum(cols[j][i] * z[j] for j in range(m)) for i in range(len(target))]
    return z if recon == list(target) else None


def rank_fraction(mat: list[list[int]]) -> int:
    """Rank over the rationals via Fraction row elimination (reference for ``rank``)."""
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


def solve_exact_fraction(mat: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Gauss-Jordan in Fractions, the reference for ``solve_exact``."""
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


def det_leibniz(mat: list[list[int]]) -> int:
    """Determinant as the signed sum over permutations (small n only)."""
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(mat[i][perm[i]] for i in range(n))
    return total


def kernel_of(D) -> KernelDecomposition:
    """A KernelDecomposition holding only the columns of the n x s row-major
    matrix D and their ``integral_gso``.

    C and E are empty and nothing else checks D, so the sweeps and the
    features can be run on any matrix of independent columns; dependent
    columns raise DependentColumns here.
    """
    cols = tuple(zip(*(tuple(int(x) for x in r) for r in D)))
    return KernelDecomposition(kernel_columns=cols, C=(), E=(), N_used=0, gso=integral_gso(cols))


def project_preserving_gram(D) -> np.ndarray:
    """An s x s factor S with S^T S = D^T D (all angles and lengths kept)."""
    cols = transpose(D)
    if det_bareiss(gram(cols)) == 0:
        raise RankDeficient("columns are not of full rank")
    mat = np.array(cols, dtype=float).T
    _, sing, vt = np.linalg.svd(mat, full_matrices=False)
    return np.diag(sing) @ vt


def det_d_c(kd) -> int:
    """det(D | C) of a decomposition, by an n x n Bareiss determinant."""
    return det_bareiss([list(dr) + list(cr) for dr, cr in zip(kd.D, kd.C)])


def check_decomposition_bareiss(sys, kd) -> None:
    """The decomposition contract by its definition; raises AssertionError.

    A*D = 0, A*C = E and det(D | C) = +-1.  The package checks the last
    condition through d[s] * det(E)^2 = det(A A^T) instead; this is the
    reference that identity is held to.
    """
    a_rows = [list(r) for r in sys.A]
    ad = mat_mul(a_rows, [list(r) for r in kd.D])
    if any(x != 0 for row in ad for x in row):
        raise AssertionError("A*D != 0 in decomposition")
    ac = mat_mul(a_rows, [list(r) for r in kd.C])
    if ac != [list(r) for r in kd.E]:
        raise AssertionError("A*C != E in decomposition")
    if det_d_c(kd) not in (1, -1):
        raise AssertionError("(D|C) is not unimodular")


def attack_lo_two_lll(sys: LdeSystem, alpha=DEFAULT_ALPHA) -> AttackVerdict:
    """LO with one full ``lll`` per target, the reference for ``attack_lo``.

    The targets are the instance as given, then its complement.
    """
    for target, flipped in ((sys, False), (complement(sys), True)):
        a, b = target.A[0], target.b[0]
        n = target.n
        cols = [[0] * (n + 1) for _ in range(n + 1)]
        for j in range(n):
            cols[j][j] = 1
            cols[j][n] = -a[j]
        cols[n][n] = b
        reduced = lll(basis_of(cols), alpha)
        for j, lam, x in _scan_lo(reduced.columns, n):
            if target.is_solution(x):
                return classify_solution(sys, [1 - v for v in x] if flipped else x,
                                         algorithm="lo", column=j, scan_lambda=lam,
                                         used_complement=flipped)
    return AttackVerdict(FAILURE, meta={"algorithm": "lo"})


def basis_of(cols) -> LatticeBasis:
    """A LatticeBasis of any integer columns: lists, tuples, numpy or sympy ints."""
    return LatticeBasis(tuple(tuple(map(int, c)) for c in cols))


def minor_gcd(rows: list[list[int]]) -> int:
    """gcd of all m x m minors of an m x n matrix, by enumerating them."""
    m = len(rows)
    g = 0
    for cols in itertools.combinations(range(len(rows[0])), m):
        g = gcd(g, det_bareiss([[r[j] for j in cols] for r in rows]))
    return g


def density(sys: LdeSystem) -> float:
    """n / log2(max coefficient of row 0); near 1 marks the hardest instances."""
    return sys.n / math.log2(max(sys.A[0]))


class TooLarge(KnapcrackError):
    """Problem too large for the exhaustive solver."""


def _enumerate_full(sys: LdeSystem) -> list[tuple[int, ...]]:
    m, n = sys.m, sys.n
    sols: list[tuple[int, ...]] = []
    x = [0] * n
    partial = [[0] * m for _ in range(n + 1)]

    def walk(i: int) -> None:
        cur = partial[i]
        # Nonnegative coefficients allow pruning once any row overshoots.
        if any(cur[r] > sys.b[r] for r in range(m)):
            return
        if i == n:
            if all(cur[r] == sys.b[r] for r in range(m)):
                sols.append(tuple(x))
            return
        partial[i + 1] = list(cur)
        x[i] = 0
        walk(i + 1)
        partial[i + 1] = [cur[r] + sys.A[r][i] for r in range(m)]
        x[i] = 1
        walk(i + 1)
        x[i] = 0

    walk(0)
    return sorted(sols)


def _enumerate_mitm(sys: LdeSystem) -> list[tuple[int, ...]]:
    m, n = sys.m, sys.n
    half = n // 2
    right_cols = list(range(half, n))

    def sums(cols: list[int]) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
        table: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for mask in range(1 << len(cols)):
            vec = tuple((mask >> i) & 1 for i in range(len(cols)))
            key = tuple(sum(sys.A[r][cols[i]] for i, v in enumerate(vec) if v)
                        for r in range(m))
            table.setdefault(key, []).append(vec)
        return table

    right = sums(right_cols)
    sols: list[tuple[int, ...]] = []
    for mask in range(1 << half):
        vec = tuple((mask >> i) & 1 for i in range(half))
        key = tuple(sys.b[r] - sum(sys.A[r][i] for i, v in enumerate(vec) if v)
                    for r in range(m))
        for rvec in right.get(key, ()):
            sols.append(vec + rvec)
    return sorted(sols)


def brute_force_solve(sys: LdeSystem) -> list[tuple[int, ...]]:
    """The full set of binary solutions, by exhaustive search.

    Direct enumeration up to n = 20, meet-in-the-middle up to n = 30.
    """
    if sys.n <= FULL_ENUM_LIMIT:
        return _enumerate_full(sys)
    if sys.n <= MITM_LIMIT:
        return _enumerate_mitm(sys)
    raise TooLarge(f"n={sys.n} exceeds the exhaustive-search limit {MITM_LIMIT}")


def uk_bound(problem, r: Fraction) -> int:
    """floor(b~ r) + floor(b r) - sum floor(a_i r); nonnegative always.

    The floor formula of the slack bound, the reference for
    ``modular_transform``'s u_k.
    """
    a, b = row_coeffs(problem)
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError(f"need 0 < r < 1, got {r}")
    num, den = r.numerator, r.denominator
    bt = sum(a) - b
    return bt * num // den + b * num // den - sum(ai * num // den for ai in a)


def enumerate_jump_points(problem, cap: int = JUMP_CAP) -> list[JumpPoint]:
    """All jump points, ascending, exact-rational deduplicated, tags merged."""
    a, b = row_coeffs(problem)
    dens = _jump_denominators(a, b)
    raw_count = sum(den - 1 for den, _ in dens)
    if raw_count > cap:
        raise SizeLimit(f"{raw_count} candidate jump points exceed the cap {cap}")
    merged: dict[Fraction, set[str]] = {}
    for den, tag in dens:
        for j in range(1, den):
            merged.setdefault(Fraction(j, den), set()).add(tag)
    return [JumpPoint(value=v, sources=frozenset(tags))
            for v, tags in sorted(merged.items())]


class NotNeighbours(KnapcrackError):
    """The two rationals are not adjacent jump points."""


@dataclass(frozen=True)
class NjpDeltas:
    """Floor differences between two neighbouring jump points."""

    dv: tuple[int, ...]
    dw: int
    dw_tilde: int
    du_k: int


def _assert_neighbours(a: list[int], b: int, r1: Fraction, r2: Fraction) -> None:
    if not (0 < r1 < r2 < 1):
        raise NotNeighbours(f"need 0 < r1 < r2 < 1, got {r1}, {r2}")
    dens = [den for den, _ in _jump_denominators(a, b)]
    for r in (r1, r2):
        if not any(den % r.denominator == 0 for den in dens):
            raise NotNeighbours(f"{r} is not a jump point of the problem")
    for den in dens:
        j_between = r1.numerator * den // r1.denominator + 1
        if j_between <= den - 1 and Fraction(j_between, den) < r2:
            raise NotNeighbours(f"jump point {j_between}/{den} lies strictly between")


def njp_deltas(problem, r1: Fraction, r2: Fraction) -> NjpDeltas:
    """Componentwise floor differences across an adjacent jump-point pair."""
    a, b = row_coeffs(problem)
    r1, r2 = Fraction(r1), Fraction(r2)
    _assert_neighbours(a, b, r1, r2)
    bt = sum(a) - b

    def fl(x: int, r: Fraction) -> int:
        return x * r.numerator // r.denominator

    dv = tuple(fl(ai, r2) - fl(ai, r1) for ai in a)
    dw = fl(b, r2) - fl(b, r1)
    dwt = fl(bt, r2) - fl(bt, r1)
    return NjpDeltas(dv=dv, dw=dw, dw_tilde=dwt, du_k=dwt + dw - sum(dv))


def njp_right_dominates(problem, r1: Fraction, r2: Fraction, x_tilde) -> bool:
    """Cut at r1 implies cut at r2: dw <= dv . x <= sum(dv) - dw~."""
    d = njp_deltas(problem, r1, r2)
    dvx = sum(dv * int(x) for dv, x in zip(d.dv, x_tilde))
    return d.dw <= dvx <= sum(d.dv) - d.dw_tilde


def njp_left_dominates(problem, r1: Fraction, r2: Fraction, x_tilde) -> bool:
    """Cut at r2 implies cut at r1: sum(dv) - dw~ <= dv . x <= dw."""
    d = njp_deltas(problem, r1, r2)
    dvx = sum(dv * int(x) for dv, x in zip(d.dv, x_tilde))
    return sum(d.dv) - d.dw_tilde <= dvx <= d.dw
