"""Independent brute-force and canonical-form oracles for the test suite.

Nothing here shares code paths with the package's lattice machinery: the
Hermite normal form is plain integer column elimination, membership tests
reduce against the HNF pivot structure, and existence questions are
settled by exhaustive enumeration.  Gram-Schmidt is done once, in plain
Fractions (``gso``); the update lemmas, the reduced-basis check, the
textbook LLL (recomputing its GSO, or carrying it by the lemmas) and the
rational sweep are all built on it.  The decomposition contract is checked
by its definition, an n x n Bareiss determinant of (D | C).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from knapcrack.errors import DependentColumns, DimensionMismatch, RankDeficient, SingularE
from knapcrack.formulations import kernel_columns
from knapcrack.intmat import det_bareiss, gram, mat_mul, solve_exact
from knapcrack.lattice import DEFAULT_ALPHA


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


def sweep_fraction(vectors: list[list[int]], target: list[int], rounding: str) -> list[int]:
    """Rational Babai size reduction of target against vectors' GSO.

    The solution-shortening sweep in plain Fractions: full rational GSO,
    then nearest-integer subtraction from the last vector to the first,
    updating the remaining projection coefficients in closed form.  The
    reference the package's integral sweep is held to, tie rules included.
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
            for t in range(dim):
                out[t] -= lam * vj[t]
            for i in range(j):
                coeff[i] -= lam * g.mu[j][i]
            coeff[j] -= lam
    return out


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


def project_preserving_gram(D) -> np.ndarray:
    """An s x s factor S with S^T S = D^T D (all angles and lengths kept)."""
    cols = kernel_columns(D)
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


def minor_gcd(rows: list[list[int]]) -> int:
    """gcd of all m x m minors of an m x n matrix, by enumerating them."""
    m = len(rows)
    g = 0
    for cols in itertools.combinations(range(len(rows[0])), m):
        g = gcd(g, det_bareiss([[r[j] for j in cols] for r in rows]))
    return g
