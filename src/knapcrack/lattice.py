"""Exact Gram-Schmidt orthogonalization and LLL basis reduction.

Bases are column-major: a ``LatticeBasis`` holds ``n`` integer columns of
equal dimension.  The orthogonalization convention is fixed as

    B = B* . M^T,   i.e.   b_i = sum_{j <= i} mu[i][j] * b*_j,

so ``mu`` is lower-unitriangular with ``mu[i][j]`` the projection
coefficient of column ``i`` onto the orthogonal direction ``j``.  All
arithmetic is exact rational; the LLL hot loop itself runs in the
denominator-cleared integer kernel of ``_lll_py``, applying the same
reduce/exchange update formulas.

Nearest-integer rounding uses the asymmetric half-tie rule
``round(q) = ceil(q - 1/2)`` everywhere by default, so 4.5 -> 4 and
-4.5 -> -5; the symmetric mode (half away from zero) is available where
sign-flip invariance of a reduction sweep matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._lll_py import lll_reduce, round_nearest
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

    @classmethod
    def from_columns(cls, cols) -> "LatticeBasis":
        return cls(tuple(tuple(int(x) for x in c) for c in cols))

    @property
    def n(self) -> int:
        return len(self.columns)

    @property
    def dim(self) -> int:
        return len(self.columns[0])

    def column_lists(self) -> list[list[int]]:
        return [list(c) for c in self.columns]


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


def nearest_integer(q, mode: str = "asymmetric") -> int:
    """Round to the nearest integer with an explicit half-tie rule.

    "asymmetric" is ceil(q - 1/2) (4.5 -> 4, -4.5 -> -5); "symmetric"
    rounds halves away from zero (4.5 -> 5, -4.5 -> -5).
    """
    q = Fraction(q)
    return round_nearest(q.numerator, q.denominator, mode)


def gso(basis: LatticeBasis) -> GsoResult:
    """Exact Gram-Schmidt orthogonalization of the basis columns."""
    n = basis.n
    cols = [[Fraction(x) for x in c] for c in basis.columns]
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


def lll(basis: LatticeBasis, alpha: Fraction = DEFAULT_ALPHA) -> LatticeBasis:
    """LLL-reduce the basis columns with Lovasz parameter alpha.

    The output spans the same lattice and satisfies |mu[i][j]| <= 1/2 for
    j < i together with the Lovasz condition
    ||b*_i + mu[i][i-1] b*_{i-1}||^2 >= alpha ||b*_{i-1}||^2.
    """
    alpha = Fraction(alpha)
    if not Fraction(1, 4) < alpha < 1:
        raise InvalidAlpha(f"alpha must lie in (1/4, 1), got {alpha}")
    cols = lll_reduce(basis.column_lists(), alpha.numerator, alpha.denominator)
    return LatticeBasis.from_columns(cols)


def is_lll_reduced(basis: LatticeBasis, alpha: Fraction = DEFAULT_ALPHA) -> bool:
    """Exact check of both reduced-basis conditions."""
    g = gso(basis)
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
