"""Exact LLL basis reduction.

Bases are column-major: a ``LatticeBasis`` holds ``n`` integer columns of
equal dimension.  The Gram-Schmidt convention is fixed as

    B = B* . M^T,   i.e.   b_i = sum_{j <= i} mu[i][j] * b*_j,

so ``mu`` is lower-unitriangular with ``mu[i][j]`` the projection
coefficient of column ``i`` onto the orthogonal direction ``j``.  ``lll``
runs in the integral Gram-Schmidt state of ``_lll_py`` (``d[i]`` and
``lam[i][j] = mu[i][j] * d[j+1]``), so all arithmetic is exact integer and
nearest-integer rounding uses the asymmetric half-tie rule
``round(q) = ceil(q - 1/2)`` (4.5 -> 4, -4.5 -> -5).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._lll_py import lll_reduce
from .errors import InvalidAlpha

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
