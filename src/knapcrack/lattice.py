"""Exact LLL basis reduction.

Bases are column-major: a ``LatticeBasis`` holds ``n`` integer columns of
equal dimension, each a tuple of ints.  The kernel reads these tuples and
yields tuples, so ``lll`` and ``lll_shared_prefix`` wrap its output as it
is, with no per-entry conversion.  The Gram-Schmidt convention is fixed as

    B = B* . M^T,   i.e.   b_i = sum_{j <= i} mu[i][j] * b*_j,

so ``mu`` is lower-unitriangular with ``mu[i][j]`` the projection
coefficient of column ``i`` onto the orthogonal direction ``j``.  ``lll``
runs in the integral Gram-Schmidt state of ``_lll_py`` (``d[i]`` and
``lam[i][j] = mu[i][j] * d[j+1]``), so all arithmetic is exact integer and
the nearest integer follows one asymmetric half-tie rule,
``ceil(q - 1/2)`` (4.5 -> 4, -4.5 -> -5).  ``lll_shared_prefix`` reduces
bases that share all but their last column, the shared prefix only once;
LO's target and its complement are its one use.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

from ._lll_py import lll_reduce_lasts
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

    @property
    def n(self) -> int:
        return len(self.columns)


def _lovasz(alpha) -> Fraction:
    alpha = Fraction(alpha)
    if not Fraction(1, 4) < alpha < 1:
        raise InvalidAlpha(f"alpha must lie in (1/4, 1), got {alpha}")
    return alpha


def lll(basis: LatticeBasis, alpha: Fraction = DEFAULT_ALPHA) -> LatticeBasis:
    """LLL-reduce the basis columns with Lovasz parameter alpha.

    The output spans the same lattice and satisfies |mu[i][j]| <= 1/2 for
    j < i together with the Lovasz condition
    ||b*_i + mu[i][i-1] b*_{i-1}||^2 >= alpha ||b*_{i-1}||^2.
    """
    alpha = _lovasz(alpha)
    cols = basis.columns
    return LatticeBasis(next(lll_reduce_lasts(cols[:-1], cols[-1:], alpha.numerator,
                                              alpha.denominator)))


def lll_shared_prefix(prefix: Sequence[tuple[int, ...]], lasts: Sequence[tuple[int, ...]],
                      alpha: Fraction = DEFAULT_ALPHA) -> Iterator[LatticeBasis]:
    """Iterate lll(prefix + [last], alpha) over the lasts, reducing prefix once.

    The results are exactly those of lll, and lazy: a last column's
    reduction runs only when its basis is asked for.  Alpha and the shape
    of every prefix + [last] are checked here, as lll's input is;
    DependentColumns comes from the next() whose basis is dependent.
    """
    alpha = _lovasz(alpha)
    for last in lasts:
        LatticeBasis((*prefix, last))  # raises on a bad shape
    return map(LatticeBasis, lll_reduce_lasts(prefix, lasts, alpha.numerator, alpha.denominator))
