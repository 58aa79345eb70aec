"""Solution shortening: size-reduce a particular solution by the kernel basis.

Both sweeps are Babai's nearest-plane size reduction of the target row
against the kernel vectors (rows of (D | x)^T), run in the same integral
Gram-Schmidt state as the LLL kernel: ``d[i]`` and ``lam = mu * d[j+1]``,
with the target appended as one extra row of the same recurrence.  The
sweep walks the target's coefficients from the last kernel vector down to
the first, subtracting the nearest-integer multiple q and clearing it from
the remaining coefficients in closed form (``lam_t[i] -= q * lam[j][i]``);
all arithmetic is exact integer.  The result is x - D*lambda for an
integer lambda vector, so it solves the same system.

The GSO of D is the one a ``KernelDecomposition`` built for its contract
(``kd.gso``); a plain n x s matrix gets one ``_lll_py.integral_gso``.

The half-shift variant runs the identical sweep on (2D | 2x - 1): doubling
the kernel and centering the target on the all-half point steers the sweep
toward binary solutions; the final row is odd in every coordinate, so
adding 1 and halving is exact.  Doubling every vector multiplies the Gram
matrix by 4 and leaves every mu unchanged, so the GSO of 2D is D's in
closed form: ``d'[i] = 4**i * d[i]`` and ``lam'[i][j] = 4**(j+1) *
lam[i][j]``, two shifts instead of a second GSO.
"""

from __future__ import annotations

from ._lll_py import gso_row, integral_gso, round_nearest
from .errors import DimensionMismatch
from .formulations import KernelDecomposition, kernel_columns
from .intmat import mat_vec


def _sweep(vectors: list[list[int]], d: list[int], lam: list[list[int]],
           target: list[int]) -> list[int]:
    """Subtract nearest-integer projections of target onto the GSO (d, lam) of vectors.

    Walks indices from the last vector to the first, maintaining the
    target's scaled projection coefficients under each subtraction.
    """
    lam_t = gso_row(mat_vec(vectors, target), d, lam)
    out = list(target)
    dim = len(target)
    for j in range(len(vectors) - 1, -1, -1):
        q = round_nearest(lam_t[j], d[j + 1])
        if q:
            vj = vectors[j]
            for t in range(dim):
                out[t] -= q * vj[t]
            lj = lam[j]
            for i in range(j):
                lam_t[i] -= q * lj[i]
    return out


def _kernel_gso(kernel, dim: int) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """The kernel columns and their integral GSO (d, lam), for targets of length dim."""
    cols = kernel_columns(kernel)
    if cols and len(cols[0]) != dim:
        raise DimensionMismatch(
            f"kernel dimension {len(cols[0])} != solution length {dim}")
    d, lam = kernel.gso if isinstance(kernel, KernelDecomposition) else integral_gso(cols)
    return cols, d, lam


def _doubled_gso(d: list[int], lam: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Integral GSO of the doubled vectors: d[i] * 4**i and lam[i][j] * 4**(j+1)."""
    return ([di << 2 * i for i, di in enumerate(d)],
            [[lij << 2 * j + 2 for j, lij in enumerate(row)] for row in lam])


def reduce_solution(x_b, kernel) -> list[int]:
    """Shorten an integer solution x_b by the kernel basis.

    kernel is a KernelDecomposition or an n x s row-major matrix whose
    columns span ker_Z(A).  The result differs from x_b by a kernel vector.
    """
    target = [int(v) for v in x_b]
    cols, d, lam = _kernel_gso(kernel, len(target))
    return _sweep(cols, d, lam, target)


def reduce_half(x_b, kernel) -> list[int]:
    """Half-shifted variant: sweep (2D | 2x_b - 1), then undo the shift."""
    target = [2 * int(v) - 1 for v in x_b]
    cols, d, lam = _kernel_gso(kernel, len(target))
    doubled = [[2 * x for x in c] for c in cols]
    reduced = _sweep(doubled, *_doubled_gso(d, lam), target)
    if any((v + 1) % 2 for v in reduced):
        raise AssertionError("half-shift sweep lost the odd parity")
    return [(v + 1) // 2 for v in reduced]
