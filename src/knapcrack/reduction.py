"""Solution shortening: size-reduce a particular solution by the kernel basis.

Both sweeps are Babai's nearest-plane size reduction of the target row
against the kernel vectors (rows of (D | x)^T), run in the same integral
Gram-Schmidt state as the LLL kernel: ``d[i]`` and ``lam = mu * d[j+1]``
from ``_lll_py.integral_gso``, with the target appended as one extra row
of the same recurrence.  The sweep walks the target's coefficients from
the last kernel vector down to the first, subtracting the nearest-integer
multiple q and clearing it from the remaining coefficients in closed form
(``lam_t[i] -= q * lam[j][i]``); all arithmetic is exact integer.  The
result is x - D*lambda for an integer lambda vector, so it solves the same
system.

The half-shift variant runs the identical sweep on (2D | 2x - 1): doubling
the kernel and centering the target on the all-half point steers the sweep
toward binary solutions; the final row is odd in every coordinate, so
adding 1 and halving is exact.
"""

from __future__ import annotations

from ._lll_py import gso_row, integral_gso, round_nearest
from .errors import DimensionMismatch
from .formulations import kernel_columns
from .intmat import mat_vec


def _sweep(vectors: list[list[int]], target: list[int], rounding: str) -> list[int]:
    """Subtract nearest-integer projections of target onto the GSO of vectors.

    Walks indices from the last vector to the first, maintaining the
    target's scaled projection coefficients under each subtraction.
    """
    d, lam = integral_gso(vectors)
    lam_t = gso_row(mat_vec(vectors, target), d, lam)
    out = list(target)
    dim = len(target)
    for j in range(len(vectors) - 1, -1, -1):
        q = round_nearest(lam_t[j], d[j + 1], rounding)
        if q:
            vj = vectors[j]
            for t in range(dim):
                out[t] -= q * vj[t]
            lj = lam[j]
            for i in range(j):
                lam_t[i] -= q * lj[i]
    return out


def reduce_solution(x_b, kernel, rounding: str = "asymmetric") -> list[int]:
    """Shorten an integer solution x_b by the kernel basis.

    kernel is a KernelDecomposition or an n x s row-major matrix whose
    columns span ker_Z(A).  The result differs from x_b by a kernel vector.
    """
    cols = kernel_columns(kernel)
    target = [int(v) for v in x_b]
    if cols and len(cols[0]) != len(target):
        raise DimensionMismatch(
            f"kernel dimension {len(cols[0])} != solution length {len(target)}")
    return _sweep(cols, target, rounding)


def reduce_half(x_b, kernel, rounding: str = "asymmetric") -> list[int]:
    """Half-shifted variant: sweep (2D | 2x_b - 1), then undo the shift."""
    cols = kernel_columns(kernel)
    target = [2 * int(v) - 1 for v in x_b]
    if cols and len(cols[0]) != len(target):
        raise DimensionMismatch(
            f"kernel dimension {len(cols[0])} != solution length {len(target)}")
    doubled = [[2 * x for x in c] for c in cols]
    reduced = _sweep(doubled, target, rounding)
    if any((v + 1) % 2 for v in reduced):
        raise AssertionError("half-shift sweep lost the odd parity")
    return [(v + 1) // 2 for v in reduced]
