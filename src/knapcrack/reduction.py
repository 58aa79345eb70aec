"""Solution shortening: size-reduce a particular solution by the kernel basis.

Both sweeps are Babai's nearest-plane size reduction of the target row
against the kernel vectors (rows of (D | x)^T), run in the same integral
Gram-Schmidt state as the LLL kernel: ``d[i]`` and ``lam = mu * d[j+1]``,
with the target appended as one extra row of the same recurrence.  The
sweep walks the target's coefficients from the last kernel vector down to
the first, picking the nearest-integer multiple q_j and clearing it from
the remaining coefficients in closed form (``lam_t[i] -= q_j * lam[j][i]``)
and ``q_j * D_j`` from the target, with the LLL loop's own column update;
all arithmetic is exact integer.  The result differs from x by a kernel
vector, so it solves the same system.

The GSO of D is the one LLL ended with, which the ``KernelDecomposition``
keeps for its contract (``kd.gso``).

The half-shift variant is the sweep of (2D | 2x - 1): doubling the kernel
and centering the target on the all-half point steers the sweep toward
binary solutions; the final row is odd in every coordinate, so adding 1
and halving is exact.  It runs on D's own GSO with step 2.  Against 2D the
target's coefficients are mu/2 and the nearest multiple of 2D_j is
round(mu_j / 2), so q = round(lam_t[j] / (2 d[j+1])) with lam_t taken
against D, and the sweep subtracts 2q * D_j and 2q * lam[j]: the same q's,
and the same vector, as the doubled basis gives.

The sweep is the ``sweep`` entry of the kernel ``lattice`` chose (its
module docstring): the C extension's, which runs on the LLL loop's own
state with the target as one more column, or its Python twin,
``lattice._python_sweep``.  Both return the same vector on every input;
the target's length is checked here against D's columns, before either
runs (an empty kernel has none, and leaves any target as it is), and the
half shift's parity check and undoing stay here too.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .formulations import KernelDecomposition
from .lattice import _native


def _run_sweep(kd: KernelDecomposition, target: list[int], step: int) -> list[int]:
    """Subtract nearest multiples of step * D_j from target, j from last to
    first, in the kernel's sweep (module docstring)."""
    cols = kd.kernel_columns
    if cols and len(target) != len(cols[0]):
        raise DimensionMismatch(f"matrix width != vector length {len(target)}")
    return _native().sweep(cols, *kd.gso, target, step)


def reduce_solution(x_b, kd: KernelDecomposition) -> list[int]:
    """Shorten an integer solution x_b by the kernel basis D of kd.

    The result differs from x_b by a kernel vector.
    """
    return _run_sweep(kd, [int(v) for v in x_b], 1)


def reduce_half(x_b, kd: KernelDecomposition) -> list[int]:
    """Half-shifted variant: sweep (2D | 2x_b - 1), then undo the shift."""
    reduced = _run_sweep(kd, [2 * int(v) - 1 for v in x_b], 2)
    if any((v + 1) % 2 for v in reduced):
        raise AssertionError("half-shift sweep lost the odd parity")
    return [(v + 1) // 2 for v in reduced]
