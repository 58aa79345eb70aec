"""knapcrack: lattice attacks on subset-sum problems and binary LDE systems.

Combines exact-arithmetic LLL reduction, a simplified kernel/particular-
solution lattice formulation, solution-shortening sweeps, and modular
disaggregation with jump-point analysis.
"""

from .lattice import LatticeBasis, lll, kernel_name

__all__ = [
    "LatticeBasis",
    "lll",
    "kernel_name",
]

__version__ = "0.1.0"
