"""Kernel-lattice geometry features and their CSV export.

The features quantify how "rectangular" a kernel basis is: lattice volume
(the exact Gram determinant d[s] of the integral Gram-Schmidt, which a
KernelDecomposition already holds), the minimum-volume ellipsoid of the
fundamental parallelepiped, the max/min semi-axis ratio after column
normalization, and Frobenius distances of the Gram matrix from
diagonality.  The MVE is obtained in closed form: enclosing ellipsoids
commute with invertible linear maps, so the MVE of D [0,1]^s is the image
of the cube's circumscribed ball, with center D (1/2,...,1/2) and
semi-axes (sqrt(s)/2) * sigma_i over the singular values sigma_i of D.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ._lll_py import integral_gso
from .errors import DependentColumns, RankDeficient
from .formulations import KernelDecomposition, kernel_columns
# det_bareiss is not called here; perfbench/layers.py wraps analysis.det_bareiss by name.
from .intmat import det_bareiss, gram  # noqa: F401


def _float_matrix(D) -> np.ndarray:
    cols = kernel_columns(D)
    return np.array(cols, dtype=float).T


def _gram_det(D) -> int:
    """det(D^T D) > 0, as d[s] of the integral GSO of D's columns.

    A KernelDecomposition brings its GSO; a plain matrix gets one
    integral_gso.  Raises RankDeficient when the columns are dependent.
    """
    try:
        d, _ = D.gso if isinstance(D, KernelDecomposition) else integral_gso(kernel_columns(D))
    except DependentColumns:
        raise RankDeficient("columns are not of full rank") from None
    return d[-1]


def lattice_volume(D) -> float:
    """sqrt(det(D^T D)): the exact integer Gram determinant, rooted last."""
    det = _gram_det(D)
    root = math.isqrt(det)
    if root * root == det:
        return float(root)
    return math.sqrt(det)


@dataclass(frozen=True)
class Ellipsoid:
    semi_axes: tuple[float, ...]
    volume: float
    center: tuple[float, ...]


def _unit_ball_volume(s: int) -> float:
    return math.pi ** (s / 2) / math.gamma(s / 2 + 1)


def min_volume_ellipsoid(D) -> Ellipsoid:
    """MVE of the fundamental parallelepiped {D z : z in [0,1]^s}."""
    _gram_det(D)  # rank guard: raises RankDeficient
    mat = _float_matrix(D)
    s = mat.shape[1]
    sing = np.linalg.svd(mat, compute_uv=False)
    semi = tuple(sorted((float(math.sqrt(s) / 2 * v) for v in sing), reverse=True))
    volume = float(np.prod(semi)) * _unit_ball_volume(s)
    center = tuple(float(v) / 2 for v in mat.sum(axis=1))
    return Ellipsoid(semi_axes=semi, volume=volume, center=center)


def gamma(s: int) -> float:
    """MVE volume over lattice volume: a constant for each dimension s."""
    if s < 1:
        raise ValueError(f"dimension must be >= 1, got {s}")
    return s ** (s / 2) / 2 ** (s - 1) / s * math.pi ** (s / 2) / math.gamma(s / 2)


def lambda_tilde(D) -> float:
    """Max/min MVE semi-axis ratio after normalizing every column to length 1."""
    _gram_det(D)  # rank guard: raises RankDeficient
    mat = _float_matrix(D)
    mat = mat / np.linalg.norm(mat, axis=0)
    sing = np.linalg.svd(mat, compute_uv=False)
    return float(sing[0] / sing[-1])


def rect_distance(D) -> float:
    """Frobenius distance of D^T D from the nearest nonnegative diagonal.

    The optimum puts the Gram diagonal on the diagonal, so the distance is
    the Frobenius norm of the off-diagonal part.
    """
    return _off_diagonal(gram(kernel_columns(D)))


def rect_distance_normalized(D) -> float:
    """rect_distance of the column-normalized basis (scale invariant)."""
    return _off_diagonal_normalized(gram(kernel_columns(D)))


def _off_diagonal(g: list[list[int]]) -> float:
    s = len(g)
    total = sum(g[i][j] ** 2 for i in range(s) for j in range(s) if i != j)
    return math.sqrt(total)


def _off_diagonal_normalized(g: list[list[int]]) -> float:
    s = len(g)
    total = 0.0
    for i in range(s):
        for j in range(s):
            if i != j:
                total += g[i][j] ** 2 / (g[i][i] * g[j][j])
    return math.sqrt(total)


@dataclass(frozen=True)
class KernelFeatures:
    """Geometry of one kernel basis plus the cut/success labels."""

    dim: int
    volume: float
    semi_axes: tuple[float, ...]
    mve_volume: float
    lambda_tilde: float
    d: float
    d_tilde: float
    cut: bool
    success: bool


def compute_features(D, cut: bool = False, success: bool = False) -> KernelFeatures:
    vol = lattice_volume(D)
    mve = min_volume_ellipsoid(D)
    g = gram(kernel_columns(D))
    return KernelFeatures(
        dim=len(mve.semi_axes),
        volume=vol,
        semi_axes=mve.semi_axes,
        mve_volume=mve.volume,
        lambda_tilde=lambda_tilde(D),
        d=_off_diagonal(g),
        d_tilde=_off_diagonal_normalized(g),
        cut=cut,
        success=success,
    )


@dataclass(frozen=True)
class FeatureRecord:
    """One (instance, t, M) scenario row for the regression export."""

    instance_id: str
    m: int
    n: int
    t: int
    M: int
    features: KernelFeatures


def export_features_csv(records, out) -> None:
    """Write one row per scenario; semi-axis columns padded to the widest."""
    records = list(records)
    s_max = max((r.features.dim for r in records), default=0)
    header = (["instance_id", "m", "n", "t", "M", "kernel_dim", "volume",
               "mve_volume", "gamma_check"]
              + [f"ax{i + 1}" for i in range(s_max)]
              + ["lambda_tilde", "d", "d_tilde", "cut", "success"])

    def write(fh) -> None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for r in records:
            f = r.features
            axes = [repr(a) for a in f.semi_axes] + [""] * (s_max - f.dim)
            w.writerow([r.instance_id, r.m, r.n, r.t, r.M, f.dim,
                        repr(f.volume), repr(f.mve_volume),
                        repr(f.mve_volume / (gamma(f.dim) * f.volume))]
                       + axes
                       + [repr(f.lambda_tilde), repr(f.d), repr(f.d_tilde),
                          int(f.cut), int(f.success)])

    if hasattr(out, "write"):
        write(out)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write(fh)
