"""Kernel-lattice geometry features and their CSV export.

The features quantify how "rectangular" the kernel basis D of a
KernelDecomposition is: lattice volume (the exact Gram determinant d[s]
of the integral Gram-Schmidt the decomposition already holds), the
minimum-volume ellipsoid of the fundamental parallelepiped, the max/min
semi-axis ratio after column normalization, and Frobenius distances of
the Gram matrix from diagonality.  The MVE is obtained in closed form:
enclosing ellipsoids commute with invertible linear maps, so the MVE of
D [0,1]^s is the image of the cube's circumscribed ball, with center
D (1/2,...,1/2) and semi-axes (sqrt(s)/2) * sigma_i over the singular
values sigma_i of D.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .formulations import KernelDecomposition
# det_bareiss is not called here; perfbench/layers.py wraps analysis.det_bareiss by name.
from .intmat import det_bareiss, gram  # noqa: F401


def _float_matrix(kd: KernelDecomposition) -> np.ndarray:
    return np.array(kd.kernel_columns, dtype=float).T


def _root(x: int) -> float:
    """sqrt of an int x >= 0 of any size, inf beyond the float range.

    math.sqrt(x) converts x to float, which overflows from 2**1024 on: root
    x / 4**k instead, with k bringing it below 2**1000 (k = 0 below)."""
    k = max(0, x.bit_length() - 1000) // 2
    try:
        return math.ldexp(math.sqrt(x >> 2 * k), k)
    except OverflowError:
        return math.inf


def lattice_volume(kd: KernelDecomposition) -> float:
    """sqrt(det(D^T D)): the exact Gram determinant d[s] of kd's GSO, rooted last.

    A perfect square's exact root is converted once; inf when the volume
    itself exceeds the float range.
    """
    det = kd.gso[0][-1]
    root = math.isqrt(det)
    if root * root == det and root.bit_length() <= 1000:
        return float(root)
    return _root(det)


@dataclass(frozen=True)
class Ellipsoid:
    semi_axes: tuple[float, ...]
    volume: float
    center: tuple[float, ...]


def _unit_ball_volume(s: int) -> float:
    return math.pi ** (s / 2) / math.gamma(s / 2 + 1)


def min_volume_ellipsoid(kd: KernelDecomposition) -> Ellipsoid:
    """MVE of the fundamental parallelepiped {D z : z in [0,1]^s}."""
    mat = _float_matrix(kd)
    s = mat.shape[1]
    sing = np.linalg.svd(mat, compute_uv=False)
    semi = tuple(sorted((float(math.sqrt(s) / 2 * v) for v in sing), reverse=True))
    with np.errstate(over="ignore"):  # inf when the volume exceeds the float range
        volume = float(np.prod(semi)) * _unit_ball_volume(s)
    center = tuple(float(v) / 2 for v in mat.sum(axis=1))
    return Ellipsoid(semi_axes=semi, volume=volume, center=center)


def gamma(s: int) -> float:
    """MVE volume over lattice volume: a constant for each dimension s."""
    if s < 1:
        raise ValueError(f"dimension must be >= 1, got {s}")
    return s ** (s / 2) / 2 ** (s - 1) / s * math.pi ** (s / 2) / math.gamma(s / 2)


def lambda_tilde(kd: KernelDecomposition) -> float:
    """Max/min MVE semi-axis ratio after normalizing every column to length 1."""
    mat = _float_matrix(kd)
    # Scaling by powers of two first keeps the squares finite and every bit.
    mat = np.ldexp(mat, -np.frexp(np.abs(mat).max(axis=0))[1])
    mat = mat / np.linalg.norm(mat, axis=0)
    sing = np.linalg.svd(mat, compute_uv=False)
    return float(sing[0] / sing[-1])


def _off_diagonal(g: list[list[int]]) -> tuple[float, float]:
    """Frobenius distances of the Gram matrix g from the nearest nonnegative
    diagonal: D's, and the column-normalized basis's (scale invariant).

    The optimum puts the Gram diagonal on the diagonal, so each distance is
    the Frobenius norm of the off-diagonal part.  One walk over g, row by
    row, sums both: D's exactly, the normalized one in floats in that order.
    """
    diag = [row[i] for i, row in enumerate(g)]
    exact, normalized = 0, 0.0
    for i, (row, gi) in enumerate(zip(g, diag)):
        for j, (x, gj) in enumerate(zip(row, diag)):
            if i != j:
                square = x * x
                exact += square
                normalized += square / (gi * gj)
    return _root(exact), math.sqrt(normalized)


@dataclass(frozen=True)
class KernelFeatures:
    """Geometry of one kernel basis plus the cut/success labels."""

    dim: int
    volume: float
    semi_axes: tuple[float, ...]
    mve_volume: float
    gamma_check: float
    lambda_tilde: float
    d: float
    d_tilde: float
    cut: bool
    success: bool


def compute_features(kd: KernelDecomposition, cut: bool = False,
                     success: bool = False) -> KernelFeatures:
    vol = lattice_volume(kd)
    mve = min_volume_ellipsoid(kd)
    s = len(mve.semi_axes)
    check = mve.volume / (gamma(s) * vol)
    if not math.isfinite(check):  # inf / inf beyond the float range: take logs of d[s]
        check = math.exp(sum(map(math.log, mve.semi_axes)) + math.log(_unit_ball_volume(s))
                         - math.log(gamma(s)) - math.log(kd.gso[0][-1]) / 2)
    d, d_tilde = _off_diagonal(gram(kd.kernel_columns))
    return KernelFeatures(
        dim=s,
        volume=vol,
        semi_axes=mve.semi_axes,
        mve_volume=mve.volume,
        gamma_check=check,
        lambda_tilde=lambda_tilde(kd),
        d=d,
        d_tilde=d_tilde,
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


def export_features_csv(records, path) -> None:
    """Write one row per scenario to path; semi-axis columns padded to the widest."""
    records = list(records)
    s_max = max((r.features.dim for r in records), default=0)
    header = (["instance_id", "m", "n", "t", "M", "kernel_dim", "volume",
               "mve_volume", "gamma_check"]
              + [f"ax{i + 1}" for i in range(s_max)]
              + ["lambda_tilde", "d", "d_tilde", "cut", "success"])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for r in records:
            f = r.features
            axes = [repr(a) for a in f.semi_axes] + [""] * (s_max - f.dim)
            w.writerow([r.instance_id, r.m, r.n, r.t, r.M, f.dim,
                        repr(f.volume), repr(f.mve_volume), repr(f.gamma_check)]
                       + axes
                       + [repr(f.lambda_tilde), repr(f.d), repr(f.d_tilde),
                          int(f.cut), int(f.success)])
