"""Kernel geometry features against the worked fixtures and closed forms."""

import csv
import math
import random
import warnings

import numpy as np
import pytest

from knapcrack.analysis import (FeatureRecord, _off_diagonal, compute_features,
                                export_features_csv, gamma, lambda_tilde,
                                lattice_volume, min_volume_ellipsoid)
from knapcrack.cli import main
from knapcrack.errors import DependentColumns
from knapcrack.formulations import KernelDecomposition, decompose
from knapcrack.intmat import gram
from knapcrack.pipeline import generate_system
from knapcrack.problems import LdeSystem, save_system

from oracles import kernel_of, project_preserving_gram

# Golden fixtures: reduced kernel bases of three disaggregation scenarios
# of one 2x6 system; rows are coordinates, columns are basis vectors.
D_SCEN_A = [[-1, 1, 0, -5], [0, -1, -9, 5], [-1, 4, -3, 5], [1, 1, 5, 2],
            [-2, -8, 4, 4], [1, -4, -1, 0], [1, -1, 0, 5], [1, -4, 3, 5]]
D_SCEN_B = [[-1, -2, -6, -6], [0, 1, -4, 5], [-1, -5, 1, 4], [1, 0, 8, 3],
            [-2, 6, 6, 2], [1, 5, 0, 1], [0, 1, 1, 6], [0, 2, 0, 5]]
D_SCEN_C = [[1, -3, -5, -7], [0, 1, -5, 5], [1, -6, 5, 3], [-1, 1, 9, 4],
            [2, 4, -2, 0], [-1, 6, -4, 2], [0, 1, 0, 6], [2, 1, 2, 4]]

GAMMA_TABLE = {2: 1.5708, 3: 2.7207, 4: 4.9348, 5: 9.1955, 6: 17.4410, 7: 33.4976}


def random_kernel(rng, dim_hi=5):
    n = rng.randint(2, dim_hi)
    s = rng.randint(1, n)
    while True:
        D = [[rng.randint(-9, 9) for _ in range(s)] for _ in range(n + 2)]
        try:
            lattice_volume(kernel_of(D))
            return D
        except DependentColumns:
            continue


class TestVolume:
    def test_worked_scenario_volumes(self):
        # Golden volume figures are quoted truncated to integers.
        assert int(lattice_volume(kernel_of(D_SCEN_A))) == 4112
        assert int(lattice_volume(kernel_of(D_SCEN_B))) == 3621
        assert int(lattice_volume(kernel_of(D_SCEN_C))) == 4493

    def test_identity(self):
        assert lattice_volume(kernel_of([[1, 0], [0, 1]])) == 1.0

    @pytest.mark.parametrize("m, n, seed", [(1, 10, 0), (2, 12, 1), (3, 14, 2)])
    def test_decomposition_volume_is_plain_volume(self, m, n, seed):
        # The decomposition's GSO gives the same exact volume as D itself.
        kd = decompose(generate_system(m, n, seed).system)
        assert lattice_volume(kd) == lattice_volume(kernel_of(kd.D))

    def test_gram_determinant_beyond_the_float_range(self):
        # d[s] = 2**1200 + 1 is no square, and a float holds it only as inf;
        # its root, about 2**600, is a float.
        kd = KernelDecomposition(D=((2**600,), (1,)), C=((0,), (1,)), E=((1,),), N_used=1,
                                 gso=([1, 2**1200 + 1], [[]]))
        assert lattice_volume(kd) == 2.0**600
        assert compute_features(kd).volume == 2.0**600

    def test_volume_beyond_the_float_range_is_inf(self):
        # d[s] = 2**2200 + 1: its root, about 2**1100, is no float.
        assert lattice_volume(kernel_of([[2**1100], [1]])) == math.inf
        assert lattice_volume(kernel_of([[2**1100, 0], [0, 1]])) == math.inf  # a square

    def test_analyze_writes_an_infinite_volume(self, tmp_path):
        # 1100-bit coefficients give a kernel volume of about 2**1100.
        rng = random.Random(5)
        a = [rng.getrandbits(1100) | 1 << 1099 for _ in range(6)]
        path, out = tmp_path / "huge.txt", tmp_path / "huge.csv"
        save_system(LdeSystem.from_rows([a], [a[0] + a[2] + a[3]]), path)
        assert main(["analyze", "--input", str(path), "--modulus", "1000",
                     "--t-range", "1..2", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["volume"] for row in rows] == ["inf", "inf"]
        # inf / inf would be nan; the ratio comes from the exact d[s] instead.
        assert all(abs(float(row["gamma_check"]) - 1) < 1e-9 for row in rows)


class TestProjection:
    def test_column_norms_preserved(self):
        D = [[3, 0], [0, 4], [0, 0]]
        S = project_preserving_gram(D)
        norms = sorted(np.linalg.norm(S, axis=0))
        assert norms == pytest.approx([3.0, 4.0])

    def test_gram_preserved_on_worked_basis(self):
        S = project_preserving_gram(D_SCEN_A)
        G = np.array(D_SCEN_A).T @ np.array(D_SCEN_A)
        assert np.allclose(S.T @ S, G, rtol=1e-9, atol=1e-6)

    def test_gram_preserved_random(self):
        rng = random.Random(0)
        for _ in range(20):
            D = random_kernel(rng)
            S = project_preserving_gram(D)
            G = np.array(D).T @ np.array(D)
            assert np.allclose(S.T @ S, G, rtol=1e-9, atol=1e-6)

    def test_angles_preserved(self):
        rng = random.Random(1)
        for _ in range(10):
            D = random_kernel(rng)
            S = project_preserving_gram(D)
            M = np.array(D, dtype=float)
            for i in range(M.shape[1]):
                for j in range(i):
                    lhs = M[:, i] @ M[:, j] / (np.linalg.norm(M[:, i]) * np.linalg.norm(M[:, j]))
                    rhs = S[:, i] @ S[:, j] / (np.linalg.norm(S[:, i]) * np.linalg.norm(S[:, j]))
                    assert lhs == pytest.approx(rhs, abs=1e-9)


class TestMve:
    def test_scenario_a_semi_axes(self):
        mve = min_volume_ellipsoid(kernel_of(D_SCEN_A))
        for got, want in zip(mve.semi_axes, (13.4214, 12.6793, 7.8505, 3.0782)):
            assert got == pytest.approx(want, abs=1e-2)
        assert mve.volume == pytest.approx(20294, rel=5e-3)

    def test_scenario_c_semi_axes(self):
        mve = min_volume_ellipsoid(kernel_of(D_SCEN_C))
        for got, want in zip(mve.semi_axes, (15.1941, 12.4433, 7.1633, 3.3181)):
            assert got == pytest.approx(want, abs=1e-2)
        assert mve.volume == pytest.approx(22176, rel=5e-3)

    def test_unit_square(self):
        mve = min_volume_ellipsoid(kernel_of([[1, 0], [0, 1]]))
        assert mve.semi_axes == pytest.approx((math.sqrt(2) / 2, math.sqrt(2) / 2))
        assert mve.volume == pytest.approx(math.pi / 2)
        assert mve.center == pytest.approx((0.5, 0.5))

    def test_semi_axes_are_scaled_singular_values(self):
        rng = random.Random(2)
        for _ in range(20):
            D = random_kernel(rng)
            s = len(D[0])
            sv = np.linalg.svd(np.array(D, dtype=float), compute_uv=False)
            mve = min_volume_ellipsoid(kernel_of(D))
            assert list(mve.semi_axes) == pytest.approx(
                sorted((math.sqrt(s) / 2 * v for v in sv), reverse=True), rel=1e-9)

    def test_volume_identity_random(self):
        rng = random.Random(3)
        for _ in range(100):
            D = random_kernel(rng)
            mve = min_volume_ellipsoid(kernel_of(D))
            s = len(D[0])
            assert mve.volume == pytest.approx(gamma(s) * lattice_volume(kernel_of(D)),
                                               rel=1e-6)


class TestGamma:
    @pytest.mark.parametrize("s,want", sorted(GAMMA_TABLE.items()))
    def test_tabulated(self, s, want):
        assert gamma(s) == pytest.approx(want, abs=1e-3)

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            gamma(0)


class TestRectangularity:
    """The feature columns d and d_tilde: Gram off-diagonal distances."""

    def test_orthogonal_columns_zero(self):
        f = compute_features(kernel_of([[2, 0], [0, 5]]))
        assert f.d == 0.0
        assert f.d_tilde == 0.0

    def test_worked_two_by_two(self):
        f = compute_features(kernel_of([[1, 1], [0, 1]]))
        assert f.d == pytest.approx(math.sqrt(2))
        assert f.d_tilde == pytest.approx(1.0)

    def test_zero_iff_orthogonal(self):
        rng = random.Random(4)
        for _ in range(30):
            D = random_kernel(rng)
            g = np.array(D).T @ np.array(D)
            off = g - np.diag(np.diag(g))
            d = compute_features(kernel_of(D)).d
            assert (d == 0) == (not np.any(off))
            assert math.isclose(d, np.linalg.norm(off),
                                rel_tol=1e-12, abs_tol=1e-12)

    def test_beyond_the_float_range(self):
        # Gram off-diagonals 2**600 and 2**1200: squared, both exceed the float range.
        assert _off_diagonal(gram([[2**300, 1], [2**300, 0]])) == pytest.approx(2**600.5)
        kd = kernel_of([[2**600, 2**600], [1, 0]])
        assert _off_diagonal(gram(kd.kernel_columns)) == math.inf
        assert compute_features(kd).d == math.inf

    def test_invariances(self):
        D = [[3, 1, 2], [1, 4, 1], [0, 2, 5], [1, 1, 1]]
        base = compute_features(kernel_of(D)).d
        flipped = [[-r[0], r[1], -r[2]] for r in D]
        assert compute_features(kernel_of(flipped)).d == pytest.approx(base)
        permuted = [[r[2], r[0], r[1]] for r in D]
        assert compute_features(kernel_of(permuted)).d == pytest.approx(base)
        scaled = [[7 * r[0], r[1], r[2]] for r in D]
        assert compute_features(kernel_of(scaled)).d_tilde == pytest.approx(
            compute_features(kernel_of(D)).d_tilde)


class TestLambdaTilde:
    def test_orthogonal_is_one(self):
        assert lambda_tilde(kernel_of([[2, 0], [0, 9]])) == pytest.approx(1.0)

    def test_nearly_parallel_blows_up(self):
        # (1, 0) against (20, 1): angle ~ 0.05 rad, ratio far above 10.
        assert lambda_tilde(kernel_of([[1, 20], [0, 1]])) > 10

    def test_regression_fixture(self):
        # Frozen from the closed form on the worked scenario basis.
        assert lambda_tilde(kernel_of(D_SCEN_A)) == pytest.approx(1.7900900554, abs=1e-6)

    def test_huge_entry(self):
        # The column (2**600, 1) squares past the float range unless scaled first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lambda_tilde(kernel_of([[2**600], [1]])) == 1.0


class TestCsvExport:
    def _record(self, ident, t, M, D, cut, success):
        return FeatureRecord(instance_id=ident, m=2, n=6, t=t, M=M,
                             features=compute_features(kernel_of(D), cut=cut,
                                                       success=success))

    def test_empty_records_header_only(self, tmp_path):
        out = tmp_path / "features.csv"
        export_features_csv([], out)
        assert out.read_text(encoding="utf-8").strip() == ("instance_id,m,n,t,M,kernel_dim,volume,"
                                          "mve_volume,gamma_check,lambda_tilde,"
                                          "d,d_tilde,cut,success")

    def test_worked_scenarios_rows(self, tmp_path):
        out = tmp_path / "features.csv"
        export_features_csv([
            self._record("ex3", 22, 51, D_SCEN_A, False, True),
            self._record("ex3", 36, 51, D_SCEN_B, False, False),
            self._record("ex3", 49, 51, D_SCEN_C, True, True),
        ], out)
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 4
        vols = [int(float(line.split(",")[6])) for line in lines[1:]]
        assert vols == [4112, 3621, 4493]

    def test_row_count_matches_scenarios(self, tmp_path):
        rng = random.Random(5)
        records = [self._record(f"i{k}", k + 1, 100, random_kernel(rng), False, False)
                   for k in range(7)]
        out = tmp_path / "features.csv"
        export_features_csv(records, out)
        assert len(out.read_text(encoding="utf-8").strip().splitlines()) == 8
