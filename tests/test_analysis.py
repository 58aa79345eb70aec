"""Kernel geometry features against the worked fixtures and closed forms."""

import io
import math
import random

import numpy as np
import pytest

from knapcrack.analysis import (FeatureRecord, compute_features,
                                export_features_csv, gamma, lambda_tilde,
                                lattice_volume, min_volume_ellipsoid)
from knapcrack.errors import RankDeficient
from knapcrack.formulations import decompose
from knapcrack.pipeline import generate_system

from oracles import project_preserving_gram

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
            lattice_volume(D)
            return D
        except RankDeficient:
            continue


class TestVolume:
    def test_worked_scenario_volumes(self):
        # Golden volume figures are quoted truncated to integers.
        assert int(lattice_volume(D_SCEN_A)) == 4112
        assert int(lattice_volume(D_SCEN_B)) == 3621
        assert int(lattice_volume(D_SCEN_C)) == 4493

    def test_identity(self):
        assert lattice_volume([[1, 0], [0, 1]]) == 1.0

    @pytest.mark.parametrize("m, n, seed", [(1, 10, 0), (2, 12, 1), (3, 14, 2)])
    def test_decomposition_volume_is_plain_volume(self, m, n, seed):
        # The decomposition's GSO gives the same exact volume as D itself.
        kd = decompose(generate_system(m, n, seed).system)
        assert lattice_volume(kd) == lattice_volume([list(r) for r in kd.D])

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            lattice_volume([[1, 2], [2, 4], [3, 6]])


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
        mve = min_volume_ellipsoid(D_SCEN_A)
        for got, want in zip(mve.semi_axes, (13.4214, 12.6793, 7.8505, 3.0782)):
            assert got == pytest.approx(want, abs=1e-2)
        assert mve.volume == pytest.approx(20294, rel=5e-3)

    def test_scenario_c_semi_axes(self):
        mve = min_volume_ellipsoid(D_SCEN_C)
        for got, want in zip(mve.semi_axes, (15.1941, 12.4433, 7.1633, 3.3181)):
            assert got == pytest.approx(want, abs=1e-2)
        assert mve.volume == pytest.approx(22176, rel=5e-3)

    def test_unit_square(self):
        mve = min_volume_ellipsoid([[1, 0], [0, 1]])
        assert mve.semi_axes == pytest.approx((math.sqrt(2) / 2, math.sqrt(2) / 2))
        assert mve.volume == pytest.approx(math.pi / 2)
        assert mve.center == pytest.approx((0.5, 0.5))

    def test_semi_axes_are_scaled_singular_values(self):
        rng = random.Random(2)
        for _ in range(20):
            D = random_kernel(rng)
            s = len(D[0])
            sv = np.linalg.svd(np.array(D, dtype=float), compute_uv=False)
            mve = min_volume_ellipsoid(D)
            assert list(mve.semi_axes) == pytest.approx(
                sorted((math.sqrt(s) / 2 * v for v in sv), reverse=True), rel=1e-9)

    def test_volume_identity_random(self):
        rng = random.Random(3)
        for _ in range(100):
            D = random_kernel(rng)
            mve = min_volume_ellipsoid(D)
            s = len(D[0])
            assert mve.volume == pytest.approx(gamma(s) * lattice_volume(D), rel=1e-6)


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
        f = compute_features([[2, 0], [0, 5]])
        assert f.d == 0.0
        assert f.d_tilde == 0.0

    def test_worked_two_by_two(self):
        f = compute_features([[1, 1], [0, 1]])
        assert f.d == pytest.approx(math.sqrt(2))
        assert f.d_tilde == pytest.approx(1.0)

    def test_zero_iff_orthogonal(self):
        rng = random.Random(4)
        for _ in range(30):
            D = random_kernel(rng)
            g = np.array(D).T @ np.array(D)
            off = g - np.diag(np.diag(g))
            d = compute_features(D).d
            assert (d == 0) == (not np.any(off))
            assert math.isclose(d, np.linalg.norm(off),
                                rel_tol=1e-12, abs_tol=1e-12)

    def test_invariances(self):
        D = [[3, 1, 2], [1, 4, 1], [0, 2, 5], [1, 1, 1]]
        base = compute_features(D).d
        flipped = [[-r[0], r[1], -r[2]] for r in D]
        assert compute_features(flipped).d == pytest.approx(base)
        permuted = [[r[2], r[0], r[1]] for r in D]
        assert compute_features(permuted).d == pytest.approx(base)
        scaled = [[7 * r[0], r[1], r[2]] for r in D]
        assert compute_features(scaled).d_tilde == pytest.approx(
            compute_features(D).d_tilde)


class TestLambdaTilde:
    def test_orthogonal_is_one(self):
        assert lambda_tilde([[2, 0], [0, 9]]) == pytest.approx(1.0)

    def test_nearly_parallel_blows_up(self):
        # (1, 0) against (20, 1): angle ~ 0.05 rad, ratio far above 10.
        assert lambda_tilde([[1, 20], [0, 1]]) > 10

    def test_regression_fixture(self):
        # Frozen from the closed form on the worked scenario basis.
        assert lambda_tilde(D_SCEN_A) == pytest.approx(1.7900900554, abs=1e-6)


class TestCsvExport:
    def _record(self, ident, t, M, D, cut, success):
        return FeatureRecord(instance_id=ident, m=2, n=6, t=t, M=M,
                             features=compute_features(D, cut=cut, success=success))

    def test_empty_records_header_only(self):
        buf = io.StringIO()
        export_features_csv([], buf)
        assert buf.getvalue().strip() == ("instance_id,m,n,t,M,kernel_dim,volume,"
                                          "mve_volume,gamma_check,lambda_tilde,"
                                          "d,d_tilde,cut,success")

    def test_worked_scenarios_rows(self):
        buf = io.StringIO()
        export_features_csv([
            self._record("ex3", 22, 51, D_SCEN_A, False, True),
            self._record("ex3", 36, 51, D_SCEN_B, False, False),
            self._record("ex3", 49, 51, D_SCEN_C, True, True),
        ], buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 4
        vols = [int(float(line.split(",")[6])) for line in lines[1:]]
        assert vols == [4112, 3621, 4493]

    def test_row_count_matches_scenarios(self):
        rng = random.Random(5)
        records = [self._record(f"i{k}", k + 1, 100, random_kernel(rng), False, False)
                   for k in range(7)]
        buf = io.StringIO()
        export_features_csv(records, buf)
        assert len(buf.getvalue().strip().splitlines()) == 8
