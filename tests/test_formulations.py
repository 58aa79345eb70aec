"""Stacked-basis decomposition and the three column-scan attacks."""

import random
from math import gcd

import pytest

from knapcrack.errors import InvalidBigInts, InvalidN, RankDeficient, SingularE
from knapcrack.formulations import (DEFAULT_N, KernelDecomposition, attack_ahl,
                                    attack_cjloss, attack_cjloss_system, attack_lo,
                                    binary_verdict, build_lattice_B, cjloss_basis,
                                    decompose, special_solution, _scan_lo, _scan_pm1)
from knapcrack.intmat import det_bareiss, mat_mul
from knapcrack.pipeline import generate_instance, generate_system
from knapcrack.problems import LdeSystem, SubsetSumInstance

from oracles import gso, hnf_member, hnf_columns, integer_solvable, kernel_basis

TOY_SYS = LdeSystem.from_rows([[3, 15, 6]], [9])


def random_system(rng, m, n, hi=20):
    while True:
        rows = [[rng.randint(1, hi) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(0, 1) for _ in range(n)]
        b = [sum(r[i] * x[i] for i in range(n)) for r in rows]
        if any(v == 0 for v in b):
            continue
        try:
            return LdeSystem.from_rows(rows, b)
        except (RankDeficient, ValueError):
            continue


class TestBuildLattice:
    def test_toy_columns(self):
        basis = build_lattice_B(TOY_SYS, 10)
        assert basis.columns == ((1, 0, 0, 30), (0, 1, 0, 150), (0, 0, 1, 60))

    def test_scale_one_keeps_rows(self):
        sys = LdeSystem.from_rows([[2, 5, 9], [1, 1, 4]], [7, 5])
        basis = build_lattice_B(sys, 1)
        for i in range(sys.m):
            assert tuple(c[sys.n + i] for c in basis.columns) == sys.A[i]

    def test_columns_independent(self):
        rng = random.Random(0)
        for _ in range(10):
            sys = random_system(rng, 2, 5)
            basis = build_lattice_B(sys, 10**8)
            gso(basis.columns)  # raises on dependence


class TestDecompose:
    def test_e_is_extended_gcd(self):
        kd = decompose(TOY_SYS)
        assert kd.E == ((gcd(gcd(3, 15), 6),),)

    def test_blocks_satisfy_relations(self):
        rng = random.Random(1)
        for _ in range(15):
            m = rng.randint(1, 2)
            sys = random_system(rng, m, m + rng.randint(2, 3))
            kd = decompose(sys)
            a = [list(r) for r in sys.A]
            assert all(v == 0 for row in mat_mul(a, [list(r) for r in kd.D]) for v in row)
            assert mat_mul(a, [list(r) for r in kd.C]) == [list(r) for r in kd.E]
            assert det_bareiss(kd.unimodular_part()) in (1, -1)
            # full row rank going in, so the E block must be invertible
            assert det_bareiss([list(r) for r in kd.E]) != 0

    def test_kernel_lattice_matches_hnf_oracle(self):
        rng = random.Random(2)
        for _ in range(15):
            m = rng.randint(1, 2)
            n = m + rng.randint(2, 3)
            sys = random_system(rng, m, n, hi=20)
            kd = decompose(sys)
            ours = kd.kernel_columns()
            theirs = kernel_basis([list(r) for r in sys.A])
            h_ours = hnf_columns([[c[i] for c in ours] for i in range(n)])
            h_theirs = hnf_columns([[c[i] for c in theirs] for i in range(n)])
            assert h_ours == h_theirs
            for col in ours:
                assert hnf_member(h_theirs, col)
            for col in theirs:
                assert hnf_member(h_ours, col)


class TestSpecialSolution:
    def test_toy_has_integral_solution(self):
        kd = decompose(TOY_SYS)
        x = special_solution(kd, [9])
        assert x is not None and sum(a * v for a, v in zip([3, 15, 6], x)) == 9

    def test_parity_obstruction(self):
        kd = decompose(LdeSystem.from_rows([[2, 4]], [3]))
        assert kd.E == ((2,),)
        assert special_solution(kd, [3]) is None

    def test_zero_rhs(self):
        kd = decompose(TOY_SYS)
        assert special_solution(kd, [0]) == [0, 0, 0]

    def test_singular_e_rejected(self):
        kd = KernelDecomposition(D=((1,), (0,), (0,)), C=((0, 0), (1, 0), (0, 1)),
                                 E=((1, 2), (2, 4)), N_used=1)
        with pytest.raises(SingularE):
            special_solution(kd, [1, 2])

    def test_presence_matches_solvability_oracle(self):
        rng = random.Random(3)
        for _ in range(25):
            m = rng.randint(1, 2)
            sys = random_system(rng, m, m + 2, hi=20)
            kd = decompose(sys)
            b = [rng.randint(1, 40) for _ in range(m)]
            ours = special_solution(kd, b) is not None
            assert ours == integer_solvable([list(r) for r in sys.A], b)


class TestScans:
    def test_lo_scan_accepts_negative_lambda(self):
        cols = [[0, -3, 0, -3, 0], [1, 2, 3, 4, 0]]
        hits = list(_scan_lo(cols, 4))
        assert hits == [(0, -3, [0, 1, 0, 1])]

    def test_lo_scan_requires_zero_tail(self):
        assert list(_scan_lo([[1, 1, 0, 5]], 3)) == []

    def test_pm1_scan_tests_both_signs(self):
        cols = [[1, -1, 1, 0]]
        hits = list(_scan_pm1(cols, 3))
        assert ([1, 0, 1] in [h[1] for h in hits]
                and [0, 1, 0] in [h[1] for h in hits])


class TestAttacks:
    def test_cjloss_toy(self):
        verdict = attack_cjloss(SubsetSumInstance.from_coeffs([3, 15, 6], 9))
        assert verdict.solved and verdict.x == (1, 0, 1)

    def test_cjloss_n_validation(self):
        with pytest.raises(InvalidN):
            attack_cjloss(SubsetSumInstance.from_coeffs([3, 15, 6], 9), N=0)

    def test_lo_seeded_batch_verified(self):
        solved = 0
        for seed in range(10):
            gen = generate_instance(16, seed)
            verdict = attack_lo(gen.instance)
            if verdict.solved:
                solved += 1
                assert gen.instance.is_solution(verdict.x)
        assert solved >= 1

    def test_cjloss_complement_fallback_used(self):
        # b above sum/2 forces the flip; scan metadata records it.
        inst = SubsetSumInstance.from_coeffs([3, 15, 6], 15)
        verdict = attack_cjloss(inst)
        assert verdict.solved
        assert inst.is_solution(verdict.x)

    def test_ahl_returns_integer_solution(self):
        for seed in range(5):
            gen = generate_instance(12, seed)
            verdict = attack_ahl(gen.instance.as_system())
            if verdict.x is not None:
                assert gen.instance.as_system().is_solution(verdict.x)

    def test_ahl_n2_validation(self):
        with pytest.raises(InvalidBigInts):
            attack_ahl(TOY_SYS, N1=10, N2=100)

    def test_ahl_multirow(self):
        gen = generate_system(2, 10, 4)
        verdict = attack_ahl(gen.system)
        if verdict.x is not None:
            assert gen.system.is_solution(verdict.x)

    def test_cjloss_system_multirow(self):
        gen = generate_system(2, 10, 5)
        verdict = attack_cjloss_system(gen.system)
        if verdict.solved:
            assert gen.system.is_solution(verdict.x)

    @pytest.mark.parametrize("rows,b", [([[1, 20, 6, 15]], [21]),
                                        ([[1, 20, 6, 15], [3, 5, 2, 6]], [21, 8])])
    def test_cjloss_half_sum(self, rows, b):
        # 2b = A 1 makes the n + 1 CJLOSS generators dependent; the basis
        # must still span their lattice.
        sys = LdeSystem.from_rows(rows, b)
        n, N = sys.n, DEFAULT_N
        gens = [[2 * (i == j) for i in range(n)] + [2 * N * r[j] for r in rows]
                for j in range(n)] + [[1] * n + [2 * N * v for v in b]]
        basis = cjloss_basis(sys, N)
        gso(basis.columns)  # raises on dependence
        assert hnf_columns([list(r) for r in zip(*basis.columns)]) == \
            hnf_columns([list(r) for r in zip(*gens)])
        verdict = attack_cjloss_system(sys)
        assert verdict.solved and sys.is_solution(verdict.x)

    def test_binary_verdict_verifies(self):
        with pytest.raises(ValueError):
            binary_verdict(TOY_SYS, [1, 1, 0])
