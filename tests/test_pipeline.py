"""Generators, the brute-force oracle, attack orchestration, DAG loop, bench."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knapcrack.disagg import DisaggParams, build_disaggregated
from knapcrack.errors import (EscalationExhausted, GenerationBudgetExceeded, InvalidRow,
                              RankDeficient, SearchExhausted)
from knapcrack.pipeline import (AttackOutcome, BenchCell, SearchConfig, attack,
                                attack_with_dag, bench, bench_csv, default_modulus,
                                generate_instance, generate_system)
from knapcrack.problems import LdeSystem, SubsetSumInstance

from oracles import TooLarge, _enumerate_full, _enumerate_mitm, brute_force_solve

TOY = SubsetSumInstance.from_coeffs([3, 15, 6], 9)
MH = SubsetSumInstance.from_coeffs([171, 196, 457, 1191, 2410], 3797)
EX3 = LdeSystem.from_rows([[63, 9, 34, 46, 2, 55], [51, 19, 12, 44, 3, 25]], [99, 66])


class TestGenerators:
    def test_instance_determinism(self):
        assert generate_instance(16, 7) == generate_instance(16, 7)

    def test_instance_constraints(self):
        for seed in range(20):
            gen = generate_instance(16, seed)
            inst = gen.instance
            assert 0.99 < gen.density < 1.01
            assert gen.density == pytest.approx(16 / math.log2(max(inst.a)))
            assert sum(gen.planted) == 8
            assert inst.is_solution(gen.planted)
            assert inst.b > max(inst.a) and 2 * inst.b <= sum(inst.a)

    def test_instance_preconditions(self):
        with pytest.raises(ValueError):
            generate_instance(15, 0)
        with pytest.raises(ValueError):
            generate_instance(2, 0)

    def test_system_determinism_and_constraints(self):
        gen = generate_system(2, 30, 11)
        assert gen == generate_system(2, 30, 11)
        sys = gen.system
        assert sys.is_solution(gen.planted)
        for i in range(sys.m):
            row = sys.A[i]
            assert sys.b[i] > max(row) and 2 * sys.b[i] <= sum(row)
            assert 0.99 < gen.densities[i] < 1.01

    def test_m_one_system_matches_instance_semantics(self):
        gen = generate_system(1, 12, 5)
        assert gen.system.m == 1
        inst = generate_instance(12, 5)
        # Same constraints hold; the draws differ only by row assembly.
        assert gen.system.b[0] > max(gen.system.A[0])


class TestBruteForce:
    def test_toy(self):
        assert brute_force_solve(TOY) == [(1, 0, 1)]

    def test_merkle_hellman(self):
        assert brute_force_solve(MH) == [(0, 1, 0, 1, 1)]

    def test_worked_system(self):
        assert (1, 0, 1, 0, 1, 0) in brute_force_solve(EX3)

    def test_mitm_matches_full_enumeration(self):
        rng = random.Random(0)
        for _ in range(10):
            n = rng.randint(4, 10)
            rows = [[rng.randint(1, 30) for _ in range(n)]]
            b = [sum(v for v in rows[0][: n // 2])]
            try:
                sys = LdeSystem.from_rows(rows, b)
            except ValueError:
                continue
            assert _enumerate_full(sys) == _enumerate_mitm(sys)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            brute_force_solve(generate_instance(32, 0).instance)


class TestAttack:
    def test_reduce_half_solves_toy(self):
        out = attack(TOY, SearchConfig(algo="reduce_half"))
        assert out.solved and out.verdict.x == (1, 0, 1)

    def test_no_integer_solution(self):
        sys = LdeSystem.from_rows([[2, 4, 6]], [9])
        out = attack(sys, SearchConfig(algo="reduce"))
        assert out.verdict.status == "no_integer_solution"

    def test_normalization_round_trip(self):
        # b > sum/2 flips internally; the verdict is about the original.
        inst = SubsetSumInstance.from_coeffs([3, 15, 6], 15)
        out = attack(inst, SearchConfig(algo="reduce_half"))
        assert out.solved
        assert inst.is_solution(out.verdict.x)

    def test_every_binary_verdict_in_brute_force_set(self):
        for seed in range(6):
            gen = generate_instance(12, seed)
            sols = set(brute_force_solve(gen.instance))
            for algo in ("reduce", "reduce_half", "lo", "cjloss", "ahl"):
                out = attack(gen.instance, SearchConfig(algo=algo))
                if out.solved:
                    assert out.verdict.x in sols

    def test_outcome_invariant(self):
        with pytest.raises(ValueError):
            AttackOutcome(verdict=attack(TOY, SearchConfig(algo="cjloss")).verdict,
                          dag_used=False, t_found=3)


class TestDagLoop:
    def test_toy_dag_reduce(self):
        cfg = SearchConfig(algo="reduce", use_dag=True, M=15, t_max=14)
        out = attack_with_dag(TOY, cfg)
        assert out.solved and out.verdict.x == (1, 0, 1)
        assert out.dag_used and out.t_found is not None

    def test_initial_success_skips_search(self):
        cfg = SearchConfig(algo="cjloss", use_dag=True, M=100, t_max=10)
        out = attack_with_dag(TOY, cfg)
        assert out.solved and not out.dag_used and out.t_found is None

    def test_infeasible_b_rejected_by_invariant(self):
        with pytest.raises(ValueError):
            SubsetSumInstance.from_coeffs([4, 6, 10], 23)  # b > sum(a)

    def test_exhaustion_carries_best_witness(self):
        hard = LdeSystem.from_rows([[5, 9, 11]], [8])  # no binary subset hits 8
        cfg = SearchConfig(algo="reduce", use_dag=True, M=20, t_max=19)
        with pytest.raises(SearchExhausted) as exc:
            attack_with_dag(hard, cfg)
        best = exc.value.best
        if best is not None:
            assert best.status == "short_nonbinary"
            assert sum(a * x for a, x in zip([5, 9, 11], best.x)) == 8

    def test_dag_never_degrades(self):
        for seed in range(4):
            gen = generate_instance(12, seed)
            plain = attack(gen.instance, SearchConfig(algo="reduce"))
            cfg = SearchConfig(algo="reduce", use_dag=True, M=50, t_max=49)
            try:
                dag = attack_with_dag(gen.instance, cfg)
                assert dag.solved or not plain.solved
            except SearchExhausted:
                assert not plain.solved

    @pytest.mark.parametrize("b", [-9, 30])
    def test_invalid_row_reaches_caller(self, b):
        # b < 0 or b > sum(a) fails the transform at every t: an input error,
        # not an exhausted search.
        bad = LdeSystem.from_rows([[3, 15, 6]], [b])
        cfg = SearchConfig(algo="reduce_half", use_dag=True, M=15, t_max=14)
        with pytest.raises(ValueError):
            attack_with_dag(bad, cfg)

    def test_ideal_t_on_square_augmentation_is_skipped(self):
        # m = n - 1: an ideal t adds a row and no k bits, leaving as many
        # equations as unknowns; those t are skipped, not raised.
        sys = LdeSystem.from_rows([[5, 19, 28], [26, 25, 3]], [14, 4])
        assert build_disaggregated(sys, 0, DisaggParams(2, 10)).image.n_k == 0
        cfg = SearchConfig(algo="reduce", use_dag=True, M=10, t_max=9)
        with pytest.raises(SearchExhausted):
            attack_with_dag(sys, cfg)

    def test_lo_rejected_before_any_attack(self, monkeypatch):
        import knapcrack.pipeline as pl

        def run_algorithm(sys, config):
            raise AssertionError("an attack ran")

        monkeypatch.setattr(pl, "run_algorithm", run_algorithm)
        cfg = SearchConfig(algo="lo", use_dag=True, M=15, t_max=14)
        with pytest.raises(ValueError, match="single equations"):
            attack_with_dag(TOY, cfg)

    @settings(max_examples=300, deadline=None)
    @given(algo=st.sampled_from(["reduce", "reduce_half", "cjloss", "ahl"]),
           m=st.integers(1, 2), n=st.integers(4, 10), M=st.integers(3, 40),
           seed=st.integers(0, 2 ** 32 - 1),
           alpha=st.sampled_from([Fraction(26, 100), Fraction(99, 100)]))
    def test_verdicts_are_sound(self, algo, m, n, M, seed, alpha):
        # Small systems with coefficients up to 2^n and a planted binary
        # solution: a binary verdict is a real solution found within t_max,
        # and an exhausted search's best witness still solves the system.
        # The weak alpha fails more plain attacks, so the t-search runs.
        rng = random.Random(seed)
        x = [0] * n
        for i in rng.sample(range(n), rng.randint(1, n)):
            x[i] = 1
        rows = [[rng.randint(1, 2 ** n) for _ in range(n)] for _ in range(m)]
        try:
            sys = LdeSystem.from_rows(rows, [sum(map(math.prod, zip(r, x))) for r in rows])
        except RankDeficient:
            return
        t_max = rng.randint(1, M - 1)
        cfg = SearchConfig(algo=algo, use_dag=True, M=M, t_max=t_max, alpha=alpha)
        try:
            out = attack_with_dag(sys, cfg)
        except SearchExhausted as exc:
            assert exc.best is None or sys.is_solution(exc.best.x)
            return
        if out.verdict.status == "binary":
            assert out.verdict.x in brute_force_solve(sys)
            assert out.t_found is None or 1 <= out.t_found <= t_max

    def test_dag_success_only_on_solvable(self):
        hard = LdeSystem.from_rows([[5, 9, 11]], [8])
        assert brute_force_solve(hard) == []
        cfg = SearchConfig(algo="reduce_half", use_dag=True, M=30, t_max=29)
        with pytest.raises(SearchExhausted):
            attack_with_dag(hard, cfg)


class TestBench:
    def test_default_modulus_schedule(self):
        assert default_modulus(16) == 10**3
        assert default_modulus(20) == 10**4
        assert default_modulus(30) == 10**4
        assert default_modulus(36) == 10**5

    def test_empty_grid(self):
        assert bench([]) == []
        assert bench_csv([]).strip() == ("m,n,algo,dag,M,t_max,count,successes,"
                                         "success_ratio,avg_valid_t,avg_ms,seed0")

    def test_rows_and_determinism(self):
        cells = [BenchCell(1, 10, "reduce_half", False, 100, 10, 4, 3),
                 BenchCell(1, 10, "cjloss", True, 100, 10, 4, 3)]
        first = bench_csv(bench(cells), timing=False)
        second = bench_csv(bench(cells), timing=False)
        assert first == second
        lines = first.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("1,10,reduce_half,0,100,10,4,")

    def test_counts_consistent(self):
        cells = [BenchCell(1, 10, "reduce", True, 60, 20, 5, 0)]
        row = bench(cells)[0]
        assert 0 <= row.successes <= 5
        assert all(1 <= t <= 20 for t in row.valid_ts)

    def test_worker_pool_matches_serial(self, monkeypatch):
        cells = [BenchCell(1, 10, "reduce_half", False, 100, 10, 4, 9)]
        monkeypatch.delenv("KNAPCRACK_THREADS", raising=False)
        serial = bench_csv(bench(cells), timing=False)
        monkeypatch.setenv("KNAPCRACK_THREADS", "2")
        parallel = bench_csv(bench(cells), timing=False)
        assert serial == parallel


    def test_failing_job_counts_unsolved(self, monkeypatch):
        import knapcrack.pipeline as pl
        real_attack = pl.attack
        failing_seed = 4

        def attack(problem, config):
            if config.seed == failing_seed:
                raise EscalationExhausted("no zero block")
            return real_attack(problem, config)

        cells = [BenchCell(1, 10, "reduce_half", False, 100, 10, 4, 3)]
        monkeypatch.delenv("KNAPCRACK_THREADS", raising=False)
        clean = bench(cells)[0]
        monkeypatch.setattr(pl, "attack", attack)
        row = bench(cells)[0]
        assert row.errors == [(failing_seed, "EscalationExhausted: no zero block")]
        solved_at_failing_seed = real_attack(
            generate_instance(10, failing_seed).instance,
            SearchConfig(algo="reduce_half", seed=failing_seed)).solved
        assert row.successes == clean.successes - int(solved_at_failing_seed)
        assert clean.errors == []


class TestDeterminism:
    def test_attack_is_deterministic(self):
        inst = generate_instance(12, 2).instance
        for algo in ("reduce", "reduce_half", "lo", "cjloss", "ahl"):
            a = attack(inst, SearchConfig(algo=algo)).verdict
            b = attack(inst, SearchConfig(algo=algo)).verdict
            assert a == b


class TestErrorPaths:
    def test_generation_budget(self, monkeypatch):
        import knapcrack.pipeline as pl
        monkeypatch.setattr(pl, "GENERATION_BUDGET", 0)
        with pytest.raises(GenerationBudgetExceeded):
            pl.generate_instance(8, 0)
        with pytest.raises(GenerationBudgetExceeded):
            pl.generate_system(2, 8, 0)

    def test_invalid_row_rejected(self):
        with pytest.raises(InvalidRow):
            build_disaggregated(TOY.as_system(), 3, DisaggParams(1, 9))

    @pytest.mark.parametrize("row", [1, 3, -1])
    def test_dag_row_outside_system_rejected_before_any_attack(self, monkeypatch, row):
        import knapcrack.pipeline as pl

        def run_algorithm(sys, config):
            raise AssertionError("an attack ran")

        monkeypatch.setattr(pl, "run_algorithm", run_algorithm)
        cfg = SearchConfig(algo="reduce", use_dag=True, M=15, t_max=14, row_index=row)
        with pytest.raises(InvalidRow, match=f"row {row} outside 0..0"):
            attack_with_dag(TOY, cfg)

    def test_decompose_escalates_from_tiny_n(self):
        from knapcrack.formulations import decompose
        sys = generate_instance(8, 1).instance.as_system()
        kd = decompose(sys, N=1)
        assert kd.N_used >= 1
        cols = kd.kernel_columns()
        assert all(sum(a * v for a, v in zip(sys.A[0], c)) == 0 for c in cols)
