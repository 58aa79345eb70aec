"""Generators, the brute-force oracle, attack orchestration, DAG loop, bench."""

import errno
import math
import os
import random
import signal
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knapcrack import lanes, pipeline
from knapcrack.disagg import DisaggParams, DisaggregatedSystem, build_disaggregated, row_coeffs
from knapcrack.errors import (DependentColumns, EscalationExhausted, GenerationBudgetExceeded,
                              InvalidInput, InvalidRow, RankDeficient, SearchExhausted)
from knapcrack.formulations import BINARY, FAILURE, SHORT_NONBINARY, AttackVerdict, attack_lo
from knapcrack.pipeline import (BenchCell, SearchConfig, attack,
                                attack_with_dag, bench, bench_csv, check_shape,
                                default_modulus, generate_instance, generate_system,
                                map_back, search_lanes, usable_cpus)
from knapcrack.problems import LdeSystem

from oracles import TooLarge, _enumerate_full, _enumerate_mitm, brute_force_solve

TOY = LdeSystem.from_rows([[3, 15, 6]], [9])
MH = LdeSystem.from_rows([[171, 196, 457, 1191, 2410]], [3797])
EX3 = LdeSystem.from_rows([[63, 9, 34, 46, 2, 55], [51, 19, 12, 44, 3, 25]], [99, 66])


@pytest.fixture
def one_lane(monkeypatch):
    # The DAG t-search runs in one process, as on a host with one usable CPU.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert search_lanes() == 1


@pytest.fixture
def two_lanes(monkeypatch):
    # Two lanes on any host: this process walks t = 2, 4, ... and one child
    # t = 3, 5, ...
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert search_lanes() == 2


@pytest.fixture
def pools(monkeypatch):
    # The sizes of the process pools bench builds; the fake runs each pool's
    # jobs in this process and starts none.
    import concurrent.futures
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def fork_log(monkeypatch, log):
    # Each os.fork appends the forking process's pid to the file log.
    real_fork = os.fork

    def fork():
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)


def fork_count(monkeypatch) -> list:
    # One entry per os.fork of this process from now on.
    real_fork, forks = os.fork, []

    def fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def no_child_left() -> None:
    # Once this process's lanes are closed, no child of it is left.
    lanes._close_lanes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def lane_alive(pid: int) -> bool:
    return os.waitpid(pid, os.WNOHANG) == (0, 0)


def planted_dag_case(algo, m, n, M, seed, alpha, shift=0):
    """(system, config) of a random small system with coefficients up to 2^n
    and a planted binary solution, b moved by shift, or None when its rows
    are dependent."""
    rng = random.Random(seed)
    x = [0] * n
    for i in rng.sample(range(n), rng.randint(1, n)):
        x[i] = 1
    rows = [[rng.randint(1, 2 ** n) for _ in range(n)] for _ in range(m)]
    try:
        sys = LdeSystem.from_rows(rows, [sum(map(math.prod, zip(r, x))) + shift for r in rows])
    except RankDeficient:
        return None
    t_max = rng.randint(1, M - 1)
    return sys, SearchConfig(algo=algo, use_dag=True, M=M, t_max=t_max, alpha=alpha)


DAG_CASES = dict(algo=st.sampled_from(["reduce", "reduce_half", "cjloss", "ahl"]),
                 m=st.integers(1, 2), n=st.integers(4, 10), M=st.integers(3, 40),
                 seed=st.integers(0, 2 ** 32 - 1),
                 alpha=st.sampled_from([Fraction(26, 100), Fraction(99, 100)]))


class TestGenerators:
    def test_instance_determinism(self):
        assert generate_instance(16, 7) == generate_instance(16, 7)

    def test_instance_constraints(self):
        for seed in range(20):
            gen = generate_instance(16, seed)
            inst = gen.instance
            assert 0.99 < gen.density < 1.01
            (a,), (b,) = inst.A, inst.b
            assert gen.density == pytest.approx(16 / math.log2(max(a)))
            assert sum(gen.planted) == 8
            assert inst.is_solution(gen.planted)
            assert b > max(a) and 2 * b <= sum(a)

    def test_instance_preconditions(self):
        with pytest.raises(ValueError):
            generate_instance(15, 0)
        with pytest.raises(ValueError):
            generate_instance(2, 0)

    @pytest.mark.parametrize("m, seed", [(1, 2526), (1, 3082), (1, 3587), (2, 2272)])
    def test_a_row_of_ones_is_redrawn(self, monkeypatch, m, seed):
        # These seeds draw a = (1, 1, 1, 1) at n = 4, whose density n / log2(1)
        # has no value; the row is rejected like any inadmissible draw.
        rows = []

        def spy(row, x):
            rows.append(list(row))
            return admissible(row, x)

        admissible = pipeline._admissible
        monkeypatch.setattr(pipeline, "_admissible", spy)
        gen = generate_instance(4, seed) if m == 1 else generate_system(m, 4, seed)
        system = gen.instance if m == 1 else gen.system
        assert [1, 1, 1, 1] in rows
        assert system.is_solution(gen.planted)
        assert all(max(row) > 1 for row in system.A)

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
        inst = LdeSystem.from_rows([[3, 15, 6]], [15])
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

    def test_map_back_truncates_flips_and_classifies(self):
        # Vectors about the normalized toy (b = 9), each with one extra
        # augmented coordinate, re-expressed over the original b = 15.
        inst = LdeSystem.from_rows([[3, 15, 6]], [15])
        lo = AttackVerdict(BINARY, (1, 0, 1, 1), {"algorithm": "lo", "used_complement": True})
        assert map_back(inst, lo, True) == AttackVerdict(
            BINARY, (0, 1, 0), {"algorithm": "lo", "used_complement": False})
        short = AttackVerdict(SHORT_NONBINARY, (-2, 1, 0, 7), {"algorithm": "ahl"})
        assert map_back(inst, short, True) == AttackVerdict(
            SHORT_NONBINARY, (3, 0, 1), {"algorithm": "ahl"})
        failure = AttackVerdict(FAILURE, meta={"algorithm": "cjloss"})
        assert map_back(inst, failure, True) is failure
        with pytest.raises(AssertionError, match="does not satisfy"):
            map_back(inst, short, False)

    def test_t_found_is_the_rescue_t(self):
        out = attack_with_dag(TOY, SearchConfig(algo="reduce", use_dag=True, M=15, t_max=14))
        assert out.t_found is not None and out.t_found == out.verdict.meta["t"]
        assert out.verdict.meta["M"] == 15
        assert attack(TOY, SearchConfig(algo="cjloss")).t_found is None


class TestDagLoop:
    def test_toy_dag_reduce(self):
        cfg = SearchConfig(algo="reduce", use_dag=True, M=15, t_max=14)
        out = attack_with_dag(TOY, cfg)
        assert out.solved and out.verdict.x == (1, 0, 1)
        assert out.t_found is not None

    def test_initial_success_skips_search(self):
        cfg = SearchConfig(algo="cjloss", use_dag=True, M=100, t_max=10)
        out = attack_with_dag(TOY, cfg)
        assert out.solved and out.t_found is None

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

    @pytest.mark.parametrize("entry", [attack, attack_with_dag])
    def test_dependent_derived_row_is_not_attacked(self, monkeypatch, one_lane, entry):
        # At M = 3 both t = 1 and t = 2 derive a multiple of the toy's row
        # (v = a/3 and 2a/3), so each augmentation is the base system again
        # and only the base attack runs.
        import knapcrack.pipeline as pl
        real = pl.run_algorithm
        attacked = []

        def run_algorithm(sys, config):
            attacked.append(sys)
            return real(sys, config)

        monkeypatch.setattr(pl, "run_algorithm", run_algorithm)
        cfg = SearchConfig(algo="reduce", use_dag=True, M=3, t_max=2)
        with pytest.raises(SearchExhausted) as exc:
            entry(TOY, cfg)
        assert exc.value.best.x == (0, 1, -1)
        assert attacked == [TOY]

    def test_attack_error_in_the_t_loop_propagates(self, monkeypatch):
        # The loop skips only a square system and a dependent derived row;
        # an attack that raises on an augmented system is a bug to report.
        import knapcrack.pipeline as pl
        real = pl.run_algorithm

        def run_algorithm(sys, config):
            if sys.m > 1:
                raise DependentColumns("augmented basis")
            return real(sys, config)

        monkeypatch.setattr(pl, "run_algorithm", run_algorithm)
        cfg = SearchConfig(algo="reduce", use_dag=True, M=15, t_max=14)
        with pytest.raises(DependentColumns, match="augmented basis"):
            attack_with_dag(TOY, cfg)

    def test_value_error_building_the_system_propagates(self, monkeypatch):
        # The square case is tested before .system, so no ValueError is read as a skip.
        def system(self):
            raise ValueError("augmented system")

        monkeypatch.setattr(DisaggregatedSystem, "system", property(system))
        cfg = SearchConfig(algo="reduce", use_dag=True, M=15, t_max=14)
        with pytest.raises(ValueError, match="augmented system"):
            attack_with_dag(TOY, cfg)

    def test_lo_rejected_before_any_attack(self, monkeypatch):
        import knapcrack.pipeline as pl

        def run_algorithm(sys, config):
            raise AssertionError("an attack ran")

        monkeypatch.setattr(pl, "run_algorithm", run_algorithm)
        with pytest.raises(ValueError, match="single equations"):
            SearchConfig(algo="lo", use_dag=True, M=15, t_max=14)
        with pytest.raises(ValueError, match="single equations"):
            attack_with_dag(TOY, SearchConfig(algo="lo", M=15, t_max=14))

    def test_bad_t_max_rejected_before_any_attack(self, monkeypatch):
        # A config built without use_dag skips the t_max rule; attack_with_dag
        # still applies it, instead of attacking until t reaches M.
        import knapcrack.pipeline as pl

        def run_algorithm(sys, config):
            raise AssertionError("an attack ran")

        monkeypatch.setattr(pl, "run_algorithm", run_algorithm)
        hard = LdeSystem.from_rows([[5, 9, 11]], [8])
        with pytest.raises(ValueError, match="t_max=20, M=10"):
            attack_with_dag(hard, SearchConfig(algo="reduce", M=10, t_max=20))

    @settings(max_examples=300, deadline=None)
    @given(**DAG_CASES)
    def test_verdicts_are_sound(self, algo, m, n, M, seed, alpha):
        # A binary verdict is a real solution found within t_max, and an
        # exhausted search's best witness still solves the system.  The weak
        # alpha fails more plain attacks, so the t-search runs.
        case = planted_dag_case(algo, m, n, M, seed, alpha)
        if case is None:
            return
        sys, cfg = case
        try:
            out = attack_with_dag(sys, cfg)
        except SearchExhausted as exc:
            assert exc.best is None or sys.is_solution(exc.best.x)
            return
        if out.verdict.status == "binary":
            assert out.verdict.x in brute_force_solve(sys)
            assert out.t_found is None or 1 <= out.t_found <= cfg.t_max

    def test_dag_success_only_on_solvable(self):
        hard = LdeSystem.from_rows([[5, 9, 11]], [8])
        assert brute_force_solve(hard) == []
        cfg = SearchConfig(algo="reduce_half", use_dag=True, M=30, t_max=29)
        with pytest.raises(SearchExhausted):
            attack_with_dag(hard, cfg)


def searched(system, cfg):
    """attack_with_dag's outcome, or the type, message and best witness of what it raised."""
    try:
        return attack_with_dag(system, cfg)
    except SearchExhausted as exc:
        return SearchExhausted, str(exc), exc.best
    except Exception as exc:  # any other error is compared by its type and message
        return type(exc), str(exc)


class TestLanes:
    # The DAG t-search runs t >= 2 in parallel lanes, one process per usable
    # CPU, and judges the t's in order: its outcome is the one-lane outcome.

    @settings(max_examples=100, deadline=None)
    @given(**{**DAG_CASES, "n": st.integers(4, 12)}, shift=st.integers(0, 1))
    def test_lanes_match_one_lane(self, algo, m, n, M, seed, alpha, shift):
        # A shifted b has most searches exhaust, so best's strict < in t order
        # is compared too; a b above the row sum raises InvalidInput.
        import knapcrack.pipeline as pl
        case = planted_dag_case(algo, m, n, M, seed, alpha, shift)
        if case is None:
            return
        with pytest.MonkeyPatch.context() as mp:
            # Three lanes, above the cap, so the stride is checked beyond two.
            mp.setattr(pl, "MAX_LANES", 3)
            mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
            assert search_lanes() == 3
            in_lanes = searched(*case)
            mp.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert searched(*case) == in_lanes

    def test_error_in_a_child_lane_surfaces_with_its_type(self, monkeypatch, two_lanes):
        # t = 3 raises in the child, which leaves without a record; this
        # process then runs t = 3 itself and raises.
        import knapcrack.pipeline as pl
        real = pl.augment

        def augment(system, steps):
            if steps[0][1].t == 3:
                raise DependentColumns("augmented basis at t = 3")
            return real(system, steps)

        monkeypatch.setattr(pl, "augment", augment)
        hard = LdeSystem.from_rows([[5, 9, 11]], [8])
        with pytest.raises(DependentColumns, match="augmented basis at t = 3"):
            attack_with_dag(hard, SearchConfig(algo="reduce", use_dag=True, M=20, t_max=19))
        no_child_left()

    def test_a_lane_that_dies_is_made_up_here(self, monkeypatch, two_lanes):
        # The child is killed at t = 5, after it sent t = 3; the toy at M = 8
        # is rescued at t = 5 all the same.
        import knapcrack.pipeline as pl
        parent, real = os.getpid(), pl.augment

        def augment(system, steps):
            if steps[0][1].t == 5 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(system, steps)

        monkeypatch.setattr(pl, "augment", augment)
        out = attack_with_dag(TOY, SearchConfig(algo="reduce", use_dag=True, M=8, t_max=7))
        assert (out.t_found, out.verdict.x) == (5, (1, 0, 1))
        no_child_left()

    @pytest.mark.parametrize("call, error", [
        ("fork", BlockingIOError("no process to spare")),
        ("pipe", OSError(errno.EMFILE, "too many open files")),
    ])
    def test_a_failed_fork_leaves_the_t_to_this_process(self, monkeypatch, two_lanes,
                                                         call, error):
        def fail():
            raise error

        monkeypatch.setattr(os, call, fail)
        out = attack_with_dag(TOY, SearchConfig(algo="reduce", use_dag=True, M=31, t_max=30))
        assert (out.t_found, out.verdict.x) == (3, (1, 0, 1))
        no_child_left()

    @pytest.mark.parametrize("problem, M, t_max", [
        (TOY, 31, 30),  # the child stops after its rescue at t = 3
        (generate_instance(10, 14).instance, 50, 49),  # rescued in this process's lane
        (LdeSystem.from_rows([[5, 9, 11]], [8]), 20, 19),  # the child runs out of t's
    ], ids=["child-lane-rescue", "parent-lane-rescue", "exhausted"])
    def test_children_reaped_elsewhere(self, monkeypatch, problem, M, t_max):
        # With SIGCHLD ignored the kernel reaps each child as it exits, so the
        # cleanup finds it gone; the outcome is still the one-lane outcome.
        cfg = SearchConfig(algo="reduce", use_dag=True, M=M, t_max=t_max)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        alone = searched(problem, cfg)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        before = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert searched(problem, cfg) == alone
            lanes._close_lanes()
        finally:
            signal.signal(signal.SIGCHLD, before)
        no_child_left()

    def test_lanes_are_capped(self, monkeypatch):
        import knapcrack.pipeline as pl
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
        assert search_lanes() == pl.MAX_LANES == 2

    SEARCHES = {
        "child-lane-rescue": (TOY, 31, 30, 3),
        "parent-lane-rescue": (generate_instance(10, 14).instance, 50, 49, 4),
        "exhausted": (LdeSystem.from_rows([[5, 9, 11]], [8]), 20, 19, SearchExhausted),
    }

    @pytest.mark.parametrize("first", SEARCHES)
    def test_no_child_is_left(self, monkeypatch, two_lanes, first):
        # The three searches run back to back, from each one first: one fork
        # serves them all, and each ends as in one lane.
        order = [first, *(name for name in self.SEARCHES if name != first)]
        forks = fork_count(monkeypatch)
        for name in order:
            problem, M, t_max, expected = self.SEARCHES[name]
            found = searched(problem, SearchConfig(algo="reduce", use_dag=True, M=M,
                                                   t_max=t_max))
            if expected is SearchExhausted:
                assert found[0] is SearchExhausted
            else:
                assert found.t_found == expected
        assert len(forks) == 1
        for name in order:
            problem, M, t_max, _ = self.SEARCHES[name]
            cfg = SearchConfig(algo="reduce", use_dag=True, M=M, t_max=t_max)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            alone = searched(problem, cfg)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            assert searched(problem, cfg) == alone
        assert len(forks) == 1
        no_child_left()

    def test_a_t_that_raises_in_the_lane_leaves_it_serving(self, monkeypatch, two_lanes):
        # t = 3 raises in the lane only; this process runs it again, and the
        # lane, still alive, takes the next search without a fork.
        import knapcrack.pipeline as pl
        parent, real = os.getpid(), pl.augment

        def augment(system, steps):
            if steps[0][1].t == 3 and os.getpid() != parent:
                raise DependentColumns("augmented basis at t = 3")
            return real(system, steps)

        monkeypatch.setattr(pl, "augment", augment)
        forks = fork_count(monkeypatch)
        cfg = SearchConfig(algo="reduce", use_dag=True, M=31, t_max=30)
        assert attack_with_dag(TOY, cfg).t_found == 3
        (lane, _, _), = lanes._lanes
        assert lane_alive(lane)
        assert attack_with_dag(TOY, cfg).t_found == 3
        assert len(forks) == 1 and lanes._lanes[0][0] == lane
        no_child_left()

    def test_a_lane_killed_between_searches_is_replaced_once(self, monkeypatch, two_lanes):
        # The search after the kill finds the lane dead and runs its t's here;
        # the one after that forks a new lane.
        import knapcrack.pipeline as pl
        forks = fork_count(monkeypatch)
        cfg = SearchConfig(algo="reduce", use_dag=True, M=31, t_max=30)
        assert attack_with_dag(TOY, cfg).t_found == 3
        (killed, _, _), = lanes._lanes
        os.kill(killed, signal.SIGKILL)
        for _ in range(3):
            assert attack_with_dag(TOY, cfg).t_found == 3
        assert len(forks) == 2
        (lane, _, _), = lanes._lanes
        assert lane != killed and lane_alive(lane)
        no_child_left()

    def test_a_child_forked_beside_a_lane_has_none(self, monkeypatch, two_lanes):
        # A child of this process sees no lane and has none of their pipes,
        # and closing its lanes on exit kills none of this process's.
        import knapcrack.pipeline as pl
        cfg = SearchConfig(algo="reduce", use_dag=True, M=31, t_max=30)
        assert attack_with_dag(TOY, cfg).t_found == 3
        (lane, commands, records), = lanes._lanes
        child = os.fork()
        if child == 0:
            ok = lanes._lanes == []
            for fd in (commands, records):
                try:
                    os.fstat(fd)
                    ok = False
                except OSError:
                    pass
            lanes._close_lanes()
            os._exit(0 if ok else 1)
        assert os.waitpid(child, 0)[1] == 0
        assert lane_alive(lane)
        forks = fork_count(monkeypatch)
        assert attack_with_dag(TOY, cfg).t_found == 3
        assert forks == [] and lanes._lanes[0][0] == lane
        no_child_left()

    @settings(max_examples=40, deadline=None)
    @given(first=st.fixed_dictionaries({**DAG_CASES, "shift": st.integers(0, 1)}),
           second=st.fixed_dictionaries({**DAG_CASES, "shift": st.integers(0, 1)}),
           stop=st.integers(1, 6))
    def test_stale_records_never_leak(self, first, second, stop):
        # Two searches back to back through one lane.  The first ends in this
        # process's lane, by an error at t = 2 * stop, after a pause that lets
        # the lane run ahead, so its unread records are still in the pipe when
        # the second search starts; each ends as it does in one lane.
        import knapcrack.pipeline as pl
        cases = [planted_dag_case(**first), planted_dag_case(**second)]
        if None in cases:
            return
        parent, real, stopping = os.getpid(), pl.augment, []

        def augment(system, steps):
            if stopping and os.getpid() == parent and steps[0][1].t == 2 * stop:
                time.sleep(0.005)
                raise DependentColumns(f"stop at t = {2 * stop}")
            return real(system, steps)

        def pair():
            stopping.append(None)
            ends = [searched(*cases[0])]
            stopping.clear()
            return ends + [searched(*cases[1])]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pl, "augment", augment)
            mp.setattr(os, "sched_getaffinity", lambda pid: {0})
            alone = pair()
            mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            assert pair() == alone
        assert len(lanes._lanes) <= 1

    @pytest.mark.parametrize("leave", [
        "",
        "from knapcrack import cli; cli.main(['--no-such-flag'])",
    ], ids=["normal-exit", "system-exit-from-cli"])
    def test_no_lane_outlives_its_process(self, leave):
        # A process with a lane exits, normally or by SystemExit from
        # cli.main; its exit handler has killed and reaped the lane by then.
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import os
            os.sched_getaffinity = lambda pid: {0, 1}
            from knapcrack import lanes, pipeline as pl
            from knapcrack.problems import LdeSystem
            toy = LdeSystem.from_rows([[3, 15, 6]], [9])
            cfg = pl.SearchConfig(algo="reduce", use_dag=True, M=31, t_max=30)
            assert pl.attack_with_dag(toy, cfg).t_found == 3
            print(lanes._lanes[0][0], flush=True)
        """) + leave + "\n"
        src = os.path.join(os.path.dirname(pipeline.__file__), os.pardir)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
                              timeout=120)
        assert proc.returncode == (2 if leave else 0), proc.stderr
        lane = int(proc.stdout.split()[0])
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            try:
                os.kill(lane, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        else:
            pytest.fail(f"lane {lane} outlived its process: {proc.stderr}")

    def test_one_lane_without_fork_or_beside_another_thread(self, monkeypatch, two_lanes):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert search_lanes() == 1
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert search_lanes() == 2
        monkeypatch.delattr(os, "fork")
        assert search_lanes() == 1


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
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = bench_csv(bench(cells), timing=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parallel = bench_csv(bench(cells), timing=False)
        assert serial == parallel

    def test_pool_capped_at_job_count(self, monkeypatch, pools):
        # One worker per usable CPU, at most one per job, since a fork pool
        # starts all max_workers processes at the first submit; one usable
        # CPU builds no pool.
        cells = [BenchCell(1, 10, "reduce_half", False, 100, 10, 3, 9)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = bench_csv(bench(cells), timing=False)
        assert pools == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert bench_csv(bench(cells), timing=False) == serial
        assert pools == [3]

    def test_a_one_job_grid_runs_here_with_its_lanes(self, monkeypatch, two_lanes, pools,
                                                     tmp_path):
        log = tmp_path / "forks"
        fork_log(monkeypatch, log)
        row = bench([BenchCell(1, 12, "reduce", True, 50, 49, 1, 4)])[0]
        assert (row.successes, row.valid_ts) == (1, [32])
        assert pools == []
        assert log.read_text().split() == [str(os.getpid())]  # its one child lane
        no_child_left()

    def test_a_pool_job_never_forks(self, monkeypatch, tmp_path):
        # Each job of a pool runs its t-search in one lane, since the pool
        # already holds the cores: only this process forks, to start the
        # pool.
        log = tmp_path / "forks"
        fork_log(monkeypatch, log)
        cells = [BenchCell(1, 12, "reduce", True, 50, 49, 2, 3)]  # both search past t = 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = bench_csv(bench(cells), timing=False)
        assert not log.exists()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert bench_csv(bench(cells), timing=False) == serial
        assert log.read_text().split() == [str(os.getpid())] * 2  # the two workers
        no_child_left()

    def test_all_cores_means_the_cores_this_process_may_use(self, monkeypatch):
        # A container pinned to one core of a 64-core host counts one CPU.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert usable_cpus() == 1

    def test_failing_job_counts_unsolved(self, monkeypatch, one_lane):
        # One usable CPU runs the jobs here, so the patch holds under any
        # start method.
        import knapcrack.pipeline as pl
        real_attack = pl.attack
        failing_seed = 4

        def attack(problem, config):
            if config.seed == failing_seed:
                raise EscalationExhausted("no zero block")
            return real_attack(problem, config)

        cells = [BenchCell(1, 10, "reduce_half", False, 100, 10, 4, 3)]
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
            build_disaggregated(TOY, 3, DisaggParams(1, 9))

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
        sys = generate_instance(8, 1).instance
        kd = decompose(sys, N=1)
        assert kd.N_used >= 1
        cols = kd.kernel_columns
        assert all(sum(a * v for a, v in zip(sys.A[0], c)) == 0 for c in cols)


class TestInvalidInput:
    # Each library check of caller input raises InvalidInput, which the CLI
    # reports as exit 2; it is still a ValueError for library callers.
    @pytest.mark.parametrize("check, message", [
        (lambda: SearchConfig(algo="nope"), "algo must be one of"),
        (lambda: SearchConfig(algo="lo", use_dag=True), "lo handles single equations"),
        (lambda: SearchConfig(use_dag=True, M=10, t_max=10), "0 < t_max < M"),
        (lambda: check_shape(1, 7), "n must be even and >= 4, got 7"),
        (lambda: check_shape(8, 8), "need 1 <= m < n, got m=8, n=8"),
        (lambda: row_coeffs(([3, -1, 6], 2)), "coefficients must be nonnegative"),
        (lambda: row_coeffs(([3, 15, 6], 30)), "right-hand side exceeds the coefficient sum"),
        (lambda: attack_lo(EX3), "lo takes a subset-sum instance"),
    ], ids=["algo", "lo-with-dag", "t-max", "odd-n", "m-not-below-n",
            "negative-entry", "b-above-sum", "lo-on-two-rows"])
    def test_each_check_raises_invalid_input(self, check, message):
        with pytest.raises(InvalidInput, match=message) as caught:
            check()
        assert isinstance(caught.value, ValueError)
