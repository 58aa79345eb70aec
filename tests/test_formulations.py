"""Stacked-basis decomposition and the three column-scan attacks."""

import dataclasses
import random
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knapcrack.errors import DimensionMismatch, InvalidInput, InvalidN, RankDeficient, SingularE
from knapcrack.formulations import (DEFAULT_N, DEFAULT_N1, KernelDecomposition, ahl_basis,
                                    attack_ahl, attack_cjloss, attack_lo,
                                    build_lattice_B, cjloss_basis, classify_solution,
                                    decompose, special_solution, _check_decomposition,
                                    _scan_lo, _scan_pm1)
from knapcrack.intmat import det_bareiss, gram
from knapcrack import lattice
from knapcrack.pipeline import generate_instance, generate_system
from knapcrack.problems import LdeSystem, complement, normalize

from oracles import (attack_lo_two_lll, check_decomposition_bareiss,
                     det_d_c, gso, hnf_member, hnf_columns, integer_solvable, kernel_basis,
                     lattices_equal, mat_mul, minor_gcd, solve_exact_fraction)

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


class TestClassifySolution:
    def test_non_integral_entry_refused(self):
        # int() would make it (1, 0, 1), a binary solution of the toy.
        with pytest.raises(InvalidInput, match="not all integers"):
            classify_solution(TOY_SYS, [1.5, 0, 1])
        assert classify_solution(TOY_SYS, [True, 0.0, 1]).x == (1, 0, 1)


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

    def test_formulation_bases_on_the_toy(self):
        # AHL: [I; 0; N2*A] and (0; N1; -N2*b).  CJLOSS: [2I; 2N*A] and (1; 2N*b).
        ahl = ahl_basis(TOY_SYS, 7, 10)
        assert ahl.columns == ((1, 0, 0, 0, 30), (0, 1, 0, 0, 150), (0, 0, 1, 0, 60),
                               (0, 0, 0, 7, -90))
        cjloss = cjloss_basis(TOY_SYS, 10)
        assert cjloss.columns == ((2, 0, 0, 60), (0, 2, 0, 300), (0, 0, 2, 120),
                                  (1, 1, 1, 180))
        for basis in (ahl, cjloss, build_lattice_B(TOY_SYS, 10)):
            assert all(type(c) is tuple and all(type(v) is int for v in c)
                       for c in basis.columns)


class TestDecompose:
    def test_e_is_extended_gcd(self):
        kd = decompose(TOY_SYS)
        assert kd.E == ((gcd(gcd(3, 15), 6),),)

    def test_d_is_the_rows_of_kernel_columns(self):
        # decompose stores LLL's columns and nothing else: D is derived.
        kd = decompose(generate_system(2, 12, 3).system)
        assert kd.D == tuple(zip(*kd.kernel_columns))
        assert vars(kd).keys() == {f.name for f in dataclasses.fields(kd)}

    def test_blocks_satisfy_relations(self):
        rng = random.Random(1)
        for _ in range(15):
            m = rng.randint(1, 2)
            sys = random_system(rng, m, m + rng.randint(2, 3))
            kd = decompose(sys)
            a = [list(r) for r in sys.A]
            assert all(v == 0 for row in mat_mul(a, [list(r) for r in kd.D]) for v in row)
            assert mat_mul(a, [list(r) for r in kd.C]) == [list(r) for r in kd.E]
            assert det_d_c(kd) in (1, -1)
            # full row rank going in, so the E block must be invertible
            assert det_bareiss([list(r) for r in kd.E]) != 0

    def test_kernel_lattice_matches_hnf_oracle(self):
        rng = random.Random(2)
        for _ in range(15):
            m = rng.randint(1, 2)
            n = m + rng.randint(2, 3)
            sys = random_system(rng, m, n, hi=20)
            kd = decompose(sys)
            ours = kd.kernel_columns
            theirs = kernel_basis([list(r) for r in sys.A])
            h_ours = hnf_columns([[c[i] for c in ours] for i in range(n)])
            h_theirs = hnf_columns([[c[i] for c in theirs] for i in range(n)])
            assert h_ours == h_theirs
            for col in ours:
                assert hnf_member(h_theirs, col)
            for col in theirs:
                assert hnf_member(h_ours, col)


def with_column(rows, j, col):
    """Row-major matrix rows with column j replaced by col."""
    return tuple(r[:j] + (v,) + r[j + 1:] for r, v in zip(rows, col))


def with_kernel_column(kd, i, col):
    """kd with column i of D replaced by col.  The contract reads only d[s] of
    the Gram-Schmidt, and d[s] becomes det(D^T D) of the new columns, as a
    loop that returned them would hold it (0 where they are dependent)."""
    cols = kd.kernel_columns[:i] + (tuple(col),) + kd.kernel_columns[i + 1:]
    d, lam = kd.gso
    return dataclasses.replace(kd, kernel_columns=cols,
                               gso=(d[:-1] + [det_bareiss(gram(cols))], lam))


@st.composite
def contract_systems(draw):
    """m in 1..3, n up to 16; about half get a row with a common factor, so Delta(A) > 1."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m + 1, 16))
    rows = draw(st.lists(st.lists(st.integers(0, 40), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    if draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        factor = draw(st.integers(2, 6))
        rows[i] = [factor * v for v in rows[i]]
    try:
        return LdeSystem.from_rows(rows, [0] * m)
    except RankDeficient:
        assume(False)


class TestContract:
    """The d[s] * det(E)^2 = det(A A^T) contract against the n x n Bareiss oracle."""

    @settings(max_examples=60, deadline=None)
    @given(contract_systems(), st.data())
    def test_identity_agrees_with_bareiss(self, sys, data):
        kd = decompose(sys)  # runs the contract
        check_decomposition_bareiss(sys, kd)
        assert det_d_c(kd) in (1, -1)
        a_rows = [list(r) for r in sys.A]
        delta = minor_gcd(a_rows)
        d, _ = kd.gso
        assert abs(det_bareiss([list(r) for r in kd.E])) == delta
        assert d[-1] * delta * delta == det_bareiss(gram(a_rows))

        d_cols, c_cols = kd.kernel_columns, [list(c) for c in zip(*kd.C)]
        s, j = len(d_cols), data.draw(st.integers(0, sys.m - 1))
        e_col = [row[j] for row in kd.E]
        broken = [dataclasses.replace(kd, C=with_column(kd.C, j, [2 * v for v in c_cols[j]]),
                                      E=with_column(kd.E, j, [2 * v for v in e_col]))]
        if s:
            i = data.draw(st.integers(0, s - 1))
            broken.append(with_kernel_column(kd, i, [2 * v for v in d_cols[i]]))
            fine = dataclasses.replace(
                kd, C=with_column(kd.C, j, [u + v for u, v in zip(c_cols[j], d_cols[i])]))
            _check_decomposition(sys, fine)
            check_decomposition_bareiss(sys, fine)
        if s >= 2:
            # Column i becomes the sum of two others (possibly the same one twice).
            others = [k for k in range(s) if k != i]
            k1, k2 = data.draw(st.sampled_from(others)), data.draw(st.sampled_from(others))
            broken.append(with_kernel_column(
                kd, i, [u + v for u, v in zip(d_cols[k1], d_cols[k2])]))
        for bad in broken:
            with pytest.raises(AssertionError):
                _check_decomposition(sys, bad)
            with pytest.raises(AssertionError):
                check_decomposition_bareiss(sys, bad)


@pytest.mark.usefixtures("either_kernel")
class TestContractProducts:
    """The contract's A*D = 0 and A*C = E, read through intmat.products on
    the columns of D and C, in each kernel."""

    def test_a_kernel_column_outside_ker_a_raises(self):
        sys = generate_system(2, 12, 3).system
        kd = decompose(sys)
        cols = kd.kernel_columns
        for shift in (1, 2**64, 2**200):
            outside = [cols[0][0] + shift, *cols[0][1:]]
            with pytest.raises(AssertionError, match=r"A\*D != 0"):
                _check_decomposition(sys, with_kernel_column(kd, 0, outside))
        # A unimodular change of D keeps the lattice, past a C long too.
        inside = [u + 2**200 * v for u, v in zip(cols[0], cols[1])]
        _check_decomposition(sys, with_kernel_column(kd, 0, inside))

    def test_an_altered_e_raises(self):
        sys = generate_system(2, 12, 3).system
        kd = decompose(sys)
        for j, shift in ((0, 1), (1, -1), (0, 2**64), (1, -2**200)):
            e_col = [row[j] + shift * (i == j) for i, row in enumerate(kd.E)]
            with pytest.raises(AssertionError, match=r"A\*C != E"):
                _check_decomposition(sys, dataclasses.replace(kd, E=with_column(kd.E, j, e_col)))

    def test_the_contract_reads_the_columns_lll_returned(self):
        # decompose keeps LLL's column heads as kernel_columns, equal to D's
        # columns; a copy with other kernel columns has its own D.
        sys = generate_system(2, 12, 3).system
        kd = decompose(sys)
        assert kd.kernel_columns == tuple(zip(*kd.D))
        other = dataclasses.replace(kd, kernel_columns=((0,) * sys.n,) + kd.kernel_columns[1:])
        assert other.D == with_column(kd.D, 0, [0] * sys.n)


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
        kd = KernelDecomposition(kernel_columns=((1, 0, 0),), C=((0, 0), (1, 0), (0, 1)),
                                 E=((1, 2), (2, 4)), N_used=1, gso=([1, 1], [[]]))
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

    def test_none_exactly_when_e_inverse_b_is_not_integral(self):
        rng = random.Random(4)
        for _ in range(40):
            m = rng.randint(1, 3)
            sys = random_system(rng, m, m + rng.randint(1, 3), hi=30)
            kd = decompose(sys)
            b = [rng.randint(-60, 60) for _ in range(m)]
            y = solve_exact_fraction([list(r) for r in kd.E], b)
            x = special_solution(kd, b)
            if any(v.denominator != 1 for v in y):
                assert x is None
            else:
                assert x == [v for [v] in mat_mul([list(r) for r in kd.C], [[v] for v in y])]
                assert [sum(a * v for a, v in zip(row, x)) for row in sys.A] == b

    def test_b_of_the_wrong_length(self):
        kd = decompose(TOY_SYS)
        with pytest.raises(DimensionMismatch):
            special_solution(kd, [9, 0])

    def test_non_integral_b_refused(self):
        # int() would make it [9], which TOY_SYS solves.
        with pytest.raises(InvalidInput, match="not all integers"):
            special_solution(decompose(TOY_SYS), [9.5])


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
        verdict = attack_cjloss(TOY_SYS)
        assert verdict.solved and verdict.x == (1, 0, 1)

    def test_cjloss_n_validation(self):
        with pytest.raises(InvalidN):
            attack_cjloss(TOY_SYS, N=0)

    def test_lo_seeded_batch_verified(self):
        solved = 0
        for seed in range(10):
            gen = generate_instance(16, seed)
            verdict = attack_lo(gen.instance)
            if verdict.solved:
                solved += 1
                assert gen.instance.is_solution(verdict.x)
        assert solved >= 1

    def test_lo_tries_the_instance_as_given_first(self):
        # b above sum/2 is not normalized here: 010 solves the instance itself.
        verdict = attack_lo(LdeSystem.from_rows([[3, 15, 6]], [15]))
        assert verdict.solved and verdict.x == (0, 1, 0)
        assert verdict.meta["used_complement"] is False

    def test_cjloss_above_half_sum(self):
        # b above sum/2 is attacked as given: the complement's solution 101
        # is the same lattice vector as 010, negated.
        inst = LdeSystem.from_rows([[3, 15, 6]], [15])
        verdict = attack_cjloss(inst)
        assert verdict.solved and verdict.x == (0, 1, 0)
        assert "used_complement" not in verdict.meta

    def test_ahl_returns_integer_solution(self):
        for seed in range(5):
            gen = generate_instance(12, seed)
            verdict = attack_ahl(gen.instance)
            if verdict.x is not None:
                assert gen.instance.is_solution(verdict.x)

    def test_ahl_scaling_integers(self):
        # N2 is the least integer above 2^(n+m) * N1^2, recorded in the verdict.
        meta = attack_ahl(TOY_SYS).meta
        assert (meta["N1"], meta["N2"]) == (DEFAULT_N1, 2 ** (3 + 1) * DEFAULT_N1 ** 2 + 1)

    def test_ahl_multirow(self):
        gen = generate_system(2, 10, 4)
        verdict = attack_ahl(gen.system)
        if verdict.x is not None:
            assert gen.system.is_solution(verdict.x)

    def test_cjloss_system_multirow(self):
        gen = generate_system(2, 10, 5)
        verdict = attack_cjloss(gen.system)
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
        verdict = attack_cjloss(sys)
        assert verdict.solved and sys.is_solution(verdict.x)

    def test_binary_verdict_verifies(self):
        # A verdict that fails substitution is a bug, not an input error.
        with pytest.raises(AssertionError):
            classify_solution(TOY_SYS, [1, 1, 0])


def pinned_instances():
    """n = 20 seeds 0-19 and their complements, n = 30 and n = 40 seeds 0-4, and a
    flipped toy."""
    n20 = [generate_instance(20, seed).instance for seed in range(20)]
    return (n20 + [complement(s) for s in n20]
            + [generate_instance(n, seed).instance for n in (30, 40) for seed in range(5)]
            + [LdeSystem.from_rows([[3, 15, 6]], [15])])


@pytest.fixture
def visits(monkeypatch, python_kernel) -> list:
    """One entry per first visit of a column in the Python LLL loop."""
    seen = []
    real = lattice._visit

    def counting(*args):
        seen.append(1)
        return real(*args)

    monkeypatch.setattr(lattice, "_visit", counting)
    return seen


class TestComplementFallback:
    """LO reduces its b-free prefix once and resumes from it per target, the
    complement only after the target's scan misses; CJLOSS has no complement
    run, as both of its bases span one lattice."""

    @pytest.mark.parametrize("attack, reference", [(attack_lo, attack_lo_two_lll)],
                             ids=["lo"])
    def test_verdicts_match_two_full_reductions(self, attack, reference):
        for system in pinned_instances():
            ours, theirs = attack(system).to_dict(), reference(system).to_dict()
            assert ours == theirs
            assert list(ours["meta"]) == list(theirs["meta"])

    @pytest.mark.parametrize("attack", [attack_lo], ids=["lo"])
    def test_complement_tail_runs_only_after_a_miss(self, attack, visits):
        # The prefix's reduction visits its n columns once, and each tail
        # visits only its basis's last column.
        tails_seen = set()
        for seed in range(20):
            system = generate_instance(20, seed).instance
            visits.clear()
            verdict = attack(system)
            first_solved = verdict.solved and \
                verdict.meta["used_complement"] == normalize(system)[1]
            tails = 1 if first_solved else 2
            assert len(visits) == system.n + tails
            tails_seen.add(tails)
        assert tails_seen == {1, 2}

    def test_native_complement_runs_only_after_a_miss(self, gmp_kernel, monkeypatch):
        # The C loop reduces the b-free prefix with its Gram-Schmidt, then
        # resumes from it for the target's basis, and for the complement's
        # only when the target's scan misses.
        calls = []

        def counting(cols, p, q, prefix, start=None):
            if start is None:
                assert prefix == len(cols)  # the prefix, kept whole as the start
                calls.append("head")
            else:
                assert prefix == 0 and cols[:-1] == start.columns
                calls.append(cols[-1])
            return gmp_kernel.reduce(cols, p, q, prefix, start)

        monkeypatch.setattr(lattice, "_kernel", gmp_kernel._replace(reduce=counting))
        counts_seen = set()
        for seed in range(20):
            system = generate_instance(20, seed).instance
            calls.clear()
            verdict = attack_lo(system)
            first_solved = verdict.solved and \
                verdict.meta["used_complement"] == normalize(system)[1]
            lasts = [(0,) * system.n + target.b for target in (system, complement(system))]
            assert calls == ["head"] + (lasts[:1] if first_solved else lasts)
            counts_seen.add(len(calls))
        assert counts_seen == {2, 3}

    def test_cjloss_reduces_once(self, visits):
        # One reduction visits each of the n + 1 basis columns once, on a hit
        # and on a miss alike (seed 0 misses at n = 20, seed 1 hits).
        solved_seen = set()
        for seed in (0, 1):
            system = generate_instance(20, seed).instance
            visits.clear()
            solved_seen.add(attack_cjloss(system).solved)
            assert len(visits) == system.n + 1
        assert solved_seen == {False, True}

    def test_cjloss_complement_spans_the_same_lattice(self):
        # The complement's last column is the sum of the first n columns
        # minus the target's; at 2b = sum(a) (the second system) they are equal.
        systems = [LdeSystem.from_rows([[3, 15, 6]], [9]),
                   LdeSystem.from_rows([[1, 20, 6, 15]], [21])]
        for system in systems + [generate_instance(16, seed).instance for seed in range(5)]:
            basis, flipped = (cjloss_basis(s, DEFAULT_N) for s in (system, complement(system)))
            assert basis.columns[:-1] == flipped.columns[:-1]
            assert lattices_equal(basis.columns, flipped.columns, len(basis.columns[0]))
