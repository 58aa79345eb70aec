"""Acceptance suite: worked-example golden values, desk-scale statistical
replicas, and the always-on property contracts.

Each criterion prints one PASS line on success (run with `pytest -s` to see
them live); a failed assertion marks the criterion failed.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from knapcrack.analysis import gamma, lattice_volume, min_volume_ellipsoid
from knapcrack.disagg import (DisaggParams, build_disaggregated, cuts_off,
                              enumerate_jump_points, is_ideal, modular_transform,
                              njp_left_dominates, njp_right_dominates, uk_bound)
from knapcrack.errors import DependentColumns, RankDeficient, SearchExhausted
from knapcrack.formulations import decompose, special_solution
from knapcrack.intmat import det_bareiss, gram, mat_mul, solve_exact
from knapcrack.lattice import LatticeBasis, lll
from knapcrack.pipeline import (SearchConfig, attack, attack_with_dag,
                                generate_instance)
from knapcrack.problems import LdeSystem, SubsetSumInstance
from knapcrack.reduction import reduce_half, reduce_solution

from oracles import (binary_solutions_naive, gso, gso_after_reduce, gso_after_swap,
                     hnf_columns, integer_solvable, kernel_basis)


def report(num: int, text: str) -> None:
    print(f"[criterion {num:2d}] PASS: {text}")


def random_small_system(rng, m, n, hi=20):
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


def test_criterion_01_merkle_hellman_chain():
    t0 = time.perf_counter()
    a = [171, 196, 457, 1191, 2410]
    b = 3797
    stacked = [list(a)]
    rhs = [b]
    cur_a, cur_b = a, b
    for t, M in [(79, 4426), (69, 4348), (3, 4280), (5, 4278)]:
        assert is_ideal((cur_a, cur_b), DisaggParams(t, M))
        img = modular_transform(cur_a, cur_b, DisaggParams(t, M))
        stacked.append(list(img.c))
        rhs.append(img.d)
        cur_a, cur_b = list(img.c), img.d
    assert det_bareiss(stacked) != 0
    x = solve_exact(stacked, rhs)
    assert x == [Fraction(v) for v in (0, 1, 0, 1, 1)]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"chain ideal x4, stacked 5x5 solves to 01011 in {elapsed:.3f}s")


def test_criterion_02_toy_cutoff_and_dag():
    t0 = time.perf_counter()
    inst = SubsetSumInstance.from_coeffs([3, 15, 6], 9)
    x_tilde = [0, 1, -1]
    assert cuts_off(inst, Fraction(1, 2), x_tilde) is False
    assert cuts_off(inst, Fraction(2, 5), x_tilde) is True
    out = attack_with_dag(inst, SearchConfig(algo="reduce", use_dag=True,
                                             M=15, t_max=14))
    assert out.verdict.x == (1, 0, 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"cut-offs match, DAG+reduce returns 101 in {elapsed:.3f}s")


def test_criterion_03_worked_two_row_scenarios():
    base = LdeSystem.from_rows(
        [[63, 9, 34, 46, 2, 55], [51, 19, 12, 44, 3, 25]], [99, 66])

    def run(tm1, tm2):
        s1 = build_disaggregated(base, 0, DisaggParams(*tm1)).system
        s2 = build_disaggregated(s1, 1, DisaggParams(*tm2)).system
        kd = decompose(s2)
        xb = special_solution(kd, s2.b)
        sol = reduce_solution(xb, kd)
        det = det_bareiss(gram(kd.kernel_columns()))
        return sol[:6], det

    sol_a, det_a = run((1, 63), (22, 51))
    sol_b, det_b = run((3, 63), (36, 51))
    sol_c, det_c = run((3, 63), (49, 51))
    assert sol_a == [1, 0, 1, 0, 1, 0]
    assert any(v not in (0, 1) for v in sol_b)
    assert sol_c == [1, 0, 1, 0, 1, 0]
    # Reported volumes are sqrt of these exact Gram determinants, printed
    # truncated: 4112.35 -> 4112, 3621.29 -> 3621, 4493.76 -> 4493.
    assert (det_a, det_b, det_c) == (16911450, 13113732, 20193861)
    assert tuple(int(math.sqrt(d)) for d in (det_a, det_b, det_c)) == (4112, 3621, 4493)
    report(3, "scenario solutions 101010 / non-binary / 101010, volumes 4112/3621/4493")


def test_criterion_04_success_ratio_replica_n16():
    t0 = time.perf_counter()
    counts = {"reduce": 0, "reduce_half": 0, "cjloss": 0}
    for seed in range(20):
        inst = generate_instance(16, seed).instance
        for algo in counts:
            if attack(inst, SearchConfig(algo=algo)).solved:
                counts[algo] += 1
    elapsed = time.perf_counter() - t0
    assert counts["cjloss"] >= 18            # >= 90%
    assert 1 <= counts["reduce"] <= 10       # within [5%, 50%]
    assert counts["reduce"] < counts["reduce_half"] < counts["cjloss"]
    assert elapsed < 600
    report(4, f"n=16 x20: reduce {counts['reduce']}, half {counts['reduce_half']}, "
              f"cjloss {counts['cjloss']} in {elapsed:.1f}s")


def test_criterion_05_dag_rescue_replica():
    t0 = time.perf_counter()
    solved = {16: 0, 20: 0}
    for n, M in ((16, 10**3), (20, 10**4)):
        for seed in range(10):
            inst = generate_instance(n, seed).instance
            cfg = SearchConfig(algo="reduce_half", use_dag=True, M=M, t_max=200)
            try:
                if attack_with_dag(inst, cfg).solved:
                    solved[n] += 1
            except SearchExhausted:
                pass
    elapsed = time.perf_counter() - t0
    assert solved[16] == 10 and solved[20] == 10
    assert elapsed < 1200
    report(5, f"DAG+reduce_half 10/10 at n=16 and n=20 in {elapsed:.1f}s")


def test_criterion_06_volume_ratio_table():
    t0 = time.perf_counter()
    table = {2: 1.5708, 3: 2.7207, 4: 4.9348, 5: 9.1955, 6: 17.4410, 7: 33.4976}
    for s, want in table.items():
        assert abs(gamma(s) - want) < 1e-3
    elapsed = time.perf_counter() - t0
    report(6, f"six tabulated ratios within 1e-3 in {elapsed * 1000:.2f}ms")


def test_criterion_07_lll_contract():
    rng = random.Random(7)
    alpha = Fraction(99, 100)
    done = 0
    while done < 200:
        n = rng.randint(2, 6)
        dim = n + rng.randint(0, 2)
        cols = [[rng.randint(-10**6, 10**6) for _ in range(dim)] for _ in range(n)]
        basis = LatticeBasis.from_columns(cols)
        try:
            reduced = lll(basis, alpha)
        except DependentColumns:
            continue
        g = gso(reduced.columns)
        norms = g.bstar_norms_sq()
        for i in range(n):
            for j in range(i):
                assert abs(g.mu[i][j]) <= Fraction(1, 2)
        for i in range(1, n):
            assert norms[i] + g.mu[i][i - 1] ** 2 * norms[i - 1] >= alpha * norms[i - 1]
        rows_in = [[c[r] for c in basis.columns] for r in range(dim)]
        rows_out = [[c[r] for c in reduced.columns] for r in range(dim)]
        assert hnf_columns(rows_in) == hnf_columns(rows_out)
        done += 1
    report(7, "200 random bases: size-reduction, Lovasz, and HNF equality exact")


def test_criterion_08_incremental_update_lemmas():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(2, 5)
        dim = n + rng.randint(0, 2)
        while True:
            cols = [[rng.randint(-30, 30) for _ in range(dim)] for _ in range(n)]
            try:
                g = gso(cols)
                break
            except DependentColumns:
                continue
        k = rng.randint(1, n - 1)
        l = rng.randint(0, k - 1)
        gamma_mult = rng.randint(-5, 5)
        modified = [list(c) for c in cols]
        modified[k] = [a - gamma_mult * b for a, b in zip(modified[k], modified[l])]
        expect = gso(modified)
        got = gso_after_reduce(g, k, l, gamma_mult)
        assert got.mu == expect.mu and got.bstar == expect.bstar

        swapped = [list(c) for c in cols]
        swapped[k - 1], swapped[k] = swapped[k], swapped[k - 1]
        expect = gso(swapped)
        got = gso_after_swap(g, k)
        assert got.mu == expect.mu and got.bstar == expect.bstar
    report(8, "100 reduce and 100 exchange updates equal full recomputation")


def test_criterion_09_decomposition_contract():
    rng = random.Random(9)
    for _ in range(100):
        m = rng.randint(1, 2)
        n = m + rng.randint(2, 3)
        sys = random_small_system(rng, m, n)
        kd = decompose(sys)
        a_rows = [list(r) for r in sys.A]
        assert all(v == 0 for row in mat_mul(a_rows, [list(r) for r in kd.D])
                   for v in row)
        assert det_bareiss(kd.unimodular_part()) in (1, -1)
        ours = kd.kernel_columns()
        theirs = kernel_basis(a_rows)
        h_ours = hnf_columns([[c[i] for c in ours] for i in range(n)])
        h_theirs = hnf_columns([[c[i] for c in theirs] for i in range(n)])
        assert h_ours == h_theirs
        rhs = [rng.randint(1, 40) for _ in range(m)]
        assert (special_solution(kd, rhs) is not None) == integer_solvable(a_rows, rhs)
    report(9, "100 systems: kernel/unimodular blocks and solvability match oracles")


def test_criterion_10_invariance_theorems():
    rng = random.Random(10)
    shifts_checked = 0
    # One low-dimension kernel (s = 2) and two generated ones (s = 7).
    systems = [LdeSystem.from_rows([[3, 15, 6]], [9])]
    systems += [generate_instance(8, seed).instance.as_system() for seed in range(2)]
    for sys in systems:
        kd = decompose(sys)
        cols = kd.kernel_columns()
        n_rows = len(cols[0])
        xb = special_solution(kd, sys.b)
        base = reduce_solution(xb, kd)
        base_half = reduce_half(xb, kd)
        for _ in range(50):
            z = [rng.randint(-5, 5) for _ in cols]
            shifted = [xb[i] + sum(c[i] * zi for c, zi in zip(cols, z))
                       for i in range(len(xb))]
            assert reduce_solution(shifted, kd) == base
            assert reduce_half(shifted, kd) == base_half
            shifts_checked += 1
        D = [[c[i] for c in cols] for i in range(n_rows)]
        sym = reduce_solution(xb, D, rounding="symmetric")
        sym_half = reduce_half(xb, D, rounding="symmetric")
        s = len(cols)
        assert s <= 7
        for signs in itertools.product((1, -1), repeat=s):
            flipped = [[signs[j] * D[i][j] for j in range(s)] for i in range(n_rows)]
            assert reduce_solution(xb, flipped, rounding="symmetric") == sym
            assert reduce_half(xb, flipped, rounding="symmetric") == sym_half
    report(10, f"{shifts_checked} kernel shifts and all sign patterns leave outputs fixed")


def test_criterion_11_disaggregation_soundness():
    rng = random.Random(11)
    instances = []
    while len(instances) < 20:
        n = rng.randint(4, 10)
        a = [rng.randint(1, 30) for _ in range(n)]
        x = [rng.randint(0, 1) for _ in range(n)]
        b = sum(ai * xi for ai, xi in zip(a, x))
        if not 0 < b < sum(a):
            continue
        instances.append((a, b))
    points_checked = 0
    for a, b in instances:
        sols = binary_solutions_naive([a], [b])
        assert sols
        for jp in enumerate_jump_points((a, b)):
            r = jp.value
            num, den = r.numerator, r.denominator
            v = [ai * num // den for ai in a]
            w = b * num // den
            uk = uk_bound((a, b), r)
            for x in sols:
                k = w - sum(vi * xi for vi, xi in zip(v, x))
                assert 0 <= k <= uk
            points_checked += 1
        for _ in range(1000):
            r = Fraction(rng.randint(1, 9999), 10000)
            assert uk_bound((a, b), r) >= 0
        for _ in range(50):
            t = rng.randint(1, 29)
            M = rng.randint(t + 1, 30)
            is_ideal((a, b), DisaggParams(t, M))  # asserts three-way agreement
    report(11, f"{points_checked} jump points on 20 instances: bounds and "
               f"equivalences hold")


def test_criterion_12_njp_theorems_exhaustive():
    inst = SubsetSumInstance.from_coeffs([3, 15, 6], 9)
    x_tilde = [0, 1, -1]
    values = [jp.value for jp in enumerate_jump_points(inst)]
    pairs = list(zip(values, values[1:]))
    right_hits = left_hits = 0
    for r1, r2 in pairs:
        if njp_right_dominates(inst, r1, r2, x_tilde):
            right_hits += 1
            if cuts_off(inst, r1, x_tilde):
                assert cuts_off(inst, r2, x_tilde)
        if njp_left_dominates(inst, r1, r2, x_tilde):
            left_hits += 1
            if cuts_off(inst, r2, x_tilde):
                assert cuts_off(inst, r1, x_tilde)
    report(12, f"{len(pairs)} adjacent pairs: implications hold "
               f"({right_hits} right / {left_hits} left activations)")


def test_criterion_13_mve_identity_and_goldens():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 5)
        s = rng.randint(1, n)
        while True:
            D = [[rng.randint(-9, 9) for _ in range(s)] for _ in range(n + 2)]
            try:
                vol = lattice_volume(D)
                break
            except RankDeficient:
                continue
        mve = min_volume_ellipsoid(D)
        assert abs(mve.volume - gamma(s) * vol) <= 1e-6 * mve.volume
    d_a = [[-1, 1, 0, -5], [0, -1, -9, 5], [-1, 4, -3, 5], [1, 1, 5, 2],
           [-2, -8, 4, 4], [1, -4, -1, 0], [1, -1, 0, 5], [1, -4, 3, 5]]
    d_c = [[1, -3, -5, -7], [0, 1, -5, 5], [1, -6, 5, 3], [-1, 1, 9, 4],
           [2, 4, -2, 0], [-1, 6, -4, 2], [0, 1, 0, 6], [2, 1, 2, 4]]
    for D, axes, vol in ((d_a, (13.4214, 12.6793, 7.8505, 3.0782), 20294),
                         (d_c, (15.1941, 12.4433, 7.1633, 3.3181), 22176)):
        mve = min_volume_ellipsoid(D)
        for got, want in zip(mve.semi_axes, axes):
            assert abs(got - want) <= 1e-2
        assert abs(mve.volume - vol) <= 0.005 * vol
    report(13, "identity on 100 random kernels; worked semi-axes and volumes match")
