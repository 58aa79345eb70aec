"""Solution-shortening sweeps: worked values and the invariance theorems."""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from knapcrack._lll_py import integral_gso
from knapcrack.errors import DependentColumns, DimensionMismatch
from knapcrack.formulations import attack_ahl, decompose, special_solution
from knapcrack.pipeline import generate_instance, generate_system
from knapcrack.problems import LdeSystem
from knapcrack.reduction import reduce_half, reduce_solution

from oracles import half_sweep_fraction, kernel_of, solve_integer_combination, sweep_fraction

TOY_SYS = LdeSystem.from_rows([[3, 15, 6]], [9])


def toy_kernel():
    return decompose(TOY_SYS)


class TestReduce:
    def test_orthogonal_kernel_fixed_point(self):
        # Kernel rows orthogonal and the target already nearest the origin.
        kernel_rows = [[2, 0, 0], [0, 3, 0]]  # columns of D as a 3x2 matrix
        D = [[2, 0], [0, 3], [0, 0]]
        assert reduce_solution([1, 1, 5], kernel_of(D)) == [1, 1, 5]

    def test_toy_returns_known_short_vector(self):
        kd = toy_kernel()
        xb = special_solution(kd, [9])
        out = reduce_solution(xb, kd)
        assert sum(a * v for a, v in zip([3, 15, 6], out)) == 9
        assert out == [0, 1, -1]

    def test_difference_lies_in_kernel_lattice(self):
        rng = random.Random(0)
        kd = toy_kernel()
        cols = kd.kernel_columns()
        for _ in range(20):
            z = [rng.randint(-5, 5) for _ in cols]
            xb = [3 + sum(c[i] * zi for c, zi in zip(cols, z)) for i in range(3)]
            xb[0] += 0  # xb = (3,0,0) + D z
            out = reduce_solution(xb, kd)
            diff = [a - b for a, b in zip(xb, out)]
            assert solve_integer_combination(cols, diff) is not None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            reduce_solution([1, 2], toy_kernel())


class TestReduceHalf:
    def test_toy_recenters_on_binary(self):
        kd = toy_kernel()
        xb = special_solution(kd, [9])
        out = reduce_half(xb, kd)
        assert sum(a * v for a, v in zip([3, 15, 6], out)) == 9
        assert out == [1, 0, 1]

    def test_result_integral_from_odd_parity(self):
        rng = random.Random(1)
        for seed in range(5):
            gen = generate_instance(10, seed)
            sys = gen.instance
            kd = decompose(sys)
            xb = special_solution(kd, sys.b)
            out = reduce_half(xb, kd)
            assert all(isinstance(v, int) for v in out)
            assert sys.is_solution(out)


class TestInvarianceTheorems:
    def test_input_shift_invariance(self):
        rng = random.Random(2)
        kd = toy_kernel()
        cols = kd.kernel_columns()
        xb = special_solution(kd, [9])
        base = reduce_solution(xb, kd)
        base_half = reduce_half(xb, kd)
        for _ in range(50):
            z = [rng.randint(-5, 5) for _ in cols]
            shifted = [xb[i] + sum(c[i] * zi for c, zi in zip(cols, z))
                       for i in range(len(xb))]
            assert reduce_solution(shifted, kd) == base
            assert reduce_half(shifted, kd) == base_half

    def test_input_shift_invariance_larger(self):
        rng = random.Random(3)
        for seed in range(3):
            gen = generate_instance(8, seed)
            sys = gen.instance
            kd = decompose(sys)
            cols = kd.kernel_columns()
            xb = special_solution(kd, sys.b)
            base = reduce_solution(xb, kd)
            base_half = reduce_half(xb, kd)
            for _ in range(10):
                z = [rng.randint(-5, 5) for _ in cols]
                shifted = [xb[i] + sum(c[i] * zi for c, zi in zip(cols, z))
                           for i in range(len(xb))]
                assert reduce_solution(shifted, kd) == base
                assert reduce_half(shifted, kd) == base_half

    def test_column_sign_invariance_symmetric_rounding(self):
        # Sign flips of kernel columns leave both sweeps unchanged, provided
        # half-ties round symmetrically: a rule only the oracle sweep has.
        for seed in range(3):
            gen = generate_instance(8, seed)
            sys = gen.instance
            kd = decompose(sys)
            cols = kd.kernel_columns()
            xb = special_solution(kd, sys.b)
            base = sweep_fraction(cols, xb, "symmetric")
            base_half = half_sweep_fraction(cols, xb, "symmetric")
            for signs in itertools.product((1, -1), repeat=len(cols)):
                flipped = [[sign * v for v in c] for sign, c in zip(signs, cols)]
                assert sweep_fraction(flipped, xb, "symmetric") == base
                assert half_sweep_fraction(flipped, xb, "symmetric") == base_half


class TestKernelGso:
    """The sweeps read the decomposition's GSO, the half sweep included."""

    @pytest.mark.parametrize("m, n, seed", [(1, 12, 0), (1, 16, 1), (2, 14, 2), (3, 16, 3)])
    def test_decomposition_gso_is_integral_gso_of_d(self, m, n, seed):
        kd = decompose(generate_system(m, n, seed).system)
        assert kd.gso == integral_gso(kd.kernel_columns())

    def test_decomposition_equals_plain_matrix(self):
        rng = random.Random(4)
        for seed in range(4):
            sys = generate_system(1 + seed % 2, 12, seed).system
            kd = decompose(sys)
            D = kernel_of(kd.D)
            xb = [v + rng.randint(-3, 3) for v in special_solution(kd, sys.b)]
            assert reduce_solution(xb, kd) == reduce_solution(xb, D)
            assert reduce_half(xb, kd) == reduce_half(xb, D)


class TestAgreementWithAhl:
    def test_reduce_equals_ahl_extraction(self):
        # Same short integer solution from either formulation (m = 1).
        agreements = 0
        for seed in range(8):
            gen = generate_instance(12, seed)
            sys = gen.instance
            kd = decompose(sys)
            xb = special_solution(kd, sys.b)
            ours = reduce_solution(xb, kd)
            ahl = attack_ahl(sys)
            if ahl.x is not None:
                assert list(ahl.x) == ours
                agreements += 1
        assert agreements >= 6


def kernel_from_cols(cols):
    """A decomposition whose kernel basis D has these columns."""
    return kernel_of(list(zip(*cols)))


@st.composite
def basis_and_target(draw):
    s = draw(st.integers(1, 6))
    dim = draw(st.integers(s, 8))
    entry = st.integers(-40, 40)
    cols = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                         min_size=s, max_size=s))
    target = draw(st.lists(st.integers(-10**6, 10**6), min_size=dim, max_size=dim))
    return cols, target


class TestOracleAgreement:
    """The integral sweep equals the rational reference under its one half-tie
    rule, ceil(q - 1/2).  Each tie case also pins the oracle's symmetric rule,
    which the sign-invariance theorem is checked under."""

    @settings(max_examples=150, deadline=None)
    @given(basis_and_target())
    def test_random_bases(self, case):
        cols, target = case
        D = kernel_from_cols(cols)
        try:
            expected = sweep_fraction(cols, target, "asymmetric")
        except DependentColumns:
            with pytest.raises(DependentColumns):
                reduce_solution(target, D)
            return
        assert reduce_solution(target, D) == expected
        assert reduce_half(target, D) == half_sweep_fraction(cols, target, "asymmetric")

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from([8, 10, 12, 14]), st.integers(0, 10**6),
           st.lists(st.integers(-3, 3), min_size=14, max_size=14))
    def test_decomposed_kernels(self, n, seed, shift):
        sys = generate_instance(n, seed).instance
        kd = decompose(sys)
        cols = kd.kernel_columns()
        xb = [v + dv for v, dv in zip(special_solution(kd, sys.b), shift)]
        assert reduce_solution(xb, kd) == sweep_fraction(cols, xb, "asymmetric")
        assert reduce_half(xb, kd) == half_sweep_fraction(cols, xb, "asymmetric")

    @pytest.mark.parametrize("rounding, expected", [("asymmetric", [1, 0, 5]),
                                                    ("symmetric", [-1, 0, 5])])
    def test_tie_after_update(self, rounding, expected):
        # mu_t1 = 1 is removed first, which leaves mu_t0 = 1 - 1/2: an exact tie.
        cols = [[2, 0, 0], [1, 1, 0]]
        target = [2, 1, 5]
        assert sweep_fraction(cols, target, rounding) == expected
        assert reduce_solution(target, kernel_from_cols(cols)) == sweep_fraction(
            cols, target, "asymmetric")

    @pytest.mark.parametrize("target, rounding, expected", [
        ([1, 0], "asymmetric", [1, 0]),
        ([1, 0], "symmetric", [-1, 0]),
        ([-1, 0], "asymmetric", [1, 0]),
        ([-1, 0], "symmetric", [1, 0]),
        ([3, 7], "asymmetric", [1, 7]),
        ([3, 7], "symmetric", [-1, 7]),
    ])
    def test_single_vector_ties(self, target, rounding, expected):
        cols = [[2, 0]]
        assert sweep_fraction(cols, target, rounding) == expected
        assert reduce_solution(target, kernel_from_cols(cols)) == sweep_fraction(
            cols, target, "asymmetric")

    @pytest.mark.parametrize("rounding, expected", [("asymmetric", [1, 0]),
                                                    ("symmetric", [0, 0])])
    def test_half_shift_tie(self, rounding, expected):
        # (2D | 2x - 1) = ((2, 0) | (1, -1)): the coefficient is exactly 1/2.
        cols = [[1, 0]]
        assert half_sweep_fraction(cols, [1, 0], rounding) == expected
        assert reduce_half([1, 0], kernel_from_cols(cols)) == half_sweep_fraction(
            cols, [1, 0], "asymmetric")

    @pytest.mark.parametrize("cols", [[[1, 0, 0], [2, 0, 0]],
                                      [[1, 2, 3], [0, 0, 0]],
                                      [[1, 1, 0], [0, 1, 1], [1, 2, 1]]])
    def test_dependent_basis_raises(self, cols):
        with pytest.raises(DependentColumns):
            reduce_solution([1, 2, 3], kernel_from_cols(cols))
        with pytest.raises(DependentColumns):
            reduce_half([1, 2, 3], kernel_from_cols(cols))
