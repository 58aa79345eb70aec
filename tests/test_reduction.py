"""Solution-shortening sweeps: worked values and the invariance theorems."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from knapcrack import lattice
from knapcrack.errors import DependentColumns, DimensionMismatch, InvalidInput
from knapcrack.formulations import attack_ahl, decompose, special_solution
from knapcrack.lattice import LatticeBasis, lll
from knapcrack.pipeline import generate_instance, generate_system
from knapcrack.problems import LdeSystem
from knapcrack.reduction import reduce_half, reduce_solution

from oracles import (a_long, half_sweep_fraction, integral_gso, kernel_of, overflow_at,
                     solve_integer_combination, sweep_fraction, sweep_updates)

TOY_SYS = LdeSystem.from_rows([[3, 15, 6]], [9])


def toy_kernel():
    return decompose(TOY_SYS)


def in_each_sweep(run):
    """run() with the Python sweep pinned, then with the C sweep where it
    builds (the Python one again where it does not): both results."""
    native = lattice._native()
    results = []
    with pytest.MonkeyPatch.context() as mp:
        for kernel in (lattice.PYTHON, native):
            mp.setattr(lattice, "_kernel", kernel)
            results.append(run())
    return results


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
        cols = kd.kernel_columns
        for _ in range(20):
            z = [rng.randint(-5, 5) for _ in cols]
            xb = [3 + sum(c[i] * zi for c, zi in zip(cols, z)) for i in range(3)]
            xb[0] += 0  # xb = (3,0,0) + D z
            out = reduce_solution(xb, kd)
            diff = [a - b for a, b in zip(xb, out)]
            assert solve_integer_combination(cols, diff) is not None

    def test_dimension_mismatch(self):
        # reduction checks the target's length before either kernel's sweep
        # runs.
        kd = toy_kernel()

        def mismatches():
            for reduce in (reduce_solution, reduce_half):
                for target in ([1, 2], [1, 2, 3, 4]):
                    with pytest.raises(DimensionMismatch):
                        reduce(target, kd)
            return reduce_half([1, 2, 3], kd)

        assert in_each_sweep(mismatches) == [reduce_half([1, 2, 3], kd)] * 2

    def test_non_integral_x_b_refused(self):
        # int() would truncate it to (3, 0, 0), the toy's particular solution.
        kd = toy_kernel()
        for reduce in (reduce_solution, reduce_half):
            with pytest.raises(InvalidInput, match="not all integers"):
                reduce([3.5, 0, Fraction(1, 2)], kd)


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
        cols = kd.kernel_columns
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
            cols = kd.kernel_columns
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
            cols = kd.kernel_columns
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
    def test_decomposition_gso_is_integral_gso_of_d(self, m, n, seed, monkeypatch):
        # The Gram-Schmidt LLL ended with, in the Python loop and in the C
        # loop where it builds, against the oracle's of D.
        system = generate_system(m, n, seed).system
        for kernel in (lattice.PYTHON, lattice._native()):
            monkeypatch.setattr(lattice, "_kernel", kernel)
            kd = decompose(system)
            assert kd.gso == integral_gso(kd.kernel_columns)

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
        try:
            expected = sweep_fraction(cols, target, "asymmetric")
        except DependentColumns:
            with pytest.raises(DependentColumns):
                kernel_from_cols(cols)
            return
        D = kernel_from_cols(cols)
        assert reduce_solution(target, D) == expected
        assert reduce_half(target, D) == half_sweep_fraction(cols, target, "asymmetric")

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from([8, 10, 12, 14]), st.integers(0, 10**6),
           st.lists(st.integers(-3, 3), min_size=14, max_size=14))
    def test_decomposed_kernels(self, n, seed, shift):
        sys = generate_instance(n, seed).instance
        kd = decompose(sys)
        cols = kd.kernel_columns
        xb = [v + dv for v, dv in zip(special_solution(kd, sys.b), shift)]
        expected = (sweep_fraction(cols, xb, "asymmetric"),
                    half_sweep_fraction(cols, xb, "asymmetric"))
        assert in_each_sweep(lambda: (reduce_solution(xb, kd), reduce_half(xb, kd))) == \
            [expected] * 2

    @pytest.mark.parametrize("rounding, expected", [("asymmetric", [1, 0, 5]),
                                                    ("symmetric", [-1, 0, 5])])
    def test_tie_after_update(self, rounding, expected):
        # mu_t1 = 1 is removed first, which leaves mu_t0 = 1 - 1/2: an exact tie.
        cols = [[2, 0, 0], [1, 1, 0]]
        target = [2, 1, 5]
        assert sweep_fraction(cols, target, rounding) == expected
        kd = kernel_from_cols(cols)
        assert in_each_sweep(lambda: reduce_solution(target, kd)) == \
            [sweep_fraction(cols, target, "asymmetric")] * 2

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
        kd = kernel_from_cols(cols)
        assert in_each_sweep(lambda: reduce_solution(target, kd)) == \
            [sweep_fraction(cols, target, "asymmetric")] * 2

    @pytest.mark.parametrize("rounding, expected", [("asymmetric", [1, 0]),
                                                    ("symmetric", [0, 0])])
    def test_half_shift_tie(self, rounding, expected):
        # (2D | 2x - 1) = ((2, 0) | (1, -1)): the coefficient is exactly 1/2.
        cols = [[1, 0]]
        assert half_sweep_fraction(cols, [1, 0], rounding) == expected
        kd = kernel_from_cols(cols)
        assert in_each_sweep(lambda: reduce_half([1, 0], kd)) == \
            [half_sweep_fraction(cols, [1, 0], "asymmetric")] * 2

    @pytest.mark.parametrize("cols", [[[1, 0, 0], [2, 0, 0]],
                                      [[1, 2, 3], [0, 0, 0]],
                                      [[1, 1, 0], [0, 1, 1], [1, 2, 1]]])
    def test_dependent_basis_raises(self, cols):
        # A sweep reads the Gram-Schmidt its decomposition was built with, and
        # none is built for dependent columns: LLL raises on them, and so
        # does the oracle's kernel_of.
        with pytest.raises(DependentColumns, match="column"):
            kernel_from_cols(cols)


# 0, +-1, and the edges of a C long and of two limbs, and far beyond both
CROSSING = [0, 1, -1, 2**63 - 1, 1 - 2**63, -2**63, 2**63, 2**64, -2**64, 2**200, -2**200]
SWEEP_ENTRIES = st.one_of(st.sampled_from(CROSSING), st.integers(-3, 3))


def e(r, v=1, dim=5):
    return [v if i == r else 0 for i in range(dim)]


# Two-column kernels whose d[1] or lam[1][0] is each value of CROSSING that a
# d or a lam can take: d[1] = ||D_0||^2 with 2^63 - 1 as a sum of four
# squares, and lam[1][0] = <D_1, D_0>.
EDGE_GSO_KERNELS = (
    [[col, [1, 0, 0, 0, 1]] for col in (e(0), [3037000499, 76994, 671, 23, 0],
                                        [2**31, 2**31, 0, 0, 0], e(0, 2**32), e(0, 2**100))]
    + [[e(0), [v, 0, 0, 0, 1]] for v in CROSSING])


@st.composite
def crossing_kernel_and_target(draw):
    """Independent columns and a target whose entries cross a C long, so
    that their d and lam do too."""
    n = draw(st.integers(1, 5))
    s = draw(st.integers(1, n))
    column = st.lists(SWEEP_ENTRIES, min_size=n, max_size=n)
    cols = [draw(column) for _ in range(s)]
    try:
        integral_gso(cols)
    except DependentColumns:
        assume(False)
    return cols, draw(column)


def c_sweep_outcome(gmp_kernel, cols, target, step):
    """The C sweep's vector and the Python sweep's, on the decomposition of cols."""
    kd = kernel_from_cols(cols)
    return (gmp_kernel.sweep(kd.kernel_columns, *kd.gso, target, step),
            lattice.PYTHON.sweep(kd.kernel_columns, *kd.gso, target, step))


class TestCSweep:
    """The C sweep (_lll.c) returns its Python twin's vector on every input."""

    @settings(max_examples=300, deadline=None)
    @given(crossing_kernel_and_target(), st.sampled_from([1, 2]))
    def test_crossing_entries_match_python(self, gmp_kernel, case, step):
        cols, target = case
        ours, reference = c_sweep_outcome(gmp_kernel, cols, target, step)
        assert ours == reference

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(EDGE_GSO_KERNELS), st.lists(SWEEP_ENTRIES, min_size=5, max_size=5),
           st.sampled_from([1, 2]))
    def test_edge_d_and_lam_match_python(self, gmp_kernel, cols, target, step):
        ours, reference = c_sweep_outcome(gmp_kernel, cols, target, step)
        assert ours == reference

    def test_edge_kernels_reach_every_value(self):
        d1 = {integral_gso(cols)[0][1] for cols in EDGE_GSO_KERNELS}
        lam10 = {integral_gso(cols)[1][1][0] for cols in EDGE_GSO_KERNELS}
        assert {2**63 - 1, 2**63, 2**64, 2**200} <= d1
        assert set(CROSSING) <= lam10

    @pytest.mark.parametrize("target", [[0, 0, 5, 7], [0, 0, 0, 7], [0, 0, 0, 0],
                                        [0, 0, -2**63, 2**200]])
    def test_zero_prefix_of_inner_products(self, gmp_kernel, target):
        # The target is orthogonal to the first two columns, or all three.
        cols = [e(0, 3, 4), e(1, 2, 4), [1, 1, 1, 0]]
        for step in (1, 2):
            ours, reference = c_sweep_outcome(gmp_kernel, cols, target, step)
            assert ours == reference

    def test_sums_past_int128_match_python(self, gmp_kernel):
        # An inner product of four terms 2^126, whose sum wraps to 0 in 128
        # bits; a target in the lattice of columns -2^63 e_0 + e_(j+1),
        # whose q's are +-(2^63 - 1), so that target - D q passes 2^127
        # between words before it returns to 0; and a target whose first
        # update takes 2 (2^62 + 1) off its second coordinate, past a long,
        # so that sub_column widens it partway, and whose second update brings
        # it back to words.
        a = 2**63 - 1
        cases = [([[-2**63] * 4 + [1]], [-2**63] * 4 + [0])]
        cols = [[-2**63] + e(j, 1, 6) for j in range(6)]
        for target in ([0, -a, -a, -a, a, a, a], [0, -a, -a, -a, a, a, a - 1]):
            cases.append((cols, target))
        cols, target = [[0, 2**62 + 1, 1], [1, 2**62 + 1, 0]], [2, -3, -2]
        for step in (1, 2):
            first, second = sweep_updates(cols, target, step)
            assert overflow_at(*first) == 1 and not all(map(a_long, second[0]))
            assert all(map(a_long, lattice.PYTHON.sweep(cols, *integral_gso(cols), target, step)))
        cases.append((cols, target))
        for cols, target in cases:
            for step in (1, 2):
                ours, reference = c_sweep_outcome(gmp_kernel, cols, target, step)
                assert ours == reference

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(SWEEP_ENTRIES, min_size=n, max_size=n).filter(any),
        st.lists(SWEEP_ENTRIES, min_size=n, max_size=n))), st.sampled_from([1, 2]))
    def test_one_column_kernels_match_python(self, gmp_kernel, case, step):
        col, target = case
        ours, reference = c_sweep_outcome(gmp_kernel, [col], target, step)
        assert ours == reference

    def test_the_library_runs_the_c_sweep(self, gmp_kernel, kernel_calls):
        # With the C entries loaded, lll and both sweeps reach them, and
        # return what they return.
        basis = LatticeBasis(((3, 1, 0), (1, 4, 1)))
        assert lll(basis, prefix=2) == gmp_kernel.reduce(basis.columns, 99, 100, 2)
        assert kernel_calls == ["reduce"]
        kd = toy_kernel()
        kernel_calls.clear()
        cols, (d, lam) = kd.kernel_columns, kd.gso
        assert reduce_solution([3, 0, 0], kd) == gmp_kernel.sweep(cols, d, lam, [3, 0, 0], 1)
        assert reduce_half([3, 0, 0], kd) == \
            [(v + 1) // 2 for v in gmp_kernel.sweep(cols, d, lam, [5, -1, -1], 2)]
        assert kernel_calls == ["sweep", "sweep"]

    def test_a_non_int_entry_raises_type_error(self, gmp_kernel):
        kd = toy_kernel()
        cols, (d, lam), target = kd.kernel_columns, kd.gso, [3, 0, 0]
        bad_cols = [list(c) for c in cols]
        bad_cols[-1][-1] = 1.0
        bad_lam = [list(row) for row in lam]
        bad_lam[-1][-1] = Fraction(bad_lam[-1][-1])
        for args in ((bad_cols, d, lam, target), (cols, [*d[:-1], str(d[-1])], lam, target),
                     (cols, d, bad_lam, target), (cols, d, lam, [3, None, 0])):
            for step in (1, 2):
                with pytest.raises(TypeError, match="must be an int"):
                    gmp_kernel.sweep(*args, step)
        # The state of the failed call was freed, and the next call runs.
        assert gmp_kernel.sweep(cols, d, lam, target, 1) == \
            lattice.PYTHON.sweep(cols, d, lam, target, 1)

    def test_an_empty_kernel_leaves_the_target(self):
        kd = kernel_of([[], [], []])
        assert in_each_sweep(lambda: (reduce_solution([3, -2**200, 0], kd),
                                      reduce_half([3, -2**200, 0], kd))) == \
            [([3, -2**200, 0], [3, -2**200, 0])] * 2

    def test_shapes_that_do_not_match_raise_value_error(self, gmp_kernel):
        kd = toy_kernel()
        cols, (d, lam) = kd.kernel_columns, kd.gso
        for args in ((cols, d, lam, [], 1),
                     (cols, d, lam, [3, 0, 0], 0), (cols, d[:-1], lam, [3, 0, 0], 1),
                     (cols, d, lam[:-1], [3, 0, 0], 1), (cols, d, [[], [1, 2]], [3, 0, 0], 1),
                     (cols, [1, 0, d[2]], lam, [3, 0, 0], 1),
                     ([cols[0], cols[1][:2]], d, lam, [3, 0, 0], 1)):
            with pytest.raises(ValueError):
                gmp_kernel.sweep(*args)
