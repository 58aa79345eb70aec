"""Exact matrix helpers: determinants, solves, integer combinations."""

from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knapcrack import lattice
from knapcrack.errors import DimensionMismatch, SingularE
from knapcrack.intmat import det_bareiss, gram, products, rank, solve_exact

from oracles import (det_leibniz, mat_mul, rank_fraction, solve_exact_fraction,
                     solve_integer_combination, transpose)

ENTRIES = st.one_of(st.sampled_from([0, 1, -1, 2, -2, 2**200, -2**200]),
                    st.integers(-10**9, 10**9))


@st.composite
def matrices(draw, square=False):
    """m x n (m = n when square) with m 1-5, n 1-7; dependent rows and zero columns planted."""
    m = draw(st.integers(1, 5))
    n = m if square else draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        others = [k for k in range(m) if k != i]
        j, k = draw(st.sampled_from(others)), draw(st.sampled_from(others))
        c1, c2 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[i] = [c1 * x + c2 * y for x, y in zip(rows[j], rows[k])]
    if draw(st.booleans()):
        c = draw(st.integers(0, n - 1))
        for row in rows:
            row[c] = 0
    return rows


class TestDeterminant:
    def test_small_values(self):
        assert det_bareiss([[2]]) == 2
        assert det_bareiss([[1, 2], [3, 4]]) == -2
        assert det_bareiss([]) == 1

    def test_zero_pivot_needs_row_swap(self):
        assert det_bareiss([[0, 1], [1, 0]]) == -1
        assert det_bareiss([[0, 2, 1], [1, 0, 0], [0, 0, 3]]) == -6

    def test_singular(self):
        assert det_bareiss([[1, 2], [2, 4]]) == 0

    def test_big_entries_stay_exact(self):
        x = 10**30
        assert det_bareiss([[x, 1], [1, x]]) == x * x - 1

    def test_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            det_bareiss([[1, 2, 3], [4, 5, 6]])


class TestSolve:
    def test_integral_solution_in_ints(self):
        x = solve_exact([[2, 0], [0, 4]], [2, 8])
        assert x == [1, 2] and all(type(v) is int for v in x)

    def test_non_integral_solution_is_none(self):
        assert solve_exact([[2, 0], [0, 4]], [1, 2]) is None
        assert solve_exact([[2, 0], [0, 4]], [1, 4]) is None  # x_2 = 1 but x_1 = 1/2

    def test_negative_pivots(self):
        # det = -3: the back substitution divides by negative pivots.
        rows = [[2, 1], [1, -1]]
        assert det_bareiss(rows) == -3
        assert solve_exact(rows, [3, 0]) == [1, 1]
        assert solve_exact(rows, [-7, 1]) == [-2, -3]
        assert solve_exact(rows, [1, 0]) is None  # x = (1/3, 1/3)
        assert solve_exact(rows, [0, 1]) is None  # x = (1/3, -2/3)

    def test_singular_rejected(self):
        with pytest.raises(SingularE):
            solve_exact([[1, 2], [2, 4]], [1, 2])

    def test_integer_combination(self):
        cols = [[1, 0, 2], [0, 1, 1]]
        assert solve_integer_combination(cols, [3, -2, 4]) == [3, -2]
        assert solve_integer_combination(cols, [1, 1, 0]) is None  # 2*1+1 != 0
        assert solve_integer_combination([], [0, 0]) == []
        assert solve_integer_combination([], [1, 0]) is None


class TestBasics:
    def test_mat_ops_shapes(self):
        assert mat_mul([[1, 2]], [[3], [4]]) == [[11]]
        assert transpose([[1, 2], [3, 4]]) == [[1, 3], [2, 4]]
        with pytest.raises(DimensionMismatch):
            mat_mul([[1, 2]], [[1]])

    def test_rank(self):
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank([[1, 0], [0, 1]]) == 2
        assert rank([[0, 0], [0, 0]]) == 0

    def test_gram_symmetry(self):
        g = gram([[1, 2, 3], [0, 1, 1]])
        assert g == [[14, 5], [5, 2]]


# 0, +-1, and the edges of a C long and of two limbs, and far beyond both
CROSSING = [0, 1, -1, 2**63 - 1, 1 - 2**63, -2**63, 2**63, 2**64, -2**64, 2**200, -2**200]
PRODUCT_ENTRIES = st.one_of(st.sampled_from(CROSSING), st.integers(-3, 3))


@st.composite
def row_and_column_sets(draw):
    """0-6 rows and 0-6 columns of one length 0-6, entries from CROSSING or small."""
    n = draw(st.integers(0, 6))
    vectors = st.lists(st.lists(PRODUCT_ENTRIES, min_size=n, max_size=n), max_size=6)
    return draw(vectors), draw(vectors)


class TestCProducts:
    """The C products (_lll.c) return their Python twin's lists on every input."""

    @settings(max_examples=300, deadline=None)
    @given(row_and_column_sets())
    def test_crossing_entries_match_python(self, gmp_kernel, case):
        rows, cols = case
        expected = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in rows]
        assert lattice.PYTHON.products(rows, cols) == expected
        assert gmp_kernel.products(rows, cols) == expected
        assert gmp_kernel.products(tuple(map(tuple, rows)), tuple(map(tuple, cols))) == expected

    def test_sums_past_int128_match_python(self, gmp_kernel):
        # Two products of 2^126 pass 2^127; four wrap to 0 in 128 bits; and
        # a sum that passes 2^127 comes back to 0.
        a, low = 2**63 - 1, -2**63
        cases = [([[low] * 2], [[low] * 2]), ([[low] * 4], [[low] * 4, [low, low, a, 0]]),
                 ([[low, low, low, low, 2]], [[low, low, a, a, low], [a] * 5])]
        for rows, cols in cases:
            assert gmp_kernel.products(rows, cols) == lattice.PYTHON.products(rows, cols)

    def test_the_library_runs_the_c_products(self, gmp_kernel, kernel_calls):
        # With the C entries loaded, gram and products reach them, and return
        # what they return.
        cols = [[1, 2, -2**70], [3, 0, 1]]
        assert gram(cols) == gmp_kernel.products(cols, cols)
        assert products(cols[:1], cols) == gmp_kernel.products(cols[:1], cols)
        assert kernel_calls == ["products", "products"]

    def test_a_non_int_entry_raises_type_error(self, gmp_kernel):
        rows, cols = [[1, 2], [2**200, 3]], [[4, 5]]
        for bad in ([[1, 2.0], [2**200, 3]], [[1, 2], [2**200, "3"]], [[1, 2], [None, 2**200]]):
            for args in ((bad, cols), (cols, bad)):
                with pytest.raises(TypeError, match="must be an int"):
                    gmp_kernel.products(*args)
        # The state of the failed call was freed, and the next call runs.
        assert gmp_kernel.products(rows, cols) == lattice.PYTHON.products(rows, cols)

    def test_unequal_lengths_raise_value_error(self, gmp_kernel):
        for rows, cols in (([[1, 2]], [[1]]), ([[1], [1, 2]], [[1]]), ([], [[1], [1, 2]]),
                           ([[1, 2]], [[2**200, 1], [2**200]])):
            with pytest.raises(ValueError, match="share one length"):
                gmp_kernel.products(rows, cols)


class TestProducts:
    @pytest.mark.usefixtures("either_kernel")
    def test_unequal_lengths_raise_dimension_mismatch(self):
        # The Python products would zip them short, so both kernels check first.
        for rows, cols in (([[1, 2]], [[1]]), ([[1], [1, 2]], [[1]]), ([], [[1], [1, 2]])):
            with pytest.raises(DimensionMismatch):
                products(rows, cols)
        with pytest.raises(DimensionMismatch):
            gram([[1, 2, 3], [0, 1]])

    @pytest.mark.usefixtures("either_kernel")
    def test_empty_shapes(self):
        assert products([], []) == []
        assert products([[1, 2], [3, 4]], []) == [[], []]
        assert products([], [[1, 2]]) == []
        assert products([[], []], [[]]) == [[0], [0]]


class TestEliminationAgainstReferences:
    # One fraction-free elimination serves det, rank and solve; the
    # references eliminate in Fractions or expand by permutations.
    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_rank(self, rows):
        assert rank(rows) == rank_fraction(rows)

    @settings(max_examples=300, deadline=None)
    @given(matrices(square=True), st.lists(ENTRIES, min_size=5, max_size=5), st.booleans())
    def test_det_and_solve(self, rows, v, planted):
        # A planted right-hand side rows * v has the integral solution v.
        assert det_bareiss(rows) == det_leibniz(rows)
        v = v[:len(rows)]
        rhs = [sum(map(mul, row, v)) for row in rows] if planted else v
        try:
            expected = solve_exact_fraction(rows, rhs)
        except SingularE:
            with pytest.raises(SingularE):
                solve_exact(rows, rhs)
        else:
            assert not planted or expected == v
            integral = all(q.denominator == 1 for q in expected)
            assert solve_exact(rows, rhs) == (expected if integral else None)
