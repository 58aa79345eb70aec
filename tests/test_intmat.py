"""Exact matrix helpers: determinants, solves, integer combinations."""

from fractions import Fraction

import pytest

from knapcrack.errors import DimensionMismatch, SingularE
from knapcrack.intmat import det_bareiss, gram, mat_mul, mat_vec, rank, solve_exact

from oracles import solve_integer_combination, transpose


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
    def test_exact_rational_solution(self):
        assert solve_exact([[2, 0], [0, 4]], [1, 2]) == [Fraction(1, 2), Fraction(1, 2)]

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
        assert mat_vec([[1, 2], [3, 4]], [1, 1]) == [3, 7]
        assert mat_mul([[1, 2]], [[3], [4]]) == [[11]]
        assert transpose([[1, 2], [3, 4]]) == [[1, 3], [2, 4]]
        with pytest.raises(DimensionMismatch):
            mat_vec([[1, 2]], [1])

    def test_rank(self):
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank([[1, 0], [0, 1]]) == 2
        assert rank([[0, 0], [0, 0]]) == 0

    def test_gram_symmetry(self):
        g = gram([[1, 2, 3], [0, 1, 1]])
        assert g == [[14, 5], [5, 2]]
