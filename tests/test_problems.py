"""The problem type, the complement map, density, and the text format."""

import math
from fractions import Fraction

import numpy as np
import pytest

from knapcrack.errors import InvalidInput, ParseError, RankDeficient
from knapcrack.problems import (LdeSystem, as_ints, complement, format_system, is_subset_sum,
                                normalize, parse_system)

from oracles import density

TOY = LdeSystem.from_rows([[3, 15, 6]], [9])
MH = LdeSystem.from_rows([[171, 196, 457, 1191, 2410]], [3797])


class TestInstances:
    def test_validation(self):
        # The subset-sum shape: one row, positive a, 0 < b < sum(a).
        assert is_subset_sum(TOY) and is_subset_sum(MH)
        assert not is_subset_sum(LdeSystem.from_rows([[3, 15, 6]], [24]))  # b = sum(a)
        assert not is_subset_sum(LdeSystem.from_rows([[3, 15, 6]], [25]))  # b > sum(a)
        assert not is_subset_sum(LdeSystem.from_rows([[3, 15, 6]], [0]))
        assert not is_subset_sum(LdeSystem.from_rows([[3, 0, 6]], [5]))
        assert not is_subset_sum(LdeSystem.from_rows([[1, 2, 3], [4, 5, 7]], [3, 9]))

    def test_complement_toy(self):
        assert complement(TOY).b == (9 + 6,)  # sum 24 minus 9
        assert complement(TOY).A == TOY.A

    def test_complement_of_b15(self):
        inst = LdeSystem.from_rows([[3, 15, 6]], [15])
        assert complement(inst).b == (9,)

    def test_complement_merkle_hellman_flags(self):
        assert complement(MH).b == (628,)

    def test_complement_is_involution(self):
        assert complement(complement(MH)) == MH
        x = [0, 1, 0, 1, 1]
        assert MH.is_solution(x) and complement(MH).is_solution([1 - v for v in x])

    def test_complement_of_each_row(self):
        sys = LdeSystem.from_rows([[1, 2, 3], [4, 5, 7]], [3, 9])
        assert complement(sys).b == (3, 7)

    def test_normalize_flips_only_large_b(self):
        assert normalize(TOY) == (TOY, False)
        assert normalize(MH) == (complement(MH), True)

    def test_normalize_leaves_other_shapes(self):
        # A zero coefficient or b = sum(a) is never flipped, even with b > sum(a)/2.
        for sys in (LdeSystem.from_rows([[3, 0, 6]], [6]),
                    LdeSystem.from_rows([[3, 15, 6]], [24]),
                    LdeSystem.from_rows([[1, 2, 3], [4, 5, 7]], [5, 12])):
            assert normalize(sys) == (sys, False)


class TestDensity:
    def test_power_of_two(self):
        inst = LdeSystem.from_rows([[2**8, 3, 5, 9, 2, 7, 11, 6]], [280])
        assert density(inst) == 8 / 8

    def test_merkle_hellman(self):
        assert density(MH) == pytest.approx(5 / math.log2(2410), abs=1e-9)
        assert density(MH) == pytest.approx(0.4451, abs=2e-4)

    def test_toy(self):
        assert density(TOY) == pytest.approx(3 / math.log2(15), abs=1e-12)


class TestSystems:
    def test_full_row_rank_enforced(self):
        with pytest.raises(RankDeficient):
            LdeSystem.from_rows([[1, 2, 3], [2, 4, 6]], [5, 10])

    def test_dimension_rules(self):
        with pytest.raises(ValueError):
            LdeSystem.from_rows([[1, 2], [3, 5]], [1, 2])  # m == n

    def test_from_rows_refuses_what_int_would_change(self):
        # int() would truncate the first three to an entry of TOY, and raises
        # ValueError on NaN and OverflowError on an infinity.
        nan, inf = float("nan"), float("inf")
        for rows, b in (([[3.9, 15, 6]], [9]), ([[3, 15, 6]], [9.9]),
                        ([[3, Fraction(31, 2), 6]], [9]), ([[nan, 15, 6]], [9]),
                        ([[inf, 1, 2]], [3]), ([[3, 15, 6]], [-inf])):
            with pytest.raises(InvalidInput, match="not all integers"):
                LdeSystem.from_rows(rows, b)
            with pytest.raises(InvalidInput, match="not all integers"):
                LdeSystem(tuple(map(tuple, rows)), tuple(b))
        with pytest.raises(InvalidInput, match="not all integers"):
            as_ints([nan, 1])
        sys = LdeSystem.from_rows([[np.int64(3), 15, 6.0], [True, 0, np.uint8(2)]],
                                  (np.int32(9), False))
        assert sys == LdeSystem.from_rows([[3, 15, 6], [1, 0, 2]], [9, 0])
        assert all(type(v) is int for row in sys.A for v in row + sys.b)

    def test_solution_check(self):
        sys = TOY
        assert sys.is_solution([1, 0, 1])
        assert not sys.is_solution([1, 1, 0])


class TestTextFormat:
    def test_round_trip(self):
        sys = LdeSystem.from_rows([[63, 9, 34, 46, 2, 55], [51, 19, 12, 44, 3, 25]],
                                  [99, 66])
        text = format_system(sys)
        assert parse_system(text) == sys
        assert text.endswith("\n") and " \n" not in text

    def test_comment_header_skipped(self):
        text = "# dag t=6 M=15\n" + format_system(TOY)
        assert parse_system(text) == TOY

    def test_malformed_rejected(self):
        for bad in ("", "1 3\n3 15 6\n", "2 3\n1 2 3\n9\n", "1 3\n3 15 x\n9\n",
                    "1 3 9\n3 15 6\n9\n", "1 3\n3 15 6\n9 9\n"):
            with pytest.raises(ParseError):
                parse_system(bad)
