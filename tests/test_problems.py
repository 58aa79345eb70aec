"""Problem types, the complement map, density, and the text format."""

import math

import pytest

from knapcrack.errors import ParseError, RankDeficient
from knapcrack.problems import (LdeSystem, SubsetSumInstance, as_instance, complement,
                                format_system, normalize, parse_system)

from oracles import density

TOY = SubsetSumInstance.from_coeffs([3, 15, 6], 9)
MH = SubsetSumInstance.from_coeffs([171, 196, 457, 1191, 2410], 3797)


class TestInstances:
    def test_validation(self):
        with pytest.raises(ValueError):
            SubsetSumInstance.from_coeffs([3, 15, 6], 25)  # b > sum(a)
        with pytest.raises(ValueError):
            SubsetSumInstance.from_coeffs([3, 0, 6], 5)
        with pytest.raises(ValueError):
            SubsetSumInstance.from_coeffs([7], 3)

    def test_complement_toy(self):
        comp = complement(TOY)
        assert comp.instance.b == 9 + 6  # sum 24 minus 9
        assert comp.flipped

    def test_complement_of_b15(self):
        inst = SubsetSumInstance.from_coeffs([3, 15, 6], 15)
        assert complement(inst).instance.b == 9

    def test_complement_merkle_hellman_flags(self):
        comp = complement(MH)
        assert comp.instance.b == 628

    def test_complement_is_involution(self):
        comp = complement(MH)
        back = complement(comp.instance)
        assert back.instance.b == MH.b
        assert comp.map_back(back.map_back([0, 1, 0, 1, 1])) == [0, 1, 0, 1, 1]

    def test_normalize_flips_only_large_b(self):
        assert not normalize(TOY).flipped
        assert normalize(MH).flipped


class TestDensity:
    def test_power_of_two(self):
        inst = SubsetSumInstance.from_coeffs([2**8, 3, 5, 9, 2, 7, 11, 6], 280)
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

    def test_solution_check(self):
        sys = TOY.as_system()
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
        text = "# dag t=6 M=15\n" + format_system(TOY.as_system())
        assert as_instance(parse_system(text)) == TOY

    def test_malformed_rejected(self):
        for bad in ("", "1 3\n3 15 6\n", "2 3\n1 2 3\n9\n", "1 3\n3 15 x\n9\n",
                    "1 3 9\n3 15 6\n9\n", "1 3\n3 15 6\n9 9\n"):
            with pytest.raises(ParseError):
                parse_system(bad)
