"""Modular transform, jump points, cut-off predicates, NJP dominance."""

import random
from fractions import Fraction

import numpy as np
import pytest

from knapcrack import disagg
from knapcrack.disagg import (DisaggParams, build_disaggregated, cuts_off, g_value, is_ideal,
                              jump_points, modular_transform, row_coeffs)
from knapcrack.errors import InvalidInput, InvalidParams, NotASolution, SizeLimit
from knapcrack.problems import LdeSystem

from oracles import (NotNeighbours, binary_solutions_naive, enumerate_jump_points, njp_deltas,
                     njp_left_dominates, njp_right_dominates, uk_bound)

TOY = ([3, 15, 6], 9)
TOY_A, TOY_B = TOY
TOY_SYS = LdeSystem.from_rows([TOY_A], [TOY_B])
MH_A = [171, 196, 457, 1191, 2410]
MH_B = 3797
EX3 = LdeSystem.from_rows([[63, 9, 34, 46, 2, 55], [51, 19, 12, 44, 3, 25]], [99, 66])
X_TILDE = [0, 1, -1]


def image_at(problem, r: Fraction):
    """modular_transform of the (a, b) row at the ratio r = t/M."""
    return modular_transform(*problem, DisaggParams(r.numerator, r.denominator))


class TestModularTransform:
    def test_merkle_hellman_first_step(self):
        img = modular_transform(MH_A, MH_B, DisaggParams(79, 4426))
        assert img.c == (231, 2206, 695, 1143, 72)
        assert img.d == 3421

    def test_chain_steps_match_worked_example(self):
        params = [(79, 4426), (69, 4348), (3, 4280), (5, 4278)]
        expect = [((231, 2206, 695, 1143, 72), 3421),
                  ((2895, 34, 127, 603, 620), 1257),
                  ((125, 102, 381, 1809, 1860), 3771),
                  ((625, 510, 1905, 489, 744), 1743)]
        a, b = MH_A, MH_B
        for (t, M), (c_want, d_want) in zip(params, expect):
            img = modular_transform(a, b, DisaggParams(t, M))
            assert img.c == c_want and img.d == d_want
            a, b = list(img.c), img.d

    def test_toy_two_fifths(self):
        img = modular_transform([3, 15, 6], 9, DisaggParams(6, 15))
        assert img.v == (1, 6, 2) and img.w == 3 and img.u_k == 0 and img.n_k == 0

    def test_tiny_ratio_floors_vanish(self):
        img = modular_transform([3, 15, 6], 9, DisaggParams(1, 1000))
        assert img.v == (0, 0, 0) and img.w == 0
        assert img.c == (3, 15, 6) and img.d == 9

    def test_residue_relations(self):
        rng = random.Random(0)
        for _ in range(50):
            t = rng.randint(1, 99)
            M = rng.randint(t + 1, 200)
            img = modular_transform([3, 15, 6], 9, DisaggParams(t, M))
            for ai, ci, vi in zip([3, 15, 6], img.c, img.v):
                assert ci == t * ai - M * vi and 0 <= ci < M
            assert img.d == t * 9 - M * img.w and 0 <= img.d < M

    def test_params_validated(self):
        with pytest.raises(InvalidParams):
            DisaggParams(15, 15)
        with pytest.raises(InvalidParams):
            DisaggParams(0, 15)

    def test_bit_count_formula(self):
        import math
        for uk in range(0, 70):
            assert uk.bit_length() == math.ceil(math.log2(uk + 1))


class TestBoundFunctions:
    def test_g_at_one_half(self):
        assert g_value(TOY, Fraction(1, 2)) == Fraction(1, 2)

    def test_g_below_first_jump(self):
        r = Fraction(1, 16)  # below 1/15, all floors zero
        assert g_value(TOY, r) == 15 * r

    def test_floor_of_g_is_uk(self):
        rng = random.Random(1)
        for _ in range(300):
            r = Fraction(rng.randint(1, 999), 1000)
            assert image_at(TOY, r).u_k == uk_bound(TOY, r) == g_value(TOY, r).__floor__()

    def test_uk_worked_values(self):
        assert image_at(TOY, Fraction(2, 5)).u_k == 0
        img = image_at(([63, 9, 34, 46, 2, 55], 99), Fraction(1, 63))
        assert (img.u_k, img.n_k) == (1, 1)

    def test_every_binary_solution_respects_bound(self):
        sols = binary_solutions_naive([TOY_A], [TOY_B])
        assert sols
        for jp in jump_points(TOY):
            r = jp.value
            img = image_at(TOY, r)
            assert img.u_k == uk_bound(TOY, r)
            for x in sols:
                k = img.w - sum(vi * xi for vi, xi in zip(img.v, x))
                assert 0 <= k <= img.u_k

    def test_corollary_nonnegative(self):
        rng = random.Random(2)
        for inst in (TOY, (MH_A, MH_B)):
            for _ in range(1000):
                r = Fraction(rng.randint(1, 9999), 10000)
                img = image_at(inst, r)
                assert img.u_k == uk_bound(inst, r) >= 0
                assert img.n_k == img.u_k.bit_length()


class TestIdealPoints:
    def test_merkle_hellman_chain_all_ideal(self):
        a, b = MH_A, MH_B
        for t, M in [(79, 4426), (69, 4348), (3, 4280), (5, 4278)]:
            assert is_ideal((a, b), DisaggParams(t, M))
            img = modular_transform(a, b, DisaggParams(t, M))
            a, b = list(img.c), img.d

    def test_toy_two_fifths_ideal(self):
        assert is_ideal(TOY, DisaggParams(6, 15))

    def test_three_conditions_agree_everywhere(self):
        rng = random.Random(3)
        for _ in range(300):
            t = rng.randint(1, 49)
            M = rng.randint(t + 1, 50)
            is_ideal(TOY, DisaggParams(t, M))  # raises if any pair disagrees


class TestBuildDisaggregated:
    def test_worked_two_row_chain(self):
        d1 = build_disaggregated(EX3, 0, DisaggParams(1, 63))
        assert d1.extra_row == (1, 0, 0, 0, 0, 0, 1)
        assert d1.extra_rhs == 1 and d1.k_count == 1
        d2 = build_disaggregated(d1.system, 1, DisaggParams(22, 51))
        assert d2.extra_row == (22, 8, 5, 18, 1, 10, 0, 1)
        assert d2.extra_rhs == 28 and d2.k_count == 1
        full = d2.system
        assert full.m == 4 and full.n == 8

    def test_ideal_point_adds_no_unknowns(self):
        d = build_disaggregated(TOY_SYS, 0, DisaggParams(6, 15))
        assert d.k_count == 0
        assert d.system.n == 3 and d.system.m == 2

    def test_solution_set_equivalence(self):
        # Binary solutions of the augmented system project onto exactly the
        # binary solutions of the base.
        for t, M in [(6, 15), (1, 9), (2, 9), (4, 9), (7, 15)]:
            d = build_disaggregated(TOY_SYS, 0, DisaggParams(t, M))
            aug = d.system
            base_sols = {tuple(s) for s in binary_solutions_naive([TOY_A], [TOY_B])}
            aug_sols = binary_solutions_naive([list(r) for r in aug.A], list(aug.b))
            assert {s[:3] for s in aug_sols} == base_sols


class TestJumpPoints:
    def test_toy_has_23_distinct(self):
        jps = jump_points(TOY)
        assert len(jps) == 23
        values = [jp.value for jp in jps]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_one_third_sources(self):
        jps = {jp.value: jp.sources for jp in jump_points(TOY)}
        src = jps[Fraction(1, 3)]
        assert "a1" in src      # 1/3
        assert "b~" in src      # 5/15
        assert "b" in src       # 3/9

    def test_heap_merge_matches_enumeration(self):
        # The full list equals the sort-based reference, and every limit k
        # gives its first k points, on the toy and on random rows with zero,
        # unit and repeated coefficients.
        rng = random.Random(7)
        rows = [TOY]
        while len(rows) < 201:
            a = [rng.randint(0, 12) for _ in range(rng.randint(1, 4))]
            rows.append((a, rng.randint(0, sum(a))))
        for row in rows:
            points = enumerate_jump_points(row)
            assert jump_points(row) == points
            for k in range(1, len(points) + 2):
                assert jump_points(row, k) == points[:k]

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(disagg, "JUMP_CAP", 100)
        with pytest.raises(SizeLimit):
            jump_points((MH_A, MH_B))
        assert jump_points((MH_A, MH_B), 3) == enumerate_jump_points((MH_A, MH_B))[:3]


class TestRowCoeffs:
    def test_non_integral_row_refused(self):
        # int() would truncate either row to TOY.
        for row in (([Fraction(7, 2), 15, 6], 9), ([3, 15, 6], 9.9)):
            with pytest.raises(InvalidInput, match="not all integers"):
                row_coeffs(row)
            for use in (lambda: jump_points(row, 3), lambda: is_ideal(row, DisaggParams(2, 5)),
                        lambda: modular_transform(*row, DisaggParams(2, 5)),
                        lambda: cuts_off(row, Fraction(2, 5), X_TILDE)):
                with pytest.raises(InvalidInput, match="not all integers"):
                    use()

    def test_integers_of_any_type_pass(self):
        a, b = row_coeffs(((np.int64(3), True, 6.0), np.int32(9)))
        assert (a, b) == ([3, 1, 6], 9) and all(type(v) is int for v in a + [b])


class TestCutsOff:
    def test_worked_values(self):
        assert cuts_off(TOY, Fraction(2, 5), X_TILDE) is True
        assert cuts_off(TOY, Fraction(1, 2), X_TILDE) is False

    def test_binary_solutions_never_cut(self):
        for jp in jump_points(TOY):
            assert cuts_off(TOY, jp.value, [1, 0, 1]) is False

    def test_non_solution_rejected(self):
        with pytest.raises(NotASolution):
            cuts_off(TOY, Fraction(1, 2), [1, 1, 1])

    def test_non_integral_x_tilde_refused(self):
        # int() would make it [1, 0, 1], a solution.
        with pytest.raises(InvalidInput, match="not all integers"):
            cuts_off(TOY, Fraction(1, 2), [1, 0.5, 1])

    @pytest.mark.parametrize("r", [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)])
    def test_ratio_outside_the_unit_interval_rejected(self, r):
        with pytest.raises(ValueError, match="need 0 < r < 1"):
            cuts_off(TOY, r, X_TILDE)


class TestNjp:
    def all_adjacent_pairs(self):
        jps = [jp.value for jp in jump_points(TOY)]
        return list(zip(jps, jps[1:]))

    def test_deltas_match_recomputation(self):
        bt = sum(TOY_A) - TOY_B
        for r1, r2 in self.all_adjacent_pairs():
            d = njp_deltas(TOY, r1, r2)
            for ai, dv in zip(TOY_A, d.dv):
                assert dv == (ai * r2.numerator // r2.denominator
                              - ai * r1.numerator // r1.denominator)
            assert d.du_k == uk_bound(TOY, r2) - uk_bound(TOY, r1)
            assert d.dw_tilde == (bt * r2.numerator // r2.denominator
                                  - bt * r1.numerator // r1.denominator)

    def test_deltas_observation_for_coefficient_jumps(self):
        for r1, r2 in self.all_adjacent_pairs():
            d = njp_deltas(TOY, r1, r2)
            assert all(v in (0, 1) for v in d.dv)
            assert d.dw in (0, 1)
            for i, ai in enumerate(TOY_A):
                hits_ai = (r2 * ai).denominator == 1 and 1 <= r2 * ai <= ai - 1
                assert (d.dv[i] == 1) == hits_ai
            hits_b = (r2 * TOY_B).denominator == 1
            assert (d.dw == 1) == hits_b

    def test_non_neighbours_rejected(self):
        with pytest.raises(NotNeighbours):
            njp_deltas(TOY, Fraction(1, 15), Fraction(1, 6))  # 1/9, 2/15 between
        with pytest.raises(NotNeighbours):
            njp_deltas(TOY, Fraction(1, 7), Fraction(1, 6))  # 1/7 not a jump point
        with pytest.raises(NotNeighbours):
            njp_deltas(TOY, Fraction(1, 6), Fraction(1, 15))  # wrong order

    def test_right_dominance_implication(self):
        # Condition (a) of the first NJP theorem mechanically implies the
        # cut implication (c), checked on every adjacent pair.
        for r1, r2 in self.all_adjacent_pairs():
            if njp_right_dominates(TOY, r1, r2, X_TILDE):
                if cuts_off(TOY, r1, X_TILDE):
                    assert cuts_off(TOY, r2, X_TILDE)

    def test_right_dominance_reachable(self):
        # The predicate itself is satisfiable on the toy (with a binary
        # witness the implication is vacuous, cuts_off being always false).
        hits = [pair for pair in self.all_adjacent_pairs()
                if njp_right_dominates(TOY, *pair, [1, 0, 1])]
        assert hits

    def test_left_dominance_implication(self):
        checked = 0
        for r1, r2 in self.all_adjacent_pairs():
            if njp_left_dominates(TOY, r1, r2, X_TILDE):
                checked += 1
                if cuts_off(TOY, r2, X_TILDE):
                    assert cuts_off(TOY, r1, X_TILDE)
        assert checked > 0

    def test_empty_interval_is_never_dominant(self):
        # dv = 0 with dw~ = 1 makes the chain dw <= 0 <= -1 unsatisfiable.
        for r1, r2 in self.all_adjacent_pairs():
            d = njp_deltas(TOY, r1, r2)
            if all(v == 0 for v in d.dv) and d.dw_tilde == 1 and d.dw == 0:
                assert not njp_right_dominates(TOY, r1, r2, X_TILDE)

    def test_joint_dominance_forces_equalities(self):
        for r1, r2 in self.all_adjacent_pairs():
            if (njp_right_dominates(TOY, r1, r2, X_TILDE)
                    and njp_left_dominates(TOY, r1, r2, X_TILDE)):
                d = njp_deltas(TOY, r1, r2)
                dvx = sum(dv * x for dv, x in zip(d.dv, X_TILDE))
                assert dvx == d.dw == sum(d.dv) - d.dw_tilde


class TestPiecewiseConstancy:
    def test_image_constant_between_jumps(self):
        jps = [jp.value for jp in jump_points(TOY)]
        for r1, r2 in zip(jps, jps[1:]):
            samples = [r1 + (r2 - r1) * Fraction(k, 4) for k in (1, 2, 3)]
            images = []
            for r in samples:
                images.append(modular_transform(
                    TOY_A, TOY_B,
                    DisaggParams(r.numerator, r.denominator)))
            assert all(i.v == images[0].v and i.w == images[0].w
                       and i.u_k == images[0].u_k for i in images)
