"""Exact LLL and its rational GSO oracle: worked examples, update lemmas, and
reduction contracts."""

import random
from fractions import Fraction

import pytest

from knapcrack.disagg import DisaggParams, build_disaggregated
from knapcrack.errors import DependentColumns, InvalidAlpha
from knapcrack.formulations import (DEFAULT_N, DEFAULT_N1, ahl_basis, build_lattice_B,
                                    cjloss_basis)
from knapcrack._lll_py import round_nearest
from knapcrack.lattice import DEFAULT_ALPHA, LatticeBasis, lll
from knapcrack.pipeline import generate_instance

from oracles import (enumerate_lattice_shortest, gso, gso_after_reduce, gso_after_swap,
                     hnf_columns, independent_short_vectors, is_lll_reduced, naive_lll)


def random_basis(rng, n, dim, lo=-30, hi=30):
    while True:
        cols = [[rng.randint(lo, hi) for _ in range(dim)] for _ in range(n)]
        try:
            gso(cols)
            return LatticeBasis.from_columns(cols)
        except DependentColumns:
            continue


class TestNearestInteger:
    """The kernel's one half-tie rule, round_nearest(num, den, mode) ~ num/den."""

    def test_half_ties_round_down_positive(self):
        assert round_nearest(9, 2) == 4

    def test_half_ties_round_down_negative(self):
        assert round_nearest(-9, 2) == -5

    def test_plain_nearest(self):
        assert round_nearest(7, 3) == 2

    def test_symmetric_mode_is_odd(self):
        for num in range(-40, 41):
            assert round_nearest(-num, 4, "symmetric") == -round_nearest(num, 4, "symmetric")

    def test_residual_in_half_open_window(self):
        # ceil(q - 1/2) lands in [q - 1/2, q + 1/2), so the residual window
        # is [-1/2, 1/2) with the lower tie attained (4.5 -> 4).
        rng = random.Random(0)
        for _ in range(500):
            q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            z = round_nearest(q.numerator, q.denominator)
            assert Fraction(-1, 2) <= z - q < Fraction(1, 2)
        for num in range(-9, 10, 2):
            q = Fraction(num, 2)
            assert round_nearest(num, 2) - q == Fraction(-1, 2)


class TestGso:
    def test_orthogonal_input_unchanged(self):
        g = gso([(1, 0), (0, 1)])
        assert g.mu == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        assert g.bstar == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

    def test_hand_worked_two_columns(self):
        g = gso([(1, 1), (1, 0)])
        assert g.mu[1][0] == Fraction(1, 2)
        assert g.bstar[1] == (Fraction(1, 2), Fraction(-1, 2))
        assert g.bstar[0] == (Fraction(1), Fraction(1))

    def test_dependent_columns_rejected(self):
        with pytest.raises(DependentColumns):
            gso([(2, 0), (1, 0)])

    def test_first_star_is_first_column(self):
        rng = random.Random(1)
        for _ in range(20):
            basis = random_basis(rng, 3, 4)
            g = gso(basis.columns)
            assert g.bstar[0] == tuple(Fraction(x) for x in basis.columns[0])

    def test_reconstruction_and_orthogonality(self):
        rng = random.Random(2)
        for _ in range(20):
            basis = random_basis(rng, 4, 5)
            g = gso(basis.columns)
            n = basis.n
            for i in range(n):
                rebuilt = [sum(g.mu[i][j] * g.bstar[j][r] for j in range(n))
                           for r in range(basis.dim)]
                assert rebuilt == [Fraction(x) for x in basis.columns[i]]
                assert g.mu[i][i] == 1
                for j in range(i):
                    dot = sum(a * b for a, b in zip(g.bstar[i], g.bstar[j]))
                    assert dot == 0


class TestIncrementalUpdates:
    def test_reduce_zero_multiple_is_identity(self):
        g = gso([(1, 1), (1, 0)])
        assert gso_after_reduce(g, 1, 0, 0) is g

    def test_reduce_hand_worked(self):
        g = gso([(1, 1), (1, 0)])
        g2 = gso_after_reduce(g, 1, 0, 1)
        assert g2.mu[1][0] == Fraction(-1, 2)
        assert g2.bstar == g.bstar

    def test_reduce_index_errors(self):
        g = gso([(1, 1), (1, 0)])
        with pytest.raises(IndexError):
            gso_after_reduce(g, 0, 0, 1)
        with pytest.raises(IndexError):
            gso_after_reduce(g, 2, 0, 1)

    def test_swap_orthogonal_case(self):
        g = gso([(3, 0), (0, 2)])
        g2 = gso_after_swap(g, 1)
        assert g2.bstar == ((Fraction(0), Fraction(2)), (Fraction(3), Fraction(0)))
        assert g2.mu[1][0] == 0

    def test_swap_hand_worked(self):
        g = gso([(1, 1), (1, 0)])
        g2 = gso_after_swap(g, 1)
        direct = gso([(1, 0), (1, 1)])
        assert g2.mu == direct.mu
        assert g2.bstar == direct.bstar

    def test_reduce_matches_recomputation_random(self):
        rng = random.Random(3)
        for _ in range(100):
            basis = random_basis(rng, 3, 4)
            g = gso(basis.columns)
            k = rng.randint(1, 2)
            l = rng.randint(0, k - 1)
            gamma = rng.randint(-4, 4)
            cols = [list(c) for c in basis.columns]
            cols[k] = [a - gamma * b for a, b in zip(cols[k], cols[l])]
            expect = gso(cols)
            got = gso_after_reduce(g, k, l, gamma)
            assert got.mu == expect.mu
            assert got.bstar == expect.bstar

    def test_swap_matches_recomputation_random(self):
        rng = random.Random(4)
        for _ in range(100):
            basis = random_basis(rng, 4, 5)
            g = gso(basis.columns)
            for k in (1, 2, 3):
                cols = [list(c) for c in basis.columns]
                cols[k - 1], cols[k] = cols[k], cols[k - 1]
                expect = gso(cols)
                got = gso_after_swap(g, k)
                assert got.mu == expect.mu
                assert got.bstar == expect.bstar


class TestLll:
    def test_identity_already_reduced(self):
        basis = LatticeBasis.from_columns([(1, 0), (0, 1)])
        assert lll(basis, Fraction(3, 4)).columns == basis.columns

    def test_alpha_validation(self):
        basis = LatticeBasis.from_columns([(1, 0), (0, 1)])
        for bad in (Fraction(1, 4), Fraction(1), Fraction(5, 4), Fraction(0)):
            with pytest.raises(InvalidAlpha):
                lll(basis, bad)

    def test_finds_short_vector(self):
        basis = LatticeBasis.from_columns([(1, 0), (99, 1)])
        reduced = lll(basis, Fraction(3, 4))
        first_norm = sum(x * x for x in reduced.columns[0])
        assert first_norm <= 2
        shortest = enumerate_lattice_shortest([list(c) for c in basis.columns], 200)
        short_norm = sum(x * x for x in shortest)
        # beta = 4/(4*alpha - 1) = 2 at alpha = 3/4
        assert first_norm <= 2 ** (basis.n - 1) * short_norm

    def test_length_bound_lemma(self):
        rng = random.Random(5)
        for _ in range(10):
            basis = random_basis(rng, 3, 3, -9, 9)
            alpha = Fraction(3, 4)
            reduced = lll(basis, alpha)
            beta = Fraction(4) / (4 * alpha - 1)
            ys = independent_short_vectors([list(c) for c in basis.columns], 3, 3)
            maxnorm = max(sum(x * x for x in y) for y in ys)
            for j in range(len(ys)):
                norm_j = sum(x * x for x in reduced.columns[j])
                assert norm_j <= beta ** (basis.n - 1) * maxnorm

    def test_contract_on_random_bases(self):
        rng = random.Random(6)
        for _ in range(60):
            n = rng.randint(2, 5)
            basis = random_basis(rng, n, n + rng.randint(0, 2), -1000, 1000)
            for alpha in (Fraction(3, 4), Fraction(99, 100)):
                reduced = lll(basis, alpha)
                assert is_lll_reduced(reduced.columns, alpha)
                dim = basis.dim
                assert hnf_columns([[c[r] for c in reduced.columns] for r in range(dim)]) == \
                    hnf_columns([[c[r] for c in basis.columns] for r in range(dim)])

    def test_dependent_columns_rejected(self):
        with pytest.raises(DependentColumns):
            lll(LatticeBasis.from_columns([(1, 2), (2, 4)]))

    def test_dependency_in_last_column_rejected(self):
        # The first three columns reduce before the fourth is reached.
        with pytest.raises(DependentColumns, match="column 3"):
            lll(LatticeBasis.from_columns([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]))

    def test_zero_first_column_rejected(self):
        with pytest.raises(DependentColumns, match="column 0"):
            lll(LatticeBasis.from_columns([(0, 0), (1, 2)]))

    @pytest.mark.parametrize("n", [6, 8])
    def test_attack_bases_match_naive_reference(self, n):
        system = generate_instance(n, 0).instance.as_system()
        n2 = 2 ** (n + 1) * DEFAULT_N1 ** 2 + 1  # attack_ahl's default N2 at m = 1
        for basis in (build_lattice_B(system, DEFAULT_N), cjloss_basis(system, DEFAULT_N),
                      ahl_basis(system, DEFAULT_N1, n2)):
            assert [list(c) for c in lll(basis).columns] == naive_lll(
                [list(c) for c in basis.columns], DEFAULT_ALPHA)

    def test_dag_basis_matches_naive_reference(self):
        system = generate_instance(6, 0).instance.as_system()
        aug = build_disaggregated(system, 0, DisaggParams(1, 15)).system
        basis = build_lattice_B(aug, DEFAULT_N)
        assert (aug.m, basis.n) == (2, 8)
        assert [list(c) for c in lll(basis).columns] == naive_lll(
            [list(c) for c in basis.columns], DEFAULT_ALPHA)

    def test_matches_naive_reference_exactly(self):
        # Column-for-column agreement with a from-scratch textbook LLL,
        # across several alpha values including near both ends of (1/4, 1).
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(2, 5)
            basis = random_basis(rng, n, n + rng.randint(0, 2), -50, 50)
            alpha = rng.choice([Fraction(26, 100), Fraction(1, 2), Fraction(3, 4),
                                Fraction(99, 100), Fraction(999, 1000)])
            ours = lll(basis, alpha)
            theirs = naive_lll([list(c) for c in basis.columns], alpha)
            assert [list(c) for c in ours.columns] == theirs


@pytest.fixture
def sympy_lll():
    """sympy's LLL at alpha = 99/100, an implementation independent of ours."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def reduce(basis):
        # sympy reduces rows, so our columns go in as its rows.
        rows = DomainMatrix([[sympy.ZZ(x) for x in c] for c in basis.columns],
                            (basis.n, basis.dim), sympy.ZZ)
        return LatticeBasis.from_columns(rows.lll(delta=sympy.QQ(99, 100)).to_list())

    return reduce


def column_hnf(basis):
    return hnf_columns([[c[r] for c in basis.columns] for r in range(basis.dim)])


class TestAgainstSympy:
    def test_random_bases_identical(self, sympy_lll):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(2, 8)
            basis = random_basis(rng, n, n + rng.randint(0, 2), -1000, 1000)
            assert lll(basis) == sympy_lll(basis)

    @pytest.mark.parametrize("n", [10, 12])
    def test_knapsack_bases_same_lattice(self, sympy_lll, n):
        # The outputs may differ: sympy rounds mu = k + 1/2 up where we round
        # down, and its math.floor on a rational goes through a float, so it
        # misrounds once |mu| passes 2**53.
        for seed in range(6):
            system = generate_instance(n, seed).instance.as_system()
            basis = build_lattice_B(system, DEFAULT_N)
            ours, theirs = lll(basis), sympy_lll(basis)
            assert column_hnf(ours) == column_hnf(theirs) == column_hnf(basis)
            assert is_lll_reduced(ours.columns) and is_lll_reduced(theirs.columns)
