"""Exact LLL and its rational GSO oracle: worked examples, update lemmas, and
reduction contracts."""

import hashlib
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knapcrack.disagg import DisaggParams, build_disaggregated
from knapcrack.errors import DependentColumns, InvalidAlpha, SearchExhausted
from knapcrack.formulations import (DEFAULT_N, DEFAULT_N1, ahl_basis, attack_ahl, attack_cjloss,
                                    attack_lo, build_lattice_B, cjloss_basis)
from knapcrack import lattice
from knapcrack.lattice import DEFAULT_ALPHA, LatticeBasis, gso_row, lll, round_nearest
from knapcrack.pipeline import SearchConfig, attack, generate_instance, generate_system
from knapcrack.problems import complement

from oracles import (basis_of, enumerate_lattice_shortest, gso, gso_after_reduce, gso_after_swap,
                     hnf_columns, independent_short_vectors, integral_gso, is_lll_reduced,
                     lemma_lll, naive_lll)


def random_basis(rng, n, dim, lo=-30, hi=30):
    while True:
        cols = [[rng.randint(lo, hi) for _ in range(dim)] for _ in range(n)]
        try:
            gso(cols)
            return basis_of(cols)
        except DependentColumns:
            continue


class TestNearestInteger:
    """The kernel's one half-tie rule, round_nearest(num, den) ~ num/den."""

    def test_half_ties_round_down_positive(self):
        assert round_nearest(9, 2) == 4

    def test_half_ties_round_down_negative(self):
        assert round_nearest(-9, 2) == -5

    def test_plain_nearest(self):
        assert round_nearest(7, 3) == 2

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
                           for r in range(len(basis.columns[0]))]
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
        basis = basis_of([(1, 0), (0, 1)])
        assert lll(basis, Fraction(3, 4)).columns == basis.columns

    def test_alpha_validation(self):
        basis = basis_of([(1, 0), (0, 1)])
        for bad in (Fraction(1, 4), Fraction(1), Fraction(5, 4), Fraction(0)):
            with pytest.raises(InvalidAlpha):
                lll(basis, bad)

    def test_finds_short_vector(self):
        basis = basis_of([(1, 0), (99, 1)])
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
                dim = len(basis.columns[0])
                assert hnf_columns([[c[r] for c in reduced.columns] for r in range(dim)]) == \
                    hnf_columns([[c[r] for c in basis.columns] for r in range(dim)])

    def test_dependent_columns_rejected(self):
        with pytest.raises(DependentColumns):
            lll(basis_of([(1, 2), (2, 4)]))

    def test_dependency_in_last_column_rejected(self):
        # The first three columns reduce before the fourth is reached.
        with pytest.raises(DependentColumns, match="column 3"):
            lll(basis_of([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]))

    def test_zero_first_column_rejected(self):
        with pytest.raises(DependentColumns, match="column 0"):
            lll(basis_of([(0, 0), (1, 2)]))

    @pytest.mark.parametrize("n", [6, 8])
    def test_attack_bases_match_naive_reference(self, n):
        system = generate_instance(n, 0).instance
        n2 = 2 ** (n + 1) * DEFAULT_N1 ** 2 + 1  # attack_ahl's N2 at m = 1
        for basis in (build_lattice_B(system, DEFAULT_N), cjloss_basis(system, DEFAULT_N),
                      ahl_basis(system, DEFAULT_N1, n2)):
            assert [list(c) for c in lll(basis).columns] == naive_lll(
                [list(c) for c in basis.columns], DEFAULT_ALPHA)

    def test_dag_basis_matches_naive_reference(self):
        system = generate_instance(6, 0).instance
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


def lo_bases(system):
    """LO's bases for the instance system and its complement."""
    a, b = system.A[0], system.b[0]
    n = system.n
    prefix = [[int(i == j) for i in range(n)] + [-a[j]] for j in range(n)]
    return [prefix + [[0] * n + [b]], prefix + [[0] * n + [sum(a) - b]]]


class TestLatticeBasis:
    def test_shape_checked(self):
        for cols in ((), ((),), ((1, 0), (0, 1, 1))):
            with pytest.raises(ValueError):
                LatticeBasis(cols)


BIG = 2 ** 200
NONZERO = st.sampled_from([1, -1, 2, -3, BIG, -BIG, BIG + 1, 7 - BIG])
ENTRIES = st.one_of(st.just(0), NONZERO)


@st.composite
def packing_bases(draw):
    """Columns mixing zeros, +-1 and +-2^200, some dense, some dependent."""
    n = draw(st.integers(1, 5))
    dim = draw(st.integers(max(1, n - 1), n + 3))  # dim < n is a dependency
    cols = [draw(st.lists(NONZERO if draw(st.booleans()) else ENTRIES,
                          min_size=dim, max_size=dim)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        cols[k] = [sum(c * col[r] for c, col in zip(coeffs, cols)) for r in range(dim)]
    return cols


def reduce_or_message(reduce, cols, alpha):
    """reduce's output columns, or the message of its DependentColumns."""
    try:
        return [list(c) for c in reduce(cols, alpha)]
    except DependentColumns as exc:
        return str(exc)


def kernel(cols, alpha):
    return lll(basis_of(cols), alpha).columns


@pytest.fixture(params=["python_kernel", "gmp_kernel"])
def either_kernel(request, monkeypatch):
    """Run the test once on each kernel: the Python loop, then the C loop."""
    monkeypatch.setattr(lattice, "_kernel", request.getfixturevalue(request.param))


class TestPackedColumns:
    """Both loops on the columns that stress the C loop's packing (zeros, +-1
    and +-2^200, some dense), held to naive_lll and lemma_lll, which compute
    on plain integer columns and share no code with either loop."""

    @pytest.mark.usefixtures("either_kernel")
    @settings(max_examples=200, deadline=None)
    @given(packing_bases(), st.sampled_from([Fraction(26, 100), Fraction(3, 4),
                                             Fraction(99, 100)]))
    def test_matches_naive_reference(self, cols, alpha):
        assert reduce_or_message(kernel, cols, alpha) == \
            reduce_or_message(naive_lll, cols, alpha)

    @pytest.mark.usefixtures("either_kernel")
    def test_widest_slots_match_reference(self):
        # AHL at n = 30: entries N2 * a_i near 2^88, the widest slots of the
        # attack bases at this size.  naive_lll would take minutes here;
        # lemma_lll is pinned against it on the bases of the property above.
        n = 30
        system = generate_instance(n, 0).instance
        n2 = 2 ** (n + 1) * DEFAULT_N1 ** 2 + 1
        basis = ahl_basis(system, DEFAULT_N1, n2)
        assert max(abs(x) for c in basis.columns for x in c).bit_length() >= 87
        cols = [list(c) for c in basis.columns]
        assert [list(c) for c in lll(basis).columns] == lemma_lll(cols, DEFAULT_ALPHA)

    @settings(max_examples=100, deadline=None)
    @given(packing_bases(), st.sampled_from([Fraction(26, 100), Fraction(99, 100)]))
    def test_lemma_reference_matches_naive(self, cols, alpha):
        assert reduce_or_message(lemma_lll, cols, alpha) == \
            reduce_or_message(naive_lll, cols, alpha)


@st.composite
def staircase_columns(draw):
    """Columns on coordinate windows [lo_i, hi_i), lo and hi nondecreasing in i.

    Column k is orthogonal to every earlier column whose window ends by lo_k,
    and those form a prefix, so k's inner products with the earlier columns
    start with zeros.  Disjoint windows give block-diagonal bases and
    orthogonal prefixes; a zero or repeated column is a dependency.
    """
    n = draw(st.integers(1, 7))
    dim = draw(st.integers(1, 9))
    los = sorted(draw(st.lists(st.integers(0, dim - 1), min_size=n, max_size=n)))
    cols, hi = [], 0
    for lo in los:
        hi = min(dim, max(hi, lo + draw(st.integers(1, 3))))
        cols.append([draw(ENTRIES) if lo <= r < hi else 0 for r in range(dim)])
    return cols


def integral_from_rational(cols):
    """(d, lam) of the columns read off oracles.gso: d[i+1] = d[i] ||b*_i||^2, lam = mu d[j+1]."""
    g = gso(cols)
    d = [1]
    for norm in g.bstar_norms_sq():
        d.append(d[-1] * norm)
    lam = [[g.mu[i][j] * d[j + 1] for j in range(i)] for i in range(len(cols))]
    assert all(x.denominator == 1 for row in lam for x in row)
    return d, [[int(x) for x in row] for row in lam]


def gso_or_message(gso_of, cols):
    try:
        return gso_of(cols)
    except DependentColumns as exc:
        return str(exc)


class TestZeroPrefix:
    """gso_row skips the zero prefix of its inner products; LLL takes +-1 steps as rows."""

    @settings(max_examples=300, deadline=None)
    @given(staircase_columns())
    def test_integral_gso_matches_rational(self, cols):
        assert gso_or_message(integral_gso, cols) == gso_or_message(integral_from_rational, cols)

    @settings(max_examples=200, deadline=None)
    @given(staircase_columns(), st.data())
    def test_target_row_matches_rational(self, cols, data):
        # The sweep's use: a target's row from its inner products alone.
        try:
            d, lam = integral_gso(cols)
        except DependentColumns:
            return
        g = gso(cols)
        lo = data.draw(st.integers(0, len(cols[0])))
        target = [data.draw(ENTRIES) if r >= lo else 0 for r in range(len(cols[0]))]
        row = gso_row([sum(map(operator.mul, target, c)) for c in cols], d, lam)
        assert row == [sum(map(operator.mul, target, g.bstar[j])) / norm * d[j + 1]
                       for j, norm in enumerate(g.bstar_norms_sq())]

    def test_block_diagonal(self):
        cols = [[2, 1, 0, 0], [1, 3, 0, 0], [0, 0, 3, 0], [0, 0, 1, 5]]
        d, lam = integral_gso(cols)
        assert (d, lam) == integral_from_rational(cols)
        assert d == [1, 5, 25, 225, 5625] and lam[2] == [0, 0] and lam[3] == [0, 0, 75]

    def test_knapsack_lll_takes_unit_steps(self, monkeypatch, python_kernel):
        # [I; N a] at n = 20, where most size reductions have gamma = +-1.
        # naive_lll takes about a minute per basis at that size; lemma_lll is
        # pinned to it by TestPackedColumns, and naive_lll itself checks n = 10.
        gammas = []

        def spy(num, den):
            gammas.append(round_nearest(num, den))
            return gammas[-1]

        monkeypatch.setattr(lattice, "round_nearest", spy)
        for n, seed, reference in ((20, 0, lemma_lll), (20, 1, lemma_lll), (10, 0, naive_lll)):
            basis = build_lattice_B(generate_instance(n, seed).instance, DEFAULT_N)
            before = len(gammas)
            ours = [list(c) for c in lll(basis).columns]
            assert {1, -1} <= set(gammas[before:])
            assert ours == reference([list(c) for c in basis.columns], DEFAULT_ALPHA)


@pytest.fixture
def sympy_lll():
    """sympy's LLL at alpha = 99/100, an implementation independent of ours."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    def reduce(basis):
        # sympy reduces rows, so our columns go in as its rows.
        rows = DomainMatrix([[sympy.ZZ(x) for x in c] for c in basis.columns],
                            (basis.n, len(basis.columns[0])), sympy.ZZ)
        return basis_of(rows.lll(delta=sympy.QQ(99, 100)).to_list())

    return reduce


def column_hnf(basis):
    return hnf_columns([[c[r] for c in basis.columns] for r in range(len(basis.columns[0]))])


class TestAgainstSympy:
    def test_random_bases_identical(self, sympy_lll):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(2, 8)
            basis = random_basis(rng, n, n + rng.randint(0, 2), -1000, 1000)
            assert lll(basis).columns == sympy_lll(basis).columns

    @pytest.mark.parametrize("n", [10, 12])
    def test_knapsack_bases_same_lattice(self, sympy_lll, n):
        # The outputs may differ: sympy rounds mu = k + 1/2 up where we round
        # down, and its math.floor on a rational goes through a float, so it
        # misrounds once |mu| passes 2**53.
        for seed in range(6):
            system = generate_instance(n, seed).instance
            basis = build_lattice_B(system, DEFAULT_N)
            ours, theirs = lll(basis), sympy_lll(basis)
            assert column_hnf(ours) == column_hnf(theirs) == column_hnf(basis)
            assert is_lll_reduced(ours.columns) and is_lll_reduced(theirs.columns)


def outcomes_in(kernel, bases, alpha=DEFAULT_ALPHA):
    """lll's columns on each of the bases with lattice._kernel set to kernel
    (None: the Python loop), or the type and message of what it raised."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_kernel", kernel)
        for cols in bases:
            try:
                out.append([list(c) for c in lll(basis_of(cols), alpha).columns])
            except (DependentColumns, AssertionError) as exc:
                out.append((type(exc).__name__, str(exc)))
    return out


# alpha = p/q with p and q beyond 64 bits, near 1 and near 1/2
WIDE_ALPHAS = [Fraction(2**65 + 1, 2**65 + 3), Fraction(2**66 + 1, 2**67 + 5)]
TWIN_ENTRIES = st.one_of(ENTRIES, st.integers(-1000, 1000), st.integers(-2**70, 2**70))


@st.composite
def twin_inputs(draw):
    """Columns of random shape, with zero columns and dependencies drawn in."""
    n = draw(st.integers(1, 7))
    dim = draw(st.integers(1, 8))
    column = st.lists(TWIN_ENTRIES, min_size=dim, max_size=dim)
    cols = [draw(column) for _ in range(n)]
    if draw(st.booleans()):
        cols[draw(st.integers(0, n - 1))] = [0] * dim
    if n > 1 and draw(st.booleans()):  # column k a combination of the columns before it
        k = draw(st.integers(1, n - 1))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        cols[k] = [sum(c * col[r] for c, col in zip(coeffs, cols)) for r in range(dim)]
    return cols


def basis_of_width(rng, n, dim, w):
    """n random dense columns of dimension dim whose packing slots are w bits wide."""
    x = math.isqrt((1 << (2 * w - 6)) // (1 + n))  # (1 + n) * x^2 is about 2^(2w - 6)
    cols = [[rng.randint(-x // dim, x // dim) for _ in range(dim)] for _ in range(n)]
    cols[0][0] = x  # the largest squared norm, between x^2 and 2 x^2
    return cols


def slot_width(cols):
    """The C loop's packing slot width for cols, as _lll.c::set_width computes
    it: bitlen((1 + n) B) // 2 + 3, B the largest squared norm of a column."""
    bound = max(sum(x * x for x in c) for c in cols)
    return ((1 + len(cols)) * bound).bit_length() // 2 + 3


# Around 2^31, whose squares and products straddle 2^63, and around +-2^62,
# whose differences are words again
WORD_EDGE = st.one_of(st.integers(2**29, 2**33), st.integers(-2**33, -2**29),
                      st.integers(2**62 - 2**12, 2**62 + 2**12),
                      st.integers(-2**62 - 2**12, -2**62 + 2**12), st.integers(-2, 2))


@st.composite
def word_edge_inputs(draw):
    """[I; W] with m = 1 or 2 rows of weights drawn from WORD_EDGE.

    The C loop runs d and lam in machine words while they fit in a long and
    in GMP beyond: a reduction of such a basis starts with d and lam beyond
    2^63, ends with them within it, and crosses 2^63 both ways between.
    """
    n, m = draw(st.integers(2, 8)), draw(st.integers(1, 2))
    weights = st.lists(WORD_EDGE, min_size=m, max_size=m)
    return [[int(i == j) for i in range(n)] + draw(weights) for j in range(n)]


def word_sized(cols):
    """True when every d and lam of the columns' Gram-Schmidt is below 2^31,
    so that each product of two is a word; LLL only lowers the d."""
    d, lam = integral_gso(cols)
    return all(abs(x) < 2**31 for x in chain(d, *lam))


def records_in(kernel, cols, alpha):
    """lll's outcome on cols at every prefix 0..n with lattice._kernel set to
    kernel (None: the Python loop): the columns, or the type and message of
    what it raised, which must be the same at every prefix.  Each record's d
    and lam must be the oracle's integral_gso of its first prefix columns."""
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_kernel", kernel)
        for prefix in range(len(cols) + 1):
            try:
                reduced = lll(basis_of(cols), alpha, prefix)
            except (DependentColumns, AssertionError) as exc:
                outcomes.append((type(exc).__name__, str(exc)))
            else:
                assert (reduced.d, reduced.lam) == integral_gso(reduced.columns[:prefix])
                outcomes.append(reduced.columns)
    assert outcomes == outcomes[:1] * len(outcomes)
    return outcomes[0]


RECORD_INPUTS = st.one_of(staircase_columns(), twin_inputs(), word_edge_inputs())
RECORD_ALPHAS = st.sampled_from([Fraction(1, 2), DEFAULT_ALPHA, WIDE_ALPHAS[0]])


class TestReducedGso:
    """The Gram-Schmidt a loop returns with its columns is that of their prefix."""

    @settings(max_examples=200, deadline=None)
    @given(RECORD_INPUTS, RECORD_ALPHAS)
    def test_python_prefix_matches_oracle(self, cols, alpha):
        records_in(None, cols, alpha)

    def test_prefix_out_of_range_rejected(self):
        basis = basis_of([(1, 0), (0, 1)])
        for bad in (-1, 3):
            with pytest.raises(ValueError, match="prefix"):
                lll(basis, DEFAULT_ALPHA, bad)


def exchanges_made(cols, alpha):
    """The exchanges the Python loop makes on cols: the least budget it finishes under."""
    p, q = alpha.numerator, alpha.denominator
    lo, hi = 0, lattice._exchange_budget([sum(x * x for x in c) for c in cols], p, q)
    with pytest.MonkeyPatch.context() as mp:
        while lo < hi:
            mid = (lo + hi) // 2
            mp.setattr(lattice, "_exchange_budget", lambda *args: mid)
            try:
                lattice._python_reduce(cols, p, q, 0)
                hi = mid
            except AssertionError:
                lo = mid + 1
    return lo


class TestExchangeBudget:
    """Both loops count exchanges against LLL's termination bound and stop past it."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6),
           st.sampled_from([Fraction(26, 100), Fraction(3, 4), DEFAULT_ALPHA]))
    def test_the_exchanges_stay_within_the_proof(self, seed, n, alpha):
        # Each exchange takes a factor alpha off P = d[1]...d[n] >= 1, so the
        # count is below log(P0) / log(1/alpha), and the budget is above that.
        cols = random_basis(random.Random(seed), n, n + 1, -2**20, 2**20).columns
        made = exchanges_made(cols, alpha)
        d, _ = integral_gso(cols)
        assert made * math.log(1 / alpha) <= math.log(math.prod(d)) + 1e-9
        norms = [sum(x * x for x in c) for c in cols]
        assert made <= lattice._exchange_budget(norms, alpha.numerator, alpha.denominator)

    def test_past_the_budget_both_loops_raise_alike(self, gmp_kernel, tmp_path, monkeypatch):
        # A C loop built with a budget of four exchanges, and the Python loop
        # given the same: each basis is reduced by both or stopped by both.
        source = copy_of_source(tmp_path)
        code = source.read_text()
        line = "s->budget = mpz_fits_ulong_p(s->t2) ? mpz_get_ui(s->t2) : ULONG_MAX;"
        assert line in code
        source.write_text(code.replace(line, "s->budget = 4;"))
        four = lattice._load(source)
        monkeypatch.setattr(lattice, "_exchange_budget", lambda *args: 4)
        rng = random.Random(5)
        bases = [random_basis(rng, n, n, -10**6, 10**6).columns for n in range(2, 9)
                 for _ in range(3)]
        outcomes = outcomes_in(four, bases)
        assert outcomes == outcomes_in(None, bases)
        stopped = ("AssertionError", "LLL left its termination proof: an exchange did not "
                                     "lower d[k] to a positive value, or passed the budget of 4")
        assert stopped in outcomes and any(isinstance(o, list) for o in outcomes)


class TestGmpKernel:
    """The C loop (_lll.c) returns the Python loop's columns and raises its errors."""

    @settings(max_examples=400, deadline=None)
    @given(twin_inputs(), st.sampled_from([Fraction(26, 100), Fraction(1, 2), Fraction(3, 4),
                                           DEFAULT_ALPHA, *WIDE_ALPHAS]))
    def test_matches_python(self, gmp_kernel, cols, alpha):
        assert outcomes_in(gmp_kernel, [cols], alpha) == outcomes_in(None, [cols], alpha)

    @pytest.mark.parametrize("w", [63, 64, 65, 128, 129])
    def test_slot_widths_at_limb_boundaries_match_python(self, gmp_kernel, w):
        # Slots of one limb, one bit either side of it, and two limbs: slot
        # edges fall on and off the limb edges of the packed column.
        rng = random.Random(w)
        bases = [basis_of_width(rng, n, dim, w)
                 for n, dim in ((2, 2), (4, 5), (8, 8), (1, 3), (2, 3)) for _ in range(3)]
        assert {slot_width(cols) for cols in bases} == {w}
        outcomes = outcomes_in(gmp_kernel, bases)
        assert outcomes == outcomes_in(None, bases)
        # Reduced entries reach bit length w - 3, the most the _lll.c header
        # proves (the bases with n = 1 always do): width w - 2 would still
        # hold them, and width w - 3 would not.
        assert max(abs(x) for cols in outcomes for c in cols for x in c).bit_length() == w - 3

    def test_wide_slots_match_python(self, gmp_kernel):
        # Wider slots: the AHL basis of test_widest_slots_match_reference
        # (entries near 2^88), dense entries near 2^200, and [I; a] with
        # weights near 2^200.
        n = 30
        ahl = ahl_basis(generate_instance(n, 0).instance, DEFAULT_N1,
                        2 ** (n + 1) * DEFAULT_N1 ** 2 + 1).columns
        rng = random.Random(200)
        dense = [[rng.randint(-BIG, BIG) for _ in range(6)] for _ in range(6)]
        weights = [[int(i == j) for i in range(10)] + [rng.randint(BIG // 2, BIG)]
                   for j in range(10)]
        bases = [ahl, dense, weights]
        assert [slot_width(cols) > w for cols, w in zip(bases, (65, 200, 200))] == [True] * 3
        assert outcomes_in(gmp_kernel, bases) == outcomes_in(None, bases)

    @settings(max_examples=300, deadline=None)
    @given(word_edge_inputs(), st.sampled_from([Fraction(1, 2), DEFAULT_ALPHA,
                                                Fraction(2**62 - 1, 2**62 + 1), WIDE_ALPHAS[0]]))
    def test_word_edge_matches_python(self, gmp_kernel, cols, alpha):
        # d and lam cross 2^63 both ways within one reduction, so each step
        # switches between its word path and GMP.  With p and q near 2^62 the
        # Lovasz test's products overflow 128 bits where num is past 2^66;
        # WIDE_ALPHAS[0] keeps the test in GMP while the other steps switch.
        assert outcomes_in(gmp_kernel, [cols], alpha) == outcomes_in(None, [cols], alpha)

    def test_word_sized_bases_match_python(self, gmp_kernel):
        # Bases whose d and lam stay within one word for the whole reduction,
        # so every step on them takes its word path.
        rng = random.Random(63)
        bases = [[[int(i == j) for i in range(10)] + [rng.randint(1, 2**12)] for j in range(10)]
                 for _ in range(5)]
        bases += [[[rng.randint(-3, 3) for _ in range(7)] for _ in range(7)] for _ in range(5)]
        assert all(map(word_sized, bases))
        for alpha in (Fraction(1, 2), DEFAULT_ALPHA):
            assert outcomes_in(gmp_kernel, bases, alpha) == outcomes_in(None, bases, alpha)

    @settings(max_examples=300, deadline=None)
    @given(RECORD_INPUTS, RECORD_ALPHAS)
    def test_prefix_matches_python_and_oracle(self, gmp_kernel, cols, alpha):
        # The d and lam the C loop writes out after its columns, for every
        # prefix, also where they cross 2^63 (word_edge_inputs).
        assert records_in(gmp_kernel, cols, alpha) == records_in(None, cols, alpha)

    @pytest.mark.parametrize("cols", [[[5]], [[0]], [[-3, 4]], [[3], [4]], [[0, 0], [1, 2]],
                                      [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
                                      [[1, 1], [1, 0]]],
                             ids=["one-entry", "zero-entry", "one-column", "dim-1-dependent",
                                  "zero-first-column", "dependent-last-column",
                                  "lovasz-tie-at-1/2"])
    @pytest.mark.parametrize("alpha", [DEFAULT_ALPHA, Fraction(1, 2), *WIDE_ALPHAS],
                             ids=["99/100", "1/2", "wide-near-1", "wide-near-1/2"])
    def test_edge_shapes_match_python(self, gmp_kernel, cols, alpha):
        assert outcomes_in(gmp_kernel, [cols], alpha) == outcomes_in(None, [cols], alpha)

    @pytest.mark.parametrize("n", [10, 20, 30])
    def test_attack_bases_match_python(self, gmp_kernel, n):
        # The LO pair, and the kernel, CJLOSS and AHL bases of an instance, its
        # complement, a two-row system and a DAG-augmented instance.
        for seed in range(2):
            instance = generate_instance(n, seed).instance
            systems = [instance, complement(instance), generate_system(2, n, seed).system,
                       build_disaggregated(instance, 0, DisaggParams(1 + seed, 100)).system]
            bases = lo_bases(instance)
            for system in systems:
                n2 = 2 ** (n + system.m) * DEFAULT_N1 ** 2 + 1
                bases += [basis.columns for basis in (build_lattice_B(system, DEFAULT_N),
                                                      cjloss_basis(system, DEFAULT_N),
                                                      ahl_basis(system, DEFAULT_N1, n2))]
            assert outcomes_in(gmp_kernel, bases) == outcomes_in(None, bases)


def copy_of_source(directory):
    source = directory / "_lll.c"
    source.write_bytes(lattice._SOURCE.read_bytes())
    return source


def built_name(source):
    """The file name the C loop of source is built under."""
    return f"_lll_{hashlib.sha256(source.read_bytes()).hexdigest()[:16]}.so"


def no_compiler(argv, **kwargs):
    raise FileNotFoundError(2, "No such file or directory", argv[0])


def no_gmp(argv, **kwargs):
    raise subprocess.CalledProcessError(1, argv)


def hung_compiler(argv, **kwargs):
    raise subprocess.TimeoutExpired(argv, lattice.BUILD_TIMEOUT_S)


def verdicts():
    """LO, CJLOSS, AHL and a DAG search on three n = 16 instances."""
    out = []
    config = SearchConfig(algo="reduce_half", use_dag=True, M=1000, t_max=20)
    for seed in range(3):
        instance = generate_instance(16, seed).instance
        out += [attack_lo(instance).to_dict(), attack_cjloss(instance).to_dict(),
                attack_ahl(instance).to_dict()]
        try:
            out.append(attack(instance, config).verdict.to_dict())
        except SearchExhausted as exc:
            out.append((str(exc), exc.best and exc.best.to_dict()))
    return out


class TestKernelBuild:
    """The C loop is built next to its source on first use; any failure leaves
    the Python loop, with the same results."""

    def test_builds_once_under_its_source_hash(self, gmp_kernel, tmp_path, monkeypatch):
        source = copy_of_source(tmp_path)
        reduce = lattice._load(source)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["_lll.c", built_name(source)]
        cols = build_lattice_B(generate_instance(16, 0).instance, DEFAULT_N).columns
        assert reduce(cols, 99, 100, 15) == gmp_kernel(cols, 99, 100, 15)
        # The built library is loaded again without a compiler; an edited
        # source is not, since its hash names another file.
        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert lattice._load(source)(cols, 99, 100, 15) == reduce(cols, 99, 100, 15)
        source.write_bytes(source.read_bytes() + b"\n")
        assert lattice._load(source) is None

    def test_a_build_removes_stale_binaries(self, gmp_kernel, tmp_path):
        # A build deletes the binaries of older sources beside it, but not
        # the build directories of concurrent builds; a plain load deletes
        # nothing.
        source = copy_of_source(tmp_path)
        stale = tmp_path / "_lll_0000000000000000.so"
        stale.write_bytes(b"")
        (tmp_path / "_lll_build_0000").mkdir()
        assert lattice._load(source) is not None
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(["_lll.c", "_lll_build_0000", built_name(source)])
        stale.write_bytes(b"")
        assert lattice._load(source) is not None
        assert stale.exists()

    def test_concurrent_first_builds_leave_one_binary(self, gmp_kernel, tmp_path):
        # Processes that start together may each build; each renames its own
        # finished file into place, and every one of them loads the C loop.
        source = copy_of_source(tmp_path)
        code = ("import sys; from pathlib import Path; from knapcrack import lattice; "
                "sys.exit(lattice._load(Path(sys.argv[1])) is None)")
        env = {**os.environ, "PYTHONPATH": str(lattice._SOURCE.parent.parent)}
        procs = [subprocess.Popen([sys.executable, "-c", code, str(source)], env=env)
                 for _ in range(3)]
        assert [proc.wait(timeout=300) for proc in procs] == [0, 0, 0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["_lll.c", built_name(source)]

    @pytest.mark.parametrize("failure", [no_compiler, no_gmp, hung_compiler])
    def test_a_failed_build_runs_the_python_loop(self, gmp_kernel, tmp_path, monkeypatch,
                                                 failure):
        builds = []

        def build(argv, **kwargs):
            builds.append(argv)
            failure(argv, **kwargs)

        python_reduces = []

        def python_reduce(*args):
            python_reduces.append(args)
            return real_reduce(*args)

        real_reduce = lattice._python_reduce
        monkeypatch.setattr(lattice, "_python_reduce", python_reduce)
        monkeypatch.setattr(subprocess, "run", build)
        monkeypatch.setattr(lattice, "_SOURCE", copy_of_source(tmp_path))
        monkeypatch.setattr(lattice, "_kernel", lattice._UNBUILT)
        stale = tmp_path / "_lll_0000000000000000.so"
        stale.write_bytes(b"")
        fallback = verdicts()
        assert lattice.kernel_name() == "python"
        assert len(builds) == 1  # tried once per process
        # The attacks' reductions (prefix 0) and the decompositions' (prefix s)
        assert {args[3] > 0 for args in python_reduces} == {False, True}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["_lll.c", stale.name]
        python_reduces.clear()
        monkeypatch.setattr(lattice, "_kernel", gmp_kernel)
        assert lattice.kernel_name() == "gmp"
        assert verdicts() == fallback
        assert not python_reduces
