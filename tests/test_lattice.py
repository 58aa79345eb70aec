"""Exact LLL and its rational GSO oracle: worked examples, update lemmas, and
reduction contracts."""

import copy
import linecache
import math
import operator
import os
import random
import subprocess
import sys
import sysconfig
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES
from itertools import chain

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knapcrack.disagg import DisaggParams, build_disaggregated
from knapcrack.errors import DependentColumns, InvalidAlpha, SearchExhausted
from knapcrack.formulations import (DEFAULT_N, DEFAULT_N1, ahl_basis, attack_ahl, attack_cjloss,
                                    attack_lo, build_lattice_B, cjloss_basis)
from knapcrack import lattice
from knapcrack.lattice import DEFAULT_ALPHA, LatticeBasis, gso_row, lll, round_nearest
from knapcrack.pipeline import SearchConfig, attack, generate_instance, generate_system
from knapcrack.problems import LdeSystem, complement

from oracles import (a_long, basis_of, enumerate_lattice_shortest, gso, gso_after_reduce,
                     gso_after_swap, hnf_columns, independent_short_vectors, integral_gso,
                     is_lll_reduced, lemma_lll, naive_lll, overflow_at, size_reductions)


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
def mixed_bases(draw):
    """Columns mixing zeros, +-1 and +-2^200, word columns and wide ones, some
    dense, some dependent."""
    n = draw(st.integers(1, 5))
    dim = draw(st.integers(max(1, n - 1), n + 3))  # dim < n is a dependency
    cols = [draw(st.lists(NONZERO if draw(st.booleans()) else ENTRIES,
                          min_size=dim, max_size=dim)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        cols[k] = [sum(c * col[r] for c, col in zip(coeffs, cols)) for r in range(dim)]
    return cols


# alpha = p/q with p and q beyond 64 bits, near 1 and near 1/2
WIDE_ALPHAS = [Fraction(2**65 + 1, 2**65 + 3), Fraction(2**66 + 1, 2**67 + 5)]


def basis_of_bits(rng, n, dim, bits):
    """n random dense columns of dimension dim whose widest entry has bit length bits."""
    x = 1 << (bits - 1)
    cols = [[rng.randint(1 - 2 * x, 2 * x - 1) for _ in range(dim)] for _ in range(n)]
    cols[0][0] = x + rng.randrange(x)
    return cols


def leaves_the_words(cols, alpha=DEFAULT_ALPHA):
    """Whether a size reduction of cols from word columns overflows a long."""
    return any(overflow_at(*update) is not None for update in size_reductions(cols, alpha))


def narrows(cols, alpha=DEFAULT_ALPHA):
    """Whether a size reduction of cols turns a wide column into words."""
    return any(not all(map(a_long, b)) and all(a_long(x - g * y) for x, y in zip(b, o))
               for b, o, g in size_reductions(cols, alpha))


# CROSSING's edges of a long, which are words, and of two limbs, which are not
WORD_EDGES = st.sampled_from([2**63 - 1, 1 - 2**63, -2**63])
LONG_EDGES = st.sampled_from([2**63 - 1, 1 - 2**63, -2**63, 2**63, 2**64, -2**64])
SMALL = st.integers(-3, 3)


@st.composite
def partway_inputs(draw):
    """Columns u and v, and up to two more, of dimension 2..4, where the loop's
    first column update, v -= gamma u, leaves the words at a coordinate j > 0.

    u is -x at a coordinate i < j, y at j, with 0 < y < x <= 3, and 0
    elsewhere, up to a sign; v is words, with one word edge e at both i and j.
    So gamma is about e (y - x) / (x^2 + y^2), entry i of the update about
    e (y^2 + x y) / (x^2 + y^2), a word, and entry j about e (x^2 + x y) /
    (x^2 + y^2), beyond a long.  The columns after them hold edges of a long
    and of two limbs, and small entries.
    """
    dim = draw(st.integers(2, 4))
    j = draw(st.integers(1, dim - 1))
    i = draw(st.integers(0, j - 1))
    y = draw(st.integers(1, 2))
    x = draw(st.integers(y + 1, 3))
    sign = draw(st.sampled_from([1, -1]))
    u = [0] * dim
    u[i], u[j] = -sign * x, sign * y
    v = draw(st.lists(st.one_of(WORD_EDGES, SMALL), min_size=dim, max_size=dim))
    v[i] = v[j] = draw(WORD_EDGES)
    rest = st.lists(st.one_of(LONG_EDGES, SMALL), min_size=dim, max_size=dim)
    return [u, v] + draw(st.lists(rest, max_size=2))


def reduce_or_message(reduce, cols, alpha):
    """reduce's output columns, or the message of its DependentColumns."""
    try:
        return [list(c) for c in reduce(cols, alpha)]
    except DependentColumns as exc:
        return str(exc)


def kernel(cols, alpha):
    return lll(basis_of(cols), alpha).columns


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
        # pinned to it by TestColumnWords, and naive_lll itself checks n = 10.
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
    (lattice.PYTHON: the Python loop), or the type and message of what it raised."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_kernel", kernel)
        for cols in bases:
            try:
                out.append([list(c) for c in lll(basis_of(cols), alpha).columns])
            except (DependentColumns, AssertionError) as exc:
                out.append((type(exc).__name__, str(exc)))
    return out


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
    kernel (lattice.PYTHON: the Python loop): the columns, or the type and message of
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
        records_in(lattice.PYTHON, cols, alpha)

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
        assert outcomes == outcomes_in(lattice.PYTHON, bases)
        stopped = ("AssertionError", "LLL left its termination proof: an exchange did not "
                                     "lower d[k] to a positive value, or passed the budget of 4")
        assert stopped in outcomes and any(isinstance(o, list) for o in outcomes)


# 0, +-1, and the edges of a C long and of two limbs, and far beyond both, in
# order of absolute value
CROSSING = [0, 1, -1, 2**63 - 1, 1 - 2**63, -2**63, 2**63, 2**64, -2**64, 2**200, -2**200]


def record_or_error(reduce, cols, p, q, prefix, start=None):
    """reduce's record, or the type and message of what it raised."""
    try:
        return reduce(cols, p, q, prefix, start)
    except (DependentColumns, AssertionError) as exc:
        return type(exc).__name__, str(exc)


class TestGmpKernel:
    """The C loop (_lll.c) returns the Python loop's columns and raises its errors."""

    def test_exchange_rows_of_two_limbs_match_python(self, gmp_kernel):
        # [I; N A] with two rows of 30-bit weights and N = 10^8, the shape of
        # kernel_geometry's augmented system: d[1] starts near 2^115, so every
        # exchange at k < k_max updates rows whose lam entries are two limbs,
        # in GMP, through both of its row updates (_lll.c, exchange).
        rng = random.Random(5)
        for n in (4, 6, 8):
            rows = [[rng.randrange(2**29, 2**30) for _ in range(n)] for _ in range(2)]
            cols = [[int(i == j) for i in range(n)] + [10**8 * row[j] for row in rows]
                    for j in range(n)]
            for p, q in ((99, 100), (1, 2)):
                assert gmp_kernel.reduce(cols, p, q, n) == lattice._python_reduce(cols, p, q, n)

    @settings(max_examples=400, deadline=None)
    @given(twin_inputs(), st.sampled_from([Fraction(26, 100), Fraction(1, 2), Fraction(3, 4),
                                           DEFAULT_ALPHA, *WIDE_ALPHAS]))
    def test_matches_python(self, gmp_kernel, cols, alpha):
        assert outcomes_in(gmp_kernel, [cols], alpha) == outcomes_in(lattice.PYTHON, [cols], alpha)

    @pytest.mark.parametrize("w", [63, 64, 65, 128, 129])
    def test_word_boundaries_match_python(self, gmp_kernel, w):
        # Widest input entries of w bits: words whose size reductions
        # overflow a long (63), entries just beyond a long (64), and wide
        # columns of two limbs and about either side of two limbs.
        rng = random.Random(w)
        bases = [basis_of_bits(rng, n, dim, w)
                 for n, dim in ((2, 2), (4, 5), (8, 8), (1, 3), (2, 3)) for _ in range(3)]
        entries = [x for cols in bases for c in cols for x in c]
        assert max(abs(x) for x in entries).bit_length() == w
        if w == 63:
            assert all(map(a_long, entries)) and any(map(leaves_the_words, bases))
        else:
            assert not any(a_long(cols[0][0]) for cols in bases)
        if w == 64:  # and wide columns come back to words
            assert any(map(narrows, bases))
        assert outcomes_in(gmp_kernel, bases) == outcomes_in(lattice.PYTHON, bases)

    def test_wide_columns_match_python(self, gmp_kernel):
        # Wider columns: the AHL basis of test_wide_input_columns_match_reference
        # (entries near 2^88), dense entries near 2^200, and [I; a] with
        # weights near 2^200; the first and last reduce to words.
        n = 30
        ahl = ahl_basis(generate_instance(n, 0).instance, DEFAULT_N1,
                        2 ** (n + 1) * DEFAULT_N1 ** 2 + 1).columns
        rng = random.Random(200)
        dense = [[rng.randint(-BIG, BIG) for _ in range(6)] for _ in range(6)]
        weights = [[int(i == j) for i in range(10)] + [rng.randint(BIG // 2, BIG)]
                   for j in range(10)]
        bases = [ahl, dense, weights]
        assert not any(all(a_long(x) for c in cols for x in c) for cols in bases)
        assert [narrows(cols) for cols in (ahl, weights)] == [True, True]
        assert outcomes_in(gmp_kernel, bases) == outcomes_in(lattice.PYTHON, bases)

    @settings(max_examples=300, deadline=None)
    @given(word_edge_inputs(), st.sampled_from([Fraction(1, 2), DEFAULT_ALPHA,
                                                Fraction(2**62 - 1, 2**62 + 1), WIDE_ALPHAS[0]]))
    def test_word_edge_matches_python(self, gmp_kernel, cols, alpha):
        # d and lam cross 2^63 both ways within one reduction, so each step
        # switches between its word path and GMP.  With p and q near 2^62 the
        # Lovasz test's products overflow 128 bits where num is past 2^66;
        # WIDE_ALPHAS[0] keeps the test in GMP while the other steps switch.
        assert outcomes_in(gmp_kernel, [cols], alpha) == outcomes_in(lattice.PYTHON, [cols], alpha)

    def test_word_sized_bases_match_python(self, gmp_kernel):
        # Bases whose d and lam stay within one word for the whole reduction,
        # so every step on them takes its word path.
        rng = random.Random(63)
        bases = [[[int(i == j) for i in range(10)] + [rng.randint(1, 2**12)] for j in range(10)]
                 for _ in range(5)]
        bases += [[[rng.randint(-3, 3) for _ in range(7)] for _ in range(7)] for _ in range(5)]
        assert all(map(word_sized, bases))
        for alpha in (Fraction(1, 2), DEFAULT_ALPHA):
            assert outcomes_in(gmp_kernel, bases, alpha) == \
                outcomes_in(lattice.PYTHON, bases, alpha)

    @settings(max_examples=300, deadline=None)
    @given(RECORD_INPUTS, RECORD_ALPHAS)
    def test_prefix_matches_python_and_oracle(self, gmp_kernel, cols, alpha):
        # The d and lam the C loop writes out after its columns, for every
        # prefix, also where they cross 2^63 (word_edge_inputs).
        assert records_in(gmp_kernel, cols, alpha) == records_in(lattice.PYTHON, cols, alpha)

    @pytest.mark.parametrize("cols", [[[5]], [[0]], [[-3, 4]], [[3], [4]], [[0, 0], [1, 2]],
                                      [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
                                      [[1, 1], [1, 0]]],
                             ids=["one-entry", "zero-entry", "one-column", "dim-1-dependent",
                                  "zero-first-column", "dependent-last-column",
                                  "lovasz-tie-at-1/2"])
    @pytest.mark.parametrize("alpha", [DEFAULT_ALPHA, Fraction(1, 2), *WIDE_ALPHAS],
                             ids=["99/100", "1/2", "wide-near-1", "wide-near-1/2"])
    def test_edge_shapes_match_python(self, gmp_kernel, cols, alpha):
        assert outcomes_in(gmp_kernel, [cols], alpha) == outcomes_in(lattice.PYTHON, [cols], alpha)

    def test_crossing_keeps_every_entry(self, gmp_kernel):
        # A diagonal basis in order of norm is reduced, so every entry, d and
        # lam crosses into C and back unchanged.  -2^63 is read as a word and
        # written back through GMP.
        entries = CROSSING[1:]
        cols = [[x if r == i else 0 for r in range(len(entries))] for i, x in enumerate(entries)]
        for alpha in (DEFAULT_ALPHA, *WIDE_ALPHAS):
            p, q = alpha.numerator, alpha.denominator
            for prefix in range(len(cols) + 1):
                record = gmp_kernel.reduce(cols, p, q, prefix)
                assert record == lattice._python_reduce(cols, p, q, prefix)
                assert [list(c) for c in record.columns] == cols

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda dim: st.lists(
        st.lists(st.sampled_from(CROSSING), min_size=dim, max_size=dim), min_size=1,
        max_size=4)), st.sampled_from([DEFAULT_ALPHA, *WIDE_ALPHAS]))
    def test_crossing_records_match_python(self, gmp_kernel, cols, alpha):
        p, q = alpha.numerator, alpha.denominator
        for prefix in range(len(cols) + 1):
            assert record_or_error(gmp_kernel.reduce, cols, p, q, prefix) == \
                record_or_error(lattice._python_reduce, cols, p, q, prefix)

    def test_a_non_int_entry_raises_type_error(self, gmp_kernel):
        cols = [[2**200, 1], [3, -2**63]]
        for bad in ([[2**200, 1], [3, 4.0]], [[1, "2"], [3, 4]], [[1, 2], [3, None]]):
            with pytest.raises(TypeError, match="must be an int"):
                gmp_kernel.reduce(bad, 99, 100, 2)
        with pytest.raises(TypeError, match="must be an int"):
            gmp_kernel.reduce(cols, Fraction(99), 100, 2)
        # The state of the failed call was freed, and the next call runs.
        assert gmp_kernel.reduce(cols, 99, 100, 2) == lattice._python_reduce(cols, 99, 100, 2)

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
            assert outcomes_in(gmp_kernel, bases) == outcomes_in(lattice.PYTHON, bases)


# After TestGmpKernel: under pytest -x (tests/mutants.py) the direct tests of the
# C loop then fail before these hypothesis searches start shrinking.
class TestColumnWords:
    """Both loops on the columns that stress the C loop's column format, words
    where every entry fits in a C long and GMP where one does not (zeros, +-1
    and +-2^200, some dense), held to naive_lll and lemma_lll, which share no
    code with either loop; and the C loop where a column update leaves the
    words partway through a column, held to the Python loop."""

    @pytest.mark.usefixtures("either_kernel")
    @settings(max_examples=200, deadline=None)
    @given(mixed_bases(), st.sampled_from([Fraction(26, 100), Fraction(3, 4),
                                           Fraction(99, 100)]))
    def test_matches_naive_reference(self, cols, alpha):
        assert reduce_or_message(kernel, cols, alpha) == \
            reduce_or_message(naive_lll, cols, alpha)

    @pytest.mark.usefixtures("either_kernel")
    def test_wide_input_columns_match_reference(self):
        # AHL at n = 30: entries N2 * a_i near 2^88, the widest input columns
        # of the attack bases at this size, which reduce to words.  naive_lll
        # would take minutes here; lemma_lll is pinned against it on the bases
        # of the property above.
        n = 30
        system = generate_instance(n, 0).instance
        n2 = 2 ** (n + 1) * DEFAULT_N1 ** 2 + 1
        basis = ahl_basis(system, DEFAULT_N1, n2)
        assert max(abs(x) for c in basis.columns for x in c).bit_length() >= 87
        cols = [list(c) for c in basis.columns]
        assert [list(c) for c in lll(basis).columns] == lemma_lll(cols, DEFAULT_ALPHA)

    @settings(max_examples=100, deadline=None)
    @given(mixed_bases(), st.sampled_from([Fraction(26, 100), Fraction(99, 100)]))
    def test_lemma_reference_matches_naive(self, cols, alpha):
        assert reduce_or_message(lemma_lll, cols, alpha) == \
            reduce_or_message(naive_lll, cols, alpha)

    @settings(max_examples=200, deadline=None)
    @given(partway_inputs(), st.sampled_from([DEFAULT_ALPHA, Fraction(1, 2), WIDE_ALPHAS[0]]))
    def test_partway_overflow_matches_python(self, gmp_kernel, cols, alpha):
        # The first column update overflows a long after its first
        # coordinate: the entries before it are updated as words, and the
        # column must be widened before the entry that overflows is written.
        u, v = cols[:2]
        gamma = round_nearest(sum(map(operator.mul, u, v)), sum(x * x for x in u))
        assert overflow_at(v, u, gamma) in range(1, len(v))
        p, q = alpha.numerator, alpha.denominator
        for prefix in range(len(cols) + 1):
            assert record_or_error(gmp_kernel.reduce, cols, p, q, prefix) == \
                record_or_error(lattice._python_reduce, cols, p, q, prefix)


@st.composite
def two_limb_bases(draw):
    """[I; N A] with m = 2 or 3 rows of 25- to 30-bit weights and N = 10^8, the
    shape of kernel_geometry's augmented system, times 2^s for s in 0..2.

    The columns start near 2^57 and d[1] near 2^115, so d and lam pass a long
    and stay within two limbs while LLL shortens them.  With s > 0 every d[i],
    i >= 1, is divisible by 4^(s i), so every quotient by one has an even
    divisor."""
    m, s = draw(st.integers(2, 3)), draw(st.integers(0, 2))
    n = draw(st.integers(m + 1, 9))
    bits = draw(st.integers(25, 30))
    rows = [draw(st.lists(st.integers(2 ** (bits - 1), 2 ** bits - 1), min_size=n, max_size=n))
            for _ in range(m)]
    return [[2**s * int(i == j) for i in range(n)] + [2**s * 10**8 * row[j] for row in rows]
            for j in range(n)]


def edge_quotient_basis(t, slack):
    """Four columns whose first visit of column 3 ends at a quotient of 128 - z
    - slack bits by d[1] = 4^t, z = 2t, and the operands' bit lengths put it
    below exactly 2^(128 - z - slack), with (a, b, c, e, den, q) of that step.

    The columns are 2^t e0, w e1, r e1 + w e2 and g e1 + h e2 + e3, with r =
    w/2, so the first three are LLL-reduced and stay.  At step i = 1 of
    gso_row's row 3, entry 2, u = (d[2] u - lam[3][1] lam[2][1]) / d[1] with d[2]
    = 4^t w^2, u = 4^t (g r + h w), lam[3][1] = 4^t g w and lam[2][1] = 4^t r w.
    With h w near -2 g r both products are near 2^(top - 1) and add, and w^2 and
    g r have mantissas of about 1.8, so the quotient 4^t w^2 h w has the full
    top + 2 - bits(d[1]) bits.
    """
    w = int(1.9 * 2 ** (31 - t))
    r = w // 2
    g = int(1.9 * 2 ** (31 - t - slack))
    h = -round(2 * g * r / w)
    x = 4**t
    cols = [[2**t, 0, 0, 0], [0, w, 0, 0], [0, r, w, 0], [0, g, h, 1]]
    a, b, c, e = x * w * w, x * (g * r + h * w), x * g * w, x * r * w
    return cols, (a, b, c, e, x, x * w * w * h * w)


class TestGmpTwoLimbQuotients:
    """The C loop's two-limb quotients (_lll.c's header, "Division") return GMP's:
    the same columns, d, lam and errors as the Python loop."""

    @settings(max_examples=150, deadline=None)
    @given(two_limb_bases(), st.sampled_from([Fraction(1, 2), Fraction(3, 4), DEFAULT_ALPHA]))
    def test_kernel_bases_match_python(self, gmp_kernel, cols, alpha):
        p, q, n = alpha.numerator, alpha.denominator, len(cols)
        assert record_or_error(gmp_kernel.reduce, cols, p, q, n) == \
            record_or_error(lattice._python_reduce, cols, p, q, n)

    @pytest.mark.parametrize("t", [0, 1, 5])
    @pytest.mark.parametrize("slack", [0, 3], ids=["past-the-bound", "at-the-bound"])
    def test_quotients_at_the_edge_match_python(self, gmp_kernel, t, slack):
        # slack 3: the quotient has 125 - z bits, the most the two-limb path
        # takes; slack 0: 128 - z bits, which sign-extend from 128 - z bits to
        # a negative number, so GMP must take it.
        cols, (a, b, c, e, den, quotient) = edge_quotient_basis(t, slack)
        z = 2 * t
        top = max(a.bit_length() + b.bit_length(), c.bit_length() + e.bit_length())
        assert (a * b - c * e) == quotient * den and max(a, abs(b), c, e) < 2**127
        assert top + 2 - den.bit_length() == abs(quotient).bit_length() == 128 - z - slack
        for alpha in (DEFAULT_ALPHA, Fraction(1, 2)):
            p, q = alpha.numerator, alpha.denominator
            for prefix in range(len(cols) + 1):
                assert gmp_kernel.reduce(cols, p, q, prefix) == \
                    lattice._python_reduce(cols, p, q, prefix)


# CROSSING's 0, +-1, edges of a C long and of two limbs and +-2^200, and small entries
RESUME_ENTRIES = st.one_of(st.sampled_from(CROSSING), st.integers(-20, 20))


@st.composite
def resume_inputs(draw):
    """n <= 5 columns of dimension n..n+2, drawn from RESUME_ENTRIES."""
    n = draw(st.integers(1, 5))
    dim = draw(st.integers(n, n + 2))
    return [draw(st.lists(RESUME_ENTRIES, min_size=dim, max_size=dim)) for _ in range(n)]


def resumed(cols, alpha, r, prefix):
    """lll on cols resumed from the reduction of their first r columns, which
    must be left as it was; or the type and message of what it raised."""
    try:
        start = lll(basis_of(cols[:r]), alpha, r)
        before = copy.deepcopy(start)
        reduced = lll(LatticeBasis(start.columns + tuple(map(tuple, cols[r:]))), alpha, prefix,
                      start)
    except (DependentColumns, AssertionError) as exc:
        return type(exc).__name__, str(exc)
    assert start == before
    return reduced


def full(cols, alpha, prefix):
    """lll on cols from k = 0, or the type and message of what it raised."""
    try:
        return lll(basis_of(cols), alpha, prefix)
    except (DependentColumns, AssertionError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.usefixtures("either_kernel")
class TestResume:
    """A loop resumed from the reduction of a basis's first r columns returns
    what it returns on the whole basis, in either kernel."""

    @settings(max_examples=150, deadline=None)
    @given(resume_inputs(), st.sampled_from([DEFAULT_ALPHA, *WIDE_ALPHAS]))
    def test_every_split_and_prefix_matches_the_whole_run(self, cols, alpha):
        # Where column j depends on the columns before it, a split r > j
        # raises in the start's own run, at the same column.
        n = len(cols)
        for prefix in range(n + 1):
            whole = full(cols, alpha, prefix)
            for r in range(1, n + 1):
                assert resumed(cols, alpha, r, prefix) == whole

    @settings(max_examples=100, deadline=None)
    @given(resume_inputs(), st.data())
    def test_a_dependent_new_column_raises_at_its_index(self, cols, data):
        # Independent columns, then column k, a combination of them, after a
        # split r <= k: the resumed run visits it last, as the whole run does.
        while cols and not isinstance(full(cols, DEFAULT_ALPHA, 0), lattice.Reduced):
            cols.pop()
        assume(cols)
        k = len(cols)
        r = data.draw(st.integers(1, k))
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        cols.append([sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(len(cols[0]))])
        whole = full(cols, DEFAULT_ALPHA, 0)
        assert whole == ("DependentColumns", f"column {k} is dependent on earlier columns")
        assert resumed(cols, DEFAULT_ALPHA, r, 0) == whole

    @pytest.mark.parametrize("w", [63, 64, 65])
    def test_head_columns_at_limb_boundaries(self, w):
        # The start's columns hold entries of w bits: words at the edge of a
        # long (63), entries just beyond one (64) and of two limbs (65).
        rng = random.Random(w)
        for n, dim in ((2, 3), (4, 5), (6, 6)):
            cols = basis_of_bits(rng, n, dim, w)
            for r in range(1, n + 1):
                assert resumed(cols, DEFAULT_ALPHA, r, n) == full(cols, DEFAULT_ALPHA, n)

    @pytest.mark.parametrize("n", [10, 20])
    def test_lo_targets_resume_from_one_prefix(self, n):
        for seed in range(3):
            for cols in lo_bases(generate_instance(n, seed).instance):
                assert resumed(cols, DEFAULT_ALPHA, n, n + 1) == full(cols, DEFAULT_ALPHA, n + 1)

    def test_a_start_that_does_not_match_raises(self):
        cols = [(3, 1, 0), (1, 4, 1), (0, 2, 5)]
        start = lll(basis_of(cols[:2]), DEFAULT_ALPHA, 2)
        basis = LatticeBasis(start.columns + (cols[2],))
        bad = [
            (LatticeBasis(tuple(cols)), start),  # the basis does not begin with its columns
            (basis, start._replace(d=start.d[:2])),  # d for prefix 1
            (basis, start._replace(lam=start.lam[:1])),
            (basis, lll(basis_of(cols[:2]), DEFAULT_ALPHA, 1)),  # reduced with prefix 1
        ]
        # The head of the 3 x 3 identity with lam row 1 of two entries, or a d
        # that is not positive: lll checks what the C entry checks, so
        # neither loop runs on it.
        identity = basis_of([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        for d, lam in (([1, 1, 1], [[], [0, 0]]), ([1, 0, 1], [[], [0]]), ([1, -1, 1], [[], [0]])):
            bad.append((identity, lattice.Reduced(identity.columns[:2], d, lam)))
        for b, s in bad:
            with pytest.raises(ValueError, match="start"):
                lll(b, DEFAULT_ALPHA, 0, s)


class TestGmpResume:
    """The C entry checks a start's shape itself and reads it without writing."""

    def test_a_malformed_start_raises_value_error(self, gmp_kernel):
        cols = [(3, 1, 0), (1, 4, 1), (0, 2, 5)]
        start = gmp_kernel.reduce(cols[:2], 99, 100, 2)
        for bad in (start[:2], (start.columns, start.d, start.lam[:1]),
                    (start.columns, [1, 10, 0], start.lam),  # a d not positive
                    (start.columns, start.d, [[], [1, 2]]),  # row 1 with two entries
                    (start.columns, start.d + [1, 1], start.lam + [[0, 0], [0, 0, 0]])):
            with pytest.raises(ValueError):
                gmp_kernel.reduce(cols, 99, 100, 0, bad)
        with pytest.raises(TypeError, match="must be an int"):
            gmp_kernel.reduce(cols, 99, 100, 0, (start.columns, [1, 10.0, 3], start.lam))
        # The state of the failed calls was freed, and the next call runs.
        head = start.columns + (cols[2],)
        assert gmp_kernel.reduce(head, 99, 100, 3, start) == \
            lattice._python_reduce(head, 99, 100, 3, start) == lll(basis_of(cols), DEFAULT_ALPHA, 3)

    @pytest.mark.parametrize("alpha", [DEFAULT_ALPHA, *WIDE_ALPHAS])
    def test_crossing_starts_match_python(self, gmp_kernel, alpha):
        # A start whose columns hold the CROSSING entries, -2^63 among them,
        # and whose d and lam run from words to beyond two limbs.
        p, q = alpha.numerator, alpha.denominator
        entries = CROSSING[1:]
        cols = [[x if r == i else (1 if r == i + 1 else 0) for r in range(len(entries) + 1)]
                for i, x in enumerate(entries)]
        cols.append([1] * (len(entries) + 1))
        for r in range(1, len(cols)):
            start = lattice._python_reduce(cols[:r], p, q, r)
            head = [list(c) for c in start.columns] + cols[r:]
            assert record_or_error(gmp_kernel.reduce, head, p, q, len(cols), start) == \
                record_or_error(lattice._python_reduce, head, p, q, len(cols), start)


# The edge of the C loop's inline cells (_lll.c's header, "Machine words"): a d
# or lam entry within +-(2^127 - 1) is held as an __int128, one past it in GMP.
INLINE_EDGE = 2**127


def traced_gso(run, *args):
    """run(*args) for a Python twin, and the d, lam and lam_t entries it holds
    before each of its lines and at its return: (its value, [(line number,
    {(name, i) or (name, i, j): value})])."""
    states = []

    def in_run(frame, event, arg):
        if event in ("line", "return"):
            entries = {}
            for name in ("d", "lam", "lam_t"):
                value = frame.f_locals.get(name)
                for i, x in enumerate(value if isinstance(value, list) else ()):
                    if isinstance(x, list):
                        entries.update({(name, i, j): y for j, y in enumerate(x)})
                    else:
                        entries[(name, i)] = x
            states.append((frame.f_lineno, entries))
        return in_run

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_run if frame.f_code is run.__code__ else None)
    try:
        value = run(*args)
    finally:
        sys.settrace(before)
    return value, states


def edge_crossings(run, states):
    """What traced_gso's states show of the inline edge: every value they
    take, and per entry its crossings in order, as (the source line that made
    it, True where it went past the edge and False where it came back)."""
    values, crossings = set(), {}
    for (line, before), (_, after) in zip(states, states[1:]):
        text = linecache.getline(run.__code__.co_filename, line).strip()
        for key, v in after.items():
            values.add(v)
            u = before.get(key, v)
            if (abs(u) < INLINE_EDGE) != (abs(v) < INLINE_EDGE):
                crossings.setdefault(key, []).append((text, abs(v) >= INLINE_EDGE))
    return values, crossings


def lifted_and_brought_back(crossings):
    """Whether an entry went past the edge in an exchange's row update (the
    Python loop's li[k] and li[k - 1]) and came back in a later step."""
    for steps in crossings.values():
        for i, (text, out) in enumerate(steps):
            if out and text.startswith("li[k") and any(not o for _, o in steps[i + 1:]):
                return True
    return False


# Columns whose d[1] or lam[1][0] is +-2^127 or +-(2^127 - 1) at its first
# visit: 2^127 = ||(2^63, 2^63)||^2 and -2^127 the inner product of that
# column with -(2^63, 2^63), in GMP (the entries 2^63 are past a long); -2^127
# = <(-2^63,) * 4, (2^62,) * 4>, a sum of words that lands on the one value of
# __int128 past the edge; and 2^127 - 1 as a sum of four squares.
SQUARES = [13043817825332782211, 5933560254, 526947, 20109]
EDGE_VALUE_BASES = [
    [[2**63, 2**63, 0], [-2**63, -2**63, 1]],
    [[2**62] * 4 + [0], [-2**63] * 4 + [1]],
    [SQUARES + [0], SQUARES + [1]],
    [SQUARES + [0], [-x for x in SQUARES] + [1], [0, 0, 0, 1, 1]],
]


def weight_bases(seed, count):
    """count [I; W] bases of 4 to 6 columns with two rows of 58- to 66-bit
    weights: d[1] starts within a few bits of 2^127, and the exchanges'
    row updates lift lam entries past it, which later steps bring back."""
    rng = random.Random(seed)
    bases = []
    for _ in range(count):
        n, bits = rng.randint(4, 6), rng.randint(58, 66)
        rows = [[rng.randrange(2 ** (bits - 1), 2**bits) for _ in range(n)] for _ in range(2)]
        bases.append([[int(i == j) for i in range(n)] + [row[j] for row in rows]
                      for j in range(n)])
    return bases


INLINE_EDGE_BASES = EDGE_VALUE_BASES + weight_bases(127, 6)


class TestGmpInlineGso:
    """The C loop's cells (_lll.c's header, "Machine words"): d and lam inline
    within +-(2^127 - 1) and in GMP past it.  reduce, a resumed reduce (LO's
    start) and the sweep return their Python twins' values on inputs whose d
    and lam cross that edge both ways, which each test checks on its inputs
    through the Python twin's trace."""

    def test_reduce_matches_python(self, gmp_kernel):
        values, lifted = set(), False
        for cols in INLINE_EDGE_BASES:
            n = len(cols)
            for alpha in (DEFAULT_ALPHA, Fraction(1, 2)):
                p, q = alpha.numerator, alpha.denominator
                for prefix in range(n + 1):
                    assert record_or_error(gmp_kernel.reduce, cols, p, q, prefix) == \
                        record_or_error(lattice._python_reduce, cols, p, q, prefix)
                seen, crossings = edge_crossings(
                    lattice._python_reduce, traced_gso(lattice._python_reduce, cols, p, q, n)[1])
                values |= seen
                lifted = lifted or lifted_and_brought_back(crossings)
        assert {INLINE_EDGE, -INLINE_EDGE, INLINE_EDGE - 1, 1 - INLINE_EDGE} <= values
        assert lifted

    def test_resumed_reduce_matches_python(self, gmp_kernel):
        # LO's shape: the start is the reduction of the first n - 1 columns,
        # whose d and lam lie on both sides of the edge, and the run resumes
        # with the last.
        p, q = DEFAULT_ALPHA.numerator, DEFAULT_ALPHA.denominator
        starts, lifted = set(), False
        for cols in weight_bases(128, 8):
            n = len(cols)
            for r in range(1, n):
                start = lattice._python_reduce(cols[:r], p, q, r)
                head = [list(c) for c in start.columns] + cols[r:]
                assert record_or_error(gmp_kernel.reduce, head, p, q, n, start) == \
                    record_or_error(lattice._python_reduce, head, p, q, n, start)
                starts |= {abs(x) >= INLINE_EDGE for x in chain(start.d, *start.lam)}
            start = lattice._python_reduce(cols[:n - 1], p, q, n - 1)
            head = [list(c) for c in start.columns] + cols[n - 1:]
            _, crossings = edge_crossings(lattice._python_reduce, traced_gso(
                lattice._python_reduce, head, p, q, n, start)[1])
            lifted = lifted or lifted_and_brought_back(crossings)
        assert starts == {False, True}
        assert lifted

    @pytest.mark.parametrize("step", [1, 2])
    def test_sweep_matches_python(self, gmp_kernel, step):
        # Kernels whose d lie past the edge, 2^127 among them, with targets
        # near them; and kernels e_0, M e_0 + e_1, M e_1 + e_2 with M near
        # 2^64 and d = 1, with targets a_1 D_1 + a_2 D_2 + e for a near 2^64,
        # whose lam_t[0] starts near 2^128 and comes back as the sweep takes
        # q_1 D_1 off.
        rng = random.Random(step)
        kernels = [EDGE_VALUE_BASES[0] + [[1, 0, 0]]]
        kernels += [[[rng.randrange(-2**66, 2**66) for _ in range(5)] for _ in range(3)]
                    for _ in range(4)]
        for _ in range(4):
            m = rng.randrange(2**63, 2**65)
            kernels.append([[1, 0, 0, 0, 0], [m, 1, 0, 0, 0], [0, m, 1, 0, 0]])
        d_values, came_back = set(), False
        for cols in kernels:
            d, lam = integral_gso(cols)
            d_values |= set(d)
            for _ in range(4):
                a = [rng.randrange(-2**65, 2**65) for _ in cols]
                target = [sum(x * c[r] for x, c in zip(a, cols)) + rng.randrange(-9, 9)
                          for r in range(len(cols[0]))]
                ours = gmp_kernel.sweep(cols, d, lam, target, step)
                theirs, states = traced_gso(lattice._python_sweep, cols, d, lam, target, step)
                assert ours == theirs
                first = {}
                for _, entries in states:
                    for key, v in entries.items():
                        first.setdefault(key, v)
                came_back = came_back or any(abs(first[key]) >= INLINE_EDGE > abs(v)
                                             for key, v in states[-1][1].items()
                                             if key[0] == "lam_t")
        assert INLINE_EDGE in d_values and max(d_values) > INLINE_EDGE
        assert came_back


def even_prefix(cols):
    """The C loop's even prefix of cols (_lll.c's header, "Even prefix"): (r,
    z), the run of leading columns whose entries are all even, ended by the
    first zero column or column with an odd entry, and the fewest trailing
    zero bits of their nonzero entries (None where r = 0)."""
    r, z = 0, None
    for col in cols:
        zeros = [(x & -x).bit_length() - 1 for x in col if x]
        if not zeros or not min(zeros):
            break
        r, z = r + 1, min(zeros + [z] if z is not None else zeros)
    return r, z


def held_to_python(gmp_kernel, cols, alpha):
    """Asserts that the C loop's record at every prefix of cols is the
    Python loop's, or that both raise alike; returns the Python loop's
    record for the prefix n (or what it raised)."""
    p, q, n = alpha.numerator, alpha.denominator, len(cols)
    theirs = record_or_error(lattice.PYTHON.reduce, cols, p, q, n)
    for prefix in range(n + 1):
        expected = (theirs._replace(d=theirs.d[:prefix + 1], lam=theirs.lam[:prefix])
                    if isinstance(theirs, lattice.Reduced) else theirs)
        assert record_or_error(gmp_kernel.reduce, cols, p, q, prefix) == expected
    return theirs


EVEN_PREFIX_ENTRIES = st.one_of(st.integers(-20, 20), st.sampled_from(CROSSING),
                                st.integers(-2**70, 2**70))


@st.composite
def even_prefix_inputs(draw):
    """2^z B for z in 1..3 on B's first r columns, then columns of which the
    first has an odd entry: n <= 6 columns of dimension n..n+2 drawn from
    EVEN_PREFIX_ENTRIES, r in 1..n (r = n: every column even), with a
    dependent column drawn in."""
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(n, n + 2))
    z, r = draw(st.integers(1, 3)), draw(st.integers(1, n))
    cols = [draw(st.lists(EVEN_PREFIX_ENTRIES, min_size=dim, max_size=dim)) for _ in range(n)]
    cols[:r] = [[x << z for x in col] for col in cols[:r]]
    if r < n:
        cols[r][draw(st.integers(0, dim - 1))] |= 1
    if n > 1 and draw(st.booleans()):  # column k a combination of the columns before it
        k = draw(st.integers(1, n - 1))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        cols[k] = [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(dim)]
    return cols


def half_sum_system(m, n, seed):
    """A system with 2b = A 1, from generate_system's rows (m = 1: the
    instance's), each row's last entry raised by one where its sum is odd."""
    system = generate_instance(n, seed).instance if m == 1 else generate_system(m, n, seed).system
    rows = [list(row) for row in system.A]
    for row in rows:
        row[-1] += sum(row) % 2
    return LdeSystem.from_rows(rows, [sum(row) // 2 for row in rows])


class TestGmpEvenPrefix:
    """The C loop reduces a basis's even leading columns at scale one (_lll.c's
    header, "Even prefix") and returns the Python loop's columns, d and lam at
    every prefix, and its errors, the same DependentColumns column among
    them."""

    @settings(max_examples=300, deadline=None)
    @given(even_prefix_inputs(), st.sampled_from([DEFAULT_ALPHA, Fraction(1, 2), *WIDE_ALPHAS]))
    def test_scaled_prefixes_match_python(self, gmp_kernel, cols, alpha):
        held_to_python(gmp_kernel, cols, alpha)

    @pytest.mark.parametrize("z", [1, 2, 3])
    def test_all_even_bases_match_python(self, gmp_kernel, z):
        # r = n: the whole run is at scale one, and dense columns whose
        # entries pass a long at the input's scale (basis_of_bits).
        rng = random.Random(z)
        for n, dim in ((1, 2), (3, 3), (5, 6), (7, 7)):
            for bits in (20, 63, 70):
                cols = [[x << z for x in col] for col in basis_of_bits(rng, n, dim, bits)]
                assert even_prefix(cols)[0] == n
                held_to_python(gmp_kernel, cols, DEFAULT_ALPHA)

    def test_rescaled_cells_and_columns_leave_the_words(self, gmp_kernel):
        # weight_bases times 2^z: at scale one d[1] starts within a few bits
        # of 2^127, so shifting the reduced state back by z moves d and lam
        # cells past 2^127 into GMP; and a diagonal of entries near 2^62,
        # reduced as it is, whose word entries pass a long when shifted
        # back, so their columns widen.
        crossed_cells = crossed_columns = False
        for z in (1, 2, 3):
            diagonal = [[2**62 + 2 * i + 1 if r == i else 0 for r in range(3)] for i in range(3)]
            for cols in weight_bases(z, 6) + [diagonal]:
                scaled = [[x << z for x in col] for col in cols]
                assert even_prefix(scaled) == (len(cols), z)
                ours = held_to_python(gmp_kernel, scaled, DEFAULT_ALPHA)
                one = lattice._python_reduce(cols, 99, 100, len(cols))
                crossed_cells |= any(abs(u) < INLINE_EDGE <= abs(v) for u, v in
                                     zip(chain(one.d, *one.lam), chain(ours.d, *ours.lam)))
                crossed_columns |= any(a_long(u) and not a_long(v) for u, v in
                                       zip(chain(*one.columns), chain(*ours.columns)))
        assert crossed_cells and crossed_columns

    @pytest.mark.parametrize("n", [20, 30])
    def test_cjloss_bases_match_python(self, gmp_kernel, n):
        # [2I; 2N A] and the column (1, ..., 1, 2N b): the even prefix is
        # the n doubled columns, or n - 1 where 2b = A 1 drops column n - 1.
        systems = [generate_instance(n, 0).instance, generate_system(2, n, 0).system,
                   half_sum_system(1, n, 1), half_sum_system(2, n, 1)]
        for system in systems:
            cols = cjloss_basis(system, DEFAULT_N).columns
            half = all(2 * b == sum(row) for row, b in zip(system.A, system.b))
            assert len(cols) == n + 1 - half
            assert even_prefix(cols) == (n - half, 1)
            assert isinstance(held_to_python(gmp_kernel, cols, DEFAULT_ALPHA), lattice.Reduced)


def copy_of_source(directory):
    source = directory / "_lll.c"
    source.write_bytes(lattice._SOURCE.read_bytes())
    return source


def built_name(source):
    """The file name the C extension of source is built under."""
    return lattice._binary_name(source)


def no_compiler(argv, **kwargs):
    raise FileNotFoundError(2, "No such file or directory", argv[0])


def no_gmp(argv, **kwargs):
    raise subprocess.CalledProcessError(1, argv)


def hung_compiler(argv, **kwargs):
    raise subprocess.TimeoutExpired(argv, lattice.BUILD_TIMEOUT_S)


RUN = subprocess.run


def no_python_headers(argv, **kwargs):
    """The compiler itself, whose -I names a directory without Python.h."""
    return RUN(argv, **kwargs)


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
        reduce = lattice._load(source).reduce
        assert sorted(p.name for p in tmp_path.iterdir()) == ["_lll.c", built_name(source)]
        cols = build_lattice_B(generate_instance(16, 0).instance, DEFAULT_N).columns
        assert reduce(cols, 99, 100, 15) == gmp_kernel.reduce(cols, 99, 100, 15)
        # The built library is loaded again without a compiler; an edited
        # source is not, since its hash names another file.
        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert lattice._load(source).reduce(cols, 99, 100, 15) == reduce(cols, 99, 100, 15)
        source.write_bytes(source.read_bytes() + b"\n")
        assert lattice._load(source) is lattice.PYTHON

    def test_a_build_removes_stale_binaries(self, gmp_kernel, tmp_path):
        # A build deletes the binaries of older sources beside it, under this
        # interpreter's suffix or the plain .so of older builds, but not a
        # binary under another suffix or the build directories of concurrent
        # builds; a plain load deletes nothing.
        source = copy_of_source(tmp_path)
        stale = [tmp_path / f"_lll_0000000000000000{EXTENSION_SUFFIXES[0]}",
                 tmp_path / "_lll_0000000000000000.so"]
        other = tmp_path / "_lll_0000000000000000.abi3.so"
        for path in (*stale, other):
            path.write_bytes(b"")
        (tmp_path / "_lll_build_0000").mkdir()
        assert lattice._load(source) is not lattice.PYTHON
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(["_lll.c", "_lll_build_0000", other.name, built_name(source)])
        stale[0].write_bytes(b"")
        assert lattice._load(source) is not lattice.PYTHON
        assert stale[0].exists()

    @pytest.mark.parametrize("binary", ["not-a-library", "no-init-function"])
    def test_a_binary_that_does_not_import_runs_the_python_loop(self, gmp_kernel, tmp_path,
                                                               monkeypatch, binary):
        source = copy_of_source(tmp_path)
        built = tmp_path / built_name(source)
        if binary == "not-a-library":
            built.write_bytes(b"not a shared library\n")
        else:
            (tmp_path / "empty.c").write_text("int knapcrack_empty;\n")
            subprocess.run(["cc", "-shared", "-fPIC", "-o", str(built), str(tmp_path / "empty.c")],
                           check=True, capture_output=True)
        monkeypatch.setattr(subprocess, "run", no_compiler)
        monkeypatch.setattr(lattice, "_SOURCE", source)
        monkeypatch.setattr(lattice, "_kernel", lattice._UNBUILT)
        assert lattice._load(source) is lattice.PYTHON
        python_reduces = []

        def python_reduce(*args):
            python_reduces.append(args)
            return lattice._python_reduce(*args)

        monkeypatch.setattr(lattice, "PYTHON", lattice.PYTHON._replace(reduce=python_reduce))
        assert lattice.kernel_name() == "python"
        basis = build_lattice_B(generate_instance(16, 0).instance, DEFAULT_N)
        assert lll(basis) == gmp_kernel.reduce(basis.columns, 99, 100, 0)
        assert len(python_reduces) == 1
        assert built.exists()

    def test_concurrent_first_builds_leave_one_binary(self, gmp_kernel, tmp_path):
        # Processes that start together may each build; each renames its own
        # finished file into place, and every one of them loads the C loop.
        source = copy_of_source(tmp_path)
        code = ("import sys; from pathlib import Path; from knapcrack import lattice; "
                "sys.exit(lattice._load(Path(sys.argv[1])) is lattice.PYTHON)")
        env = {**os.environ, "PYTHONPATH": str(lattice._SOURCE.parent.parent)}
        procs = [subprocess.Popen([sys.executable, "-c", code, str(source)], env=env)
                 for _ in range(3)]
        assert [proc.wait(timeout=300) for proc in procs] == [0, 0, 0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["_lll.c", built_name(source)]

    @pytest.mark.parametrize("failure", [no_compiler, no_gmp, hung_compiler, no_python_headers])
    def test_a_failed_build_runs_the_python_loop(self, gmp_kernel, tmp_path, monkeypatch,
                                                 failure):
        builds = []

        def build(argv, **kwargs):
            builds.append(argv)
            failure(argv, **kwargs)

        python_reduces = []

        def python_reduce(*args):
            python_reduces.append(args)
            return lattice._python_reduce(*args)

        monkeypatch.setattr(lattice, "PYTHON", lattice.PYTHON._replace(reduce=python_reduce))
        monkeypatch.setattr(subprocess, "run", build)
        monkeypatch.setattr(lattice, "_SOURCE", copy_of_source(tmp_path))
        monkeypatch.setattr(lattice, "_kernel", lattice._UNBUILT)
        # Python's include directory has no headers; only no_python_headers
        # runs the compiler to find that out.
        monkeypatch.setattr(sysconfig, "get_paths", lambda: {"include": str(tmp_path / "include")})
        stale = tmp_path / f"_lll_0000000000000000{EXTENSION_SUFFIXES[0]}"
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
