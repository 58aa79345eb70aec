"""Lattice formulations and column-scan attacks.

Builds the stacked basis B = [I; A*N], extracts the (D, C, E) block
structure of its LLL reduction (kernel basis, companion block, and the
row-space basis E with A*C = E), and implements the three classic
column-scan attacks (LO, CJLOSS, AHL) on top of the same exact LLL.

Every basis is one block shape, [h*I; 0; t*A] plus at most one column, built
by ``_stacked``: [I; N*A] to decompose, LO's b-free prefix [I; -a], CJLOSS's
[2I; 2N*A] and AHL's [I; 0; N2*A].  Bases stay tuples of column tuples through
LLL, and ``decompose`` slices D, C and E out of the reduced columns.  It
keeps the heads of the first s columns as the decomposition's
``kernel_columns``, which the contract, the sweeps and the features read;
D, their rows, is derived only where a caller asks for it.

Every decomposition is checked before it is returned: A*D = 0, A*C = E,
and U = (D | C) unimodular.  The contract reads the columns: A*D on
``kernel_columns`` and A*C on C's, through ``intmat.products``, which runs
in the C extension where it loads.  Unimodularity is read from the
integral Gram-Schmidt of D, which the decomposition keeps for the sweeps
and the features, instead of an n x n determinant.  With s = n - m, d[s] =
det(D^T D), and A of full row rank m:

    det(U)^2 * det(A A^T) = d[s] * det(E)^2.

Proof: stack M = (D^T ; A), an n x n matrix.  Since A*D = 0 and A*C = E,

    M U = ( D^T D  D^T C )        M M^T = ( D^T D    0   )
          (   0      E   ),               (   0    A A^T ),

so det(M) det(U) = d[s] det(E) and det(M)^2 = d[s] det(A A^T).  Squaring
the first and dividing by the second (d[s] > 0 when D has independent
columns) gives the identity.  Hence U is unimodular iff d[s] * det(E)^2 =
det(A A^T), a test on two m x m determinants.  In lattice terms: with
Delta(A) the gcd of A's m x m minors, |det U| = [ker_Z A : L(D)] *
|det E| / Delta(A) and vol(ker_Z A)^2 = det(A A^T) / Delta(A)^2; both
factors of |det U| are positive integers, so the one identity holds iff
D spans ker_Z(A) and |det E| = Delta(A).  Delta(A) cancels and is never
computed.

The Gram-Schmidt of D is LLL's own final state: D is the first s reduced
columns, and ``lll`` returns d[0..s] and lam rows 0..s-1 with them, so it
is not computed a second time from D's columns.  That is a trade against an
independent check.  A*D = 0 and A*C = E are still checked on the columns,
but the unimodularity identity reads the loop's d[s].  A wrong d[s] still
fails the identity, unless it happens to equal det(A A^T) / det(E)^2.  A
wrong lam is read only by the sweeps, whose vector is x_b - D*q: it can
lose a rescue, but a wrong verdict still cannot pass substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EscalationExhausted, InvalidInput, InvalidN
from .intmat import det_bareiss, gram, mat_vec, products, solve_exact
from .lattice import DEFAULT_ALPHA, LatticeBasis, lll
from .problems import LdeSystem, complement, is_subset_sum

DEFAULT_N = 10**8
DEFAULT_N1 = 10**4
MAX_ESCALATIONS = 4

BINARY = "binary"
SHORT_NONBINARY = "short_nonbinary"
NO_INTEGER_SOLUTION = "no_integer_solution"
FAILURE = "failure"


@dataclass(frozen=True)
class AttackVerdict:
    """Outcome of one attack: status, witness vector, scan metadata."""

    status: str
    x: tuple[int, ...] | None = None
    meta: dict = field(default_factory=dict)

    @property
    def solved(self) -> bool:
        return self.status == BINARY

    def to_dict(self) -> dict:
        return {"status": self.status, "x": list(self.x) if self.x is not None else None,
                "meta": dict(self.meta)}


def classify_solution(problem, x, **meta) -> AttackVerdict:
    """The one verdict for an integer vector x: BINARY or SHORT_NONBINARY.

    Substitution is checked here, and a vector that misses it is a bug.
    """
    x = tuple(map(int, x))
    if not problem.is_solution(x):
        raise AssertionError("verdict vector does not satisfy the problem")
    return AttackVerdict(BINARY if all(v in (0, 1) for v in x) else SHORT_NONBINARY,
                         x, dict(meta))


@dataclass(frozen=True)
class KernelDecomposition:
    """(D, C, E) blocks of the LLL-reduced stacked basis.

    D columns span ker_Z(A) exactly, A*C = E, and (D | C) is unimodular.
    ``kernel_columns`` holds D's columns, as LLL returned them; C and E are
    row-major, and D is the rows of ``kernel_columns``.  N_used is the
    scaling that produced the zero block.  ``gso`` is the integral
    Gram-Schmidt (d, lam) of D's columns, read off LLL's state and shared by
    the contract, the sweeps and the features; callers only read it.
    """

    kernel_columns: tuple[tuple[int, ...], ...]
    C: tuple[tuple[int, ...], ...]
    E: tuple[tuple[int, ...], ...]
    N_used: int
    gso: tuple[list[int], list[list[int]]]

    @property
    def D(self) -> tuple[tuple[int, ...], ...]:
        """D row-major: the rows of ``kernel_columns``, transposed at each read."""
        return tuple(zip(*self.kernel_columns))


def _stacked(sys: LdeSystem, head: int, tail: int, gap: int = 0) -> tuple[tuple[int, ...], ...]:
    """The n columns head * e_j over gap zeros over tail * (column j of A)."""
    zeros = (0,) * (sys.n - 1 + gap)
    return tuple(zeros[:j] + (head,) + zeros[j:] + tuple([tail * v for v in col])
                 for j, col in enumerate(zip(*sys.A)))


def build_lattice_B(sys: LdeSystem, N: int) -> LatticeBasis:
    """The (n+m) x n stacked basis: column j is e_j over N * (column j of A)."""
    if N < 1:
        raise InvalidN(f"N must be positive, got {N}")
    return LatticeBasis(_stacked(sys, 1, N))


def decompose(sys: LdeSystem, N: int = DEFAULT_N,
              alpha: Fraction = DEFAULT_ALPHA) -> KernelDecomposition:
    """LLL-reduce [I; A*N] and split off the (D, C, E) blocks.

    The zero block under the first n-m columns is guaranteed only for large
    enough N, so when it fails to appear N is squared and the reduction is
    retried (at most MAX_ESCALATIONS times).
    """
    n, s = sys.n, sys.n - sys.m
    current = N
    for _ in range(MAX_ESCALATIONS + 1):
        cols, d, lam = lll(build_lattice_B(sys, current), alpha, s)
        if not any(any(c[n:]) for c in cols[:s]):
            kd = KernelDecomposition(
                kernel_columns=tuple(c[:n] for c in cols[:s]),
                C=tuple(zip(*(c[:n] for c in cols[s:]))),
                E=tuple(zip(*(tuple(v // current for v in c[n:]) for c in cols[s:]))),
                N_used=current, gso=(d, lam))
            _check_decomposition(sys, kd)
            return kd
        current = max(current * current, 2 * current)
    raise EscalationExhausted(
        f"zero block absent after {MAX_ESCALATIONS} escalations from N={N}")


def _check_decomposition(sys: LdeSystem, kd: KernelDecomposition) -> None:
    """A*D = 0 and A*C = E on the columns of D and C, and d[s] * det(E)^2 =
    det(A A^T) (module docstring)."""
    if any(map(any, products(sys.A, kd.kernel_columns))):
        raise AssertionError("A*D != 0 in decomposition")
    if products(sys.A, tuple(zip(*kd.C))) != list(map(list, kd.E)):
        raise AssertionError("A*C != E in decomposition")
    d, _ = kd.gso
    det_e = det_bareiss(kd.E)
    if d[-1] * det_e * det_e != det_bareiss(gram(sys.A)):
        raise AssertionError("(D|C) is not unimodular")


def special_solution(kd: KernelDecomposition, b) -> list[int] | None:
    """C * E^-1 * b when E^-1 b is integral; None when it is not.

    A non-integral E^-1 b certifies that no integer solution exists.
    Raises SingularE when E is singular.
    """
    b = [int(v) for v in b]
    y = solve_exact(kd.E, b)
    if any(v.denominator != 1 for v in y):
        return None
    return mat_vec(kd.C, [int(v) for v in y])


def _scan_lo(cols: tuple[tuple[int, ...], ...], n: int):
    """Columns whose first n entries lie in {0, lambda} with zero tail."""
    for j, col in enumerate(cols):
        if any(v != 0 for v in col[n:]):
            continue
        head = col[:n]
        nonzero = {v for v in head if v != 0}
        if len(nonzero) != 1:
            continue
        lam = nonzero.pop()
        yield j, lam, [v // lam for v in head]


def attack_lo(sys: LdeSystem, alpha: Fraction = DEFAULT_ALPHA) -> AttackVerdict:
    """LO attack: reduce [I, 0; -a, b] and scan for a {0, lambda} column.

    Candidate columns are divided by lambda (any sign, any magnitude) and
    feasibility-checked, on sys as given and then on its complement.  The
    two bases differ only in their last column, and LLL reaches it only once
    the b-free prefix [I; -a] is reduced, so that prefix is reduced once and
    each target's reduction resumes from it (``lll``'s start).  The
    complement's tail runs only after the scan of sys's reduced basis misses.
    Raises InvalidInput unless sys is a subset-sum instance (``is_subset_sum``).
    """
    if not is_subset_sum(sys):
        raise InvalidInput("lo takes a subset-sum instance: one equation, positive "
                         "coefficients and 0 < b < sum(a)")
    n = sys.n
    head = lll(LatticeBasis(_stacked(sys, 1, -1)), alpha, n)
    for flipped, target in enumerate((sys, complement(sys))):
        reduced = lll(LatticeBasis(head.columns + ((0,) * n + target.b,)), alpha, start=head)
        for j, lam, x in _scan_lo(reduced.columns, n):
            if target.is_solution(x):
                return classify_solution(sys, [1 - v for v in x] if flipped else x,
                                         algorithm="lo", column=j, scan_lambda=lam,
                                         used_complement=bool(flipped))
    return AttackVerdict(FAILURE, meta={"algorithm": "lo"})


def _scan_pm1(cols: tuple[tuple[int, ...], ...], n: int):
    """Columns (or negations) with first n entries in {-1, +1} and zero tail."""
    for j, col in enumerate(cols):
        if any(v != 0 for v in col[n:]):
            continue
        head = col[:n]
        if all(v in (-1, 1) for v in head):
            yield j, [(v + 1) // 2 for v in head], False
            yield j, [(1 - v) // 2 for v in head], True


def cjloss_basis(sys: LdeSystem, N: int) -> LatticeBasis:
    """Doubled CJLOSS basis [2I, 1; 2AN, 2bN] (x2 keeps entries integral).

    When 2b = A 1 the n + 1 columns are dependent, and column n - 1 is left
    out: the other n are a basis of the same lattice.  Raises InvalidN
    unless N > sqrt(n)/2.
    """
    n = sys.n
    if 4 * N * N <= n:
        raise InvalidN(f"need N > sqrt(n)/2, got N={N}, n={n}")
    cols = _stacked(sys, 2, 2 * N)
    if all(2 * bi == sum(row) for row, bi in zip(sys.A, sys.b)):
        # The last column is then half the sum of the other n.
        cols = cols[:-1]
    return LatticeBasis(cols + ((1,) * n + tuple(2 * N * bi for bi in sys.b),))


def attack_cjloss(sys: LdeSystem, N: int = DEFAULT_N,
                  alpha: Fraction = DEFAULT_ALPHA) -> AttackVerdict:
    """CJLOSS attack: scan lll(cjloss_basis(sys, N)) for a +-1 column.

    Runs on the system as given, one row or several, with no complement
    fallback.  A solution x shows as +-(2x - 1) over a zero tail, and the
    scan tries both signs.  The complement's basis (each b replaced by its
    row sum minus b) differs only in its last column: the sum of the n
    generators 2e_j over 2N * (column j of A) minus this one (when 2b = A 1
    the two are equal, and column n - 1 is left out of both).  So both
    bases span one lattice, in which x and its complement 1 - x are the same
    vector up to sign, and a complement run would only re-base it.  At
    density one such a fallback rescued none of 93 misses (m = 1, even
    n = 16-30 with seeds 0-19, n = 40, 50, ..., 100 with seeds 0-9).
    """
    reduced = lll(cjloss_basis(sys, N), alpha)
    for j, x, negated in _scan_pm1(reduced.columns, sys.n):
        if sys.is_solution(x):
            return classify_solution(sys, x, algorithm="cjloss", column=j, negated=negated)
    return AttackVerdict(FAILURE, meta={"algorithm": "cjloss"})


# An alias kept only because perfbench/layers.py::patch_points wraps this name.
attack_cjloss_system = attack_cjloss


def ahl_basis(sys: LdeSystem, N1: int, N2: int) -> LatticeBasis:
    """The (n+m+1) x (n+1) AHL basis [I, 0; 0, N1; A*N2, -b*N2]."""
    last = (0,) * sys.n + (N1,) + tuple(-N2 * bi for bi in sys.b)
    return LatticeBasis(_stacked(sys, 1, N2, gap=1) + (last,))


def attack_ahl(sys: LdeSystem, alpha: Fraction = DEFAULT_ALPHA) -> AttackVerdict:
    """AHL attack: inspect column n-m+1 of the reduced basis.

    The scaling integers are N1 = DEFAULT_N1 and N2 = 2^(n+m) * N1^2 + 1,
    the least N2 the method admits.  A hit has |entry n+1| = N1 with a
    zero tail; after sign normalization its first n entries form an integer
    solution of A x = b (binary or not).  Anything else is a failure.
    """
    n, m = sys.n, sys.m
    N1 = DEFAULT_N1
    N2 = 2 ** (n + m) * N1 * N1 + 1
    reduced = lll(ahl_basis(sys, N1, N2), alpha)
    col = reduced.columns[n - m]
    if abs(col[n]) == N1 and all(v == 0 for v in col[n + 1:]):
        if col[n] == -N1:
            col = [-v for v in col]
        x = col[:n]
        return classify_solution(sys, x, algorithm="ahl", N1=N1, N2=N2)
    return AttackVerdict(FAILURE, meta={"algorithm": "ahl", "N1": N1, "N2": N2})
