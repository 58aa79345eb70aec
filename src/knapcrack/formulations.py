"""Lattice formulations and column-scan attacks.

Builds the stacked basis B = [I; A*N], extracts the (D, C, E) block
structure of its LLL reduction (kernel basis, companion block, and the
row-space basis E with A*C = E), and implements the three classic
column-scan attacks (LO, CJLOSS, AHL) on top of the same exact LLL.

Every decomposition is checked before it is returned: A*D = 0, A*C = E,
and U = (D | C) unimodular.  Unimodularity is read from the integral
Gram-Schmidt of D, which the decomposition keeps for the sweeps and the
features, instead of an n x n determinant.  With s = n - m, d[s] =
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
computed.  The GSO comes from D's columns, not from LLL's state, so the
check stays independent of the kernel that produced D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from ._lll_py import integral_gso
from .errors import DependentColumns, EscalationExhausted, InvalidN
from .intmat import det_bareiss, gram, mat_mul, mat_vec, solve_exact
from .lattice import DEFAULT_ALPHA, LatticeBasis, lll, lll_shared_prefix
from .problems import LdeSystem, complement, is_subset_sum, normalize

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


def binary_verdict(problem, x, **meta) -> AttackVerdict:
    """BinarySolution verdict; substitution is checked here, and a miss is a bug."""
    x = tuple(int(v) for v in x)
    if any(v not in (0, 1) for v in x):
        raise AssertionError("binary verdict with non-binary vector")
    if not problem.is_solution(x):
        raise AssertionError("binary verdict does not satisfy the problem")
    return AttackVerdict(BINARY, x, dict(meta))


def short_nonbinary_verdict(problem, x, **meta) -> AttackVerdict:
    x = tuple(int(v) for v in x)
    if all(v in (0, 1) for v in x):
        raise AssertionError("vector is binary, not a short non-binary witness")
    if not problem.is_solution(x):
        raise AssertionError("witness does not satisfy the problem")
    return AttackVerdict(SHORT_NONBINARY, x, dict(meta))


def classify_solution(problem, x, **meta) -> AttackVerdict:
    """Binary or short-non-binary verdict for a verified integer solution."""
    if all(v in (0, 1) for v in x):
        return binary_verdict(problem, x, **meta)
    return short_nonbinary_verdict(problem, x, **meta)


@dataclass(frozen=True)
class KernelDecomposition:
    """(D, C, E) blocks of the LLL-reduced stacked basis.

    D columns span ker_Z(A) exactly, A*C = E, and (D | C) is unimodular.
    All matrices row-major; N_used is the scaling that produced the zero
    block.  ``gso`` is the integral Gram-Schmidt of D's columns, built once
    and shared by the contract, the sweeps and the features.
    """

    D: tuple[tuple[int, ...], ...]
    C: tuple[tuple[int, ...], ...]
    E: tuple[tuple[int, ...], ...]
    N_used: int

    def kernel_columns(self) -> list[list[int]]:
        return [list(col) for col in zip(*self.D)]

    @cached_property
    def gso(self) -> tuple[list[int], list[list[int]]]:
        """``integral_gso`` (d, lam) of the kernel columns; callers only read it."""
        return integral_gso(self.kernel_columns())


def build_lattice_B(sys: LdeSystem, N: int) -> LatticeBasis:
    """The (n+m) x n stacked basis: column j is e_j over N * (column j of A)."""
    if N < 1:
        raise InvalidN(f"N must be positive, got {N}")
    n, m = sys.n, sys.m
    cols = []
    for j in range(n):
        col = [0] * n
        col[j] = 1
        col.extend(N * sys.A[i][j] for i in range(m))
        cols.append(col)
    return LatticeBasis.from_columns(cols)


def decompose(sys: LdeSystem, N: int = DEFAULT_N,
              alpha: Fraction = DEFAULT_ALPHA) -> KernelDecomposition:
    """LLL-reduce [I; A*N] and split off the (D, C, E) blocks.

    The zero block under the first n-m columns is guaranteed only for large
    enough N, so when it fails to appear N is squared and the reduction is
    retried (at most MAX_ESCALATIONS times).
    """
    n, m = sys.n, sys.m
    current = N
    for _ in range(MAX_ESCALATIONS + 1):
        reduced = lll(build_lattice_B(sys, current), alpha)
        cols = reduced.column_lists()
        if all(cols[j][n + i] == 0 for j in range(n - m) for i in range(m)):
            d_rows = tuple(tuple(cols[j][i] for j in range(n - m)) for i in range(n))
            c_rows = tuple(tuple(cols[n - m + j][i] for j in range(m)) for i in range(n))
            e_rows = tuple(tuple(cols[n - m + j][n + i] // current for j in range(m))
                           for i in range(m))
            kd = KernelDecomposition(D=d_rows, C=c_rows, E=e_rows, N_used=current)
            _check_decomposition(sys, kd)
            return kd
        current = max(current * current, 2 * current)
    raise EscalationExhausted(
        f"zero block absent after {MAX_ESCALATIONS} escalations from N={N}")


def _check_decomposition(sys: LdeSystem, kd: KernelDecomposition) -> None:
    """A*D = 0, A*C = E, and d[s] * det(E)^2 = det(A A^T) (module docstring)."""
    ad = mat_mul(sys.A, kd.D)
    if any(x != 0 for row in ad for x in row):
        raise AssertionError("A*D != 0 in decomposition")
    if mat_mul(sys.A, kd.C) != [list(r) for r in kd.E]:
        raise AssertionError("A*C != E in decomposition")
    try:
        d, _ = kd.gso
    except DependentColumns:
        raise AssertionError("D has dependent columns") from None
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


def _scan_lo(cols: list[list[int]], n: int):
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
    feasibility-checked; on a miss the complementary problem is tried.  It
    shares a, so only the last column differs: the b-free prefix is reduced
    once, and the complement's reduction resumes from it (lll_shared_prefix).
    Raises ValueError unless sys is a subset-sum instance (``is_subset_sum``).
    """
    if not is_subset_sum(sys):
        raise ValueError("lo takes a subset-sum instance: one equation, positive "
                         "coefficients and 0 < b < sum(a)")
    targets = list(_attack_targets(sys))
    a, n = sys.A[0], sys.n
    prefix = [[int(i == j) for i in range(n)] + [-a[j]] for j in range(n)]
    lasts = [[0] * n + [target.b[0]] for target, _ in targets]
    for (target, flipped), reduced in zip(targets, lll_shared_prefix(prefix, lasts, alpha)):
        for j, lam, x in _scan_lo(reduced.column_lists(), n):
            if target.is_solution(x):
                return binary_verdict(sys, [1 - v for v in x] if flipped else x,
                                      algorithm="lo", column=j, scan_lambda=lam,
                                      used_complement=flipped)
    return AttackVerdict(FAILURE, meta={"algorithm": "lo"})


def _attack_targets(sys: LdeSystem):
    """(system, flipped): the normalized instance, then its complement as the fallback."""
    first, flipped = normalize(sys)
    yield first, flipped
    yield complement(first), not flipped


def _scan_pm1(cols: list[list[int]], n: int):
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
    n, m = sys.n, sys.m
    if 4 * N * N <= n:
        raise InvalidN(f"need N > sqrt(n)/2, got N={N}, n={n}")
    cols = []
    for j in range(n):
        col = [0] * (n + m)
        col[j] = 2
        for i in range(m):
            col[n + i] = 2 * N * sys.A[i][j]
        cols.append(col)
    last = [1] * n + [2 * N * bi for bi in sys.b]
    if all(2 * bi == sum(row) for row, bi in zip(sys.A, sys.b)):
        # last is then half the sum of the other n columns.
        cols.pop()
    cols.append(last)
    return LatticeBasis.from_columns(cols)


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
    for j, x, negated in _scan_pm1(reduced.column_lists(), sys.n):
        if sys.is_solution(x):
            return binary_verdict(sys, x, algorithm="cjloss", column=j, negated=negated)
    return AttackVerdict(FAILURE, meta={"algorithm": "cjloss"})


# An alias kept only because perfbench/layers.py::patch_points wraps this name.
attack_cjloss_system = attack_cjloss


def ahl_basis(sys: LdeSystem, N1: int, N2: int) -> LatticeBasis:
    """The (n+m+1) x (n+1) AHL basis [I, 0; 0, N1; A*N2, -b*N2]."""
    n, m = sys.n, sys.m
    cols = []
    for j in range(n):
        col = [0] * (n + 1 + m)
        col[j] = 1
        for i in range(m):
            col[n + 1 + i] = N2 * sys.A[i][j]
        cols.append(col)
    last = [0] * n + [N1] + [-N2 * bi for bi in sys.b]
    cols.append(last)
    return LatticeBasis.from_columns(cols)


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
    col = reduced.column_lists()[n - m]
    if abs(col[n]) == N1 and all(v == 0 for v in col[n + 1:]):
        if col[n] == -N1:
            col = [-v for v in col]
        x = col[:n]
        return classify_solution(sys, x, algorithm="ahl", N1=N1, N2=N2)
    return AttackVerdict(FAILURE, meta={"algorithm": "ahl", "N1": N1, "N2": N2})
