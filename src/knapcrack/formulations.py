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
from .errors import DependentColumns, EscalationExhausted, InvalidBigInts, InvalidN
from .intmat import det_bareiss, gram, mat_mul, mat_vec, solve_exact
from .lattice import DEFAULT_ALPHA, LatticeBasis, lll
from .problems import Complement, LdeSystem, SubsetSumInstance, normalize

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
    """BinarySolution verdict; substitution into the problem is checked here."""
    x = tuple(int(v) for v in x)
    if any(v not in (0, 1) for v in x):
        raise ValueError("binary verdict with non-binary vector")
    if not problem.is_solution(x):
        raise ValueError("binary verdict does not satisfy the problem")
    return AttackVerdict(BINARY, x, dict(meta))


def short_nonbinary_verdict(problem, x, **meta) -> AttackVerdict:
    x = tuple(int(v) for v in x)
    if all(v in (0, 1) for v in x):
        raise ValueError("vector is binary, not a short non-binary witness")
    if not problem.is_solution(x):
        raise ValueError("witness does not satisfy the problem")
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

    @property
    def n(self) -> int:
        return len(self.D)

    @property
    def m(self) -> int:
        return len(self.E)

    def kernel_columns(self) -> list[list[int]]:
        return [list(col) for col in zip(*self.D)]

    @cached_property
    def gso(self) -> tuple[list[int], list[list[int]]]:
        """``integral_gso`` (d, lam) of the kernel columns; callers only read it."""
        return integral_gso(self.kernel_columns())


def kernel_columns(kernel) -> list[list[int]]:
    """Columns of a KernelDecomposition's D, or of an n x s row-major matrix."""
    if hasattr(kernel, "kernel_columns"):
        return kernel.kernel_columns()
    # Plain ints: the exact Gram/determinant paths must never see fixed-width
    # integer types.
    rows = [[int(x) for x in r] for r in kernel]
    return [list(c) for c in zip(*rows)]


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
    a_rows = [list(r) for r in sys.A]
    ad = mat_mul(a_rows, [list(r) for r in kd.D])
    if any(x != 0 for row in ad for x in row):
        raise AssertionError("A*D != 0 in decomposition")
    ac = mat_mul(a_rows, [list(r) for r in kd.C])
    if ac != [list(r) for r in kd.E]:
        raise AssertionError("A*C != E in decomposition")
    try:
        d, _ = kd.gso
    except DependentColumns:
        raise AssertionError("D has dependent columns") from None
    det_e = det_bareiss([list(r) for r in kd.E])
    if d[-1] * det_e * det_e != det_bareiss(gram(a_rows)):
        raise AssertionError("(D|C) is not unimodular")


def special_solution(kd: KernelDecomposition, b) -> list[int] | None:
    """C * E^-1 * b when E^-1 b is integral; None when it is not.

    A non-integral E^-1 b certifies that no integer solution exists.
    Raises SingularE when E is singular.
    """
    b = [int(v) for v in b]
    y = solve_exact([list(r) for r in kd.E], b)
    if any(v.denominator != 1 for v in y):
        return None
    y_int = [int(v) for v in y]
    return mat_vec([list(r) for r in kd.C], y_int)


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


def attack_lo(inst: SubsetSumInstance, alpha: Fraction = DEFAULT_ALPHA) -> AttackVerdict:
    """LO attack: reduce [I, 0; -a, b] and scan for a {0, lambda} column.

    Candidate columns are divided by lambda (any sign, any magnitude) and
    feasibility-checked; on a miss the complementary problem is tried.
    """
    for comp in _attack_targets(inst):
        t = comp.instance
        n = t.n
        cols = [[0] * (n + 1) for _ in range(n + 1)]
        for j in range(n):
            cols[j][j] = 1
            cols[j][n] = -t.a[j]
        cols[n][n] = t.b
        reduced = lll(LatticeBasis.from_columns(cols), alpha)
        for j, lam, x in _scan_lo(reduced.column_lists(), n):
            if t.is_solution(x):
                return binary_verdict(inst, comp.map_back(x),
                                      algorithm="lo", column=j, scan_lambda=lam,
                                      used_complement=comp.flipped)
    return AttackVerdict(FAILURE, meta={"algorithm": "lo"})


def _attack_targets(inst: SubsetSumInstance):
    """The normalized instance, then its complement as the fallback."""
    first = normalize(inst)
    yield first
    second = Complement(
        instance=SubsetSumInstance(inst.a, sum(inst.a) - first.instance.b),
        flipped=not first.flipped)
    yield second


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
    out: the other n are a basis of the same lattice.
    """
    n, m = sys.n, sys.m
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


def attack_cjloss_system(sys: LdeSystem, N: int = DEFAULT_N,
                         alpha: Fraction = DEFAULT_ALPHA) -> AttackVerdict:
    """CJLOSS column scan on a (possibly multi-row) system, no fallback."""
    n = sys.n
    if 4 * N * N <= n:
        raise InvalidN(f"need N > sqrt(n)/2, got N={N}, n={n}")
    reduced = lll(cjloss_basis(sys, N), alpha)
    for j, x, negated in _scan_pm1(reduced.column_lists(), n):
        if sys.is_solution(x):
            return binary_verdict(sys, x, algorithm="cjloss", column=j, negated=negated)
    return AttackVerdict(FAILURE, meta={"algorithm": "cjloss"})


def attack_cjloss(inst: SubsetSumInstance, N: int = DEFAULT_N,
                  alpha: Fraction = DEFAULT_ALPHA) -> AttackVerdict:
    """CJLOSS attack: shifted lattice scan, complement fallback on a miss."""
    for comp in _attack_targets(inst):
        verdict = attack_cjloss_system(comp.instance.as_system(), N, alpha)
        if verdict.solved:
            return binary_verdict(inst, comp.map_back(verdict.x),
                                  used_complement=comp.flipped, **verdict.meta)
    return AttackVerdict(FAILURE, meta={"algorithm": "cjloss"})


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


def attack_ahl(sys: LdeSystem, N1: int = DEFAULT_N1, N2: int | None = None,
               alpha: Fraction = DEFAULT_ALPHA) -> AttackVerdict:
    """AHL attack: inspect column n-m+1 of the reduced basis.

    A hit has |entry n+1| = N1 with a zero tail; after sign normalization
    its first n entries form an integer solution of A x = b (binary or
    not).  Anything else is a failure.
    """
    n, m = sys.n, sys.m
    if N2 is None:
        N2 = 2 ** (n + m) * N1 * N1 + 1
    if N2 <= 2 ** (n + m) * N1 * N1:
        raise InvalidBigInts(f"need N2 > 2^(n+m)*N1^2 = {2 ** (n + m) * N1 * N1}")
    reduced = lll(ahl_basis(sys, N1, N2), alpha)
    col = reduced.column_lists()[n - m]
    if abs(col[n]) == N1 and all(v == 0 for v in col[n + 1:]):
        if col[n] == -N1:
            col = [-v for v in col]
        x = col[:n]
        return classify_solution(sys, x, algorithm="ahl", N1=N1, N2=N2)
    return AttackVerdict(FAILURE, meta={"algorithm": "ahl", "N1": N1, "N2": N2})
