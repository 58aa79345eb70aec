"""Problem types: binary linear Diophantine systems and subset-sum instances.

The shared text format is: line 1 ``m n``; the next m lines hold the rows of
A as space-separated decimal integers; the final line holds the m entries of
b.  Lines starting with ``#`` are comments and are skipped on parse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ParseError, RankDeficient
from .intmat import mat_vec, rank


@dataclass(frozen=True)
class LdeSystem:
    """A x = b over binary unknowns, A an m x n integer matrix of full row rank.

    Entries are nonnegative (generated systems are strictly positive;
    disaggregated rows may legitimately contain zeros).
    """

    A: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]

    def __post_init__(self):
        m = len(self.A)
        if m < 1:
            raise ValueError("need at least one equation")
        n = len(self.A[0])
        if n < 2:
            raise ValueError("need at least two unknowns")
        if any(len(r) != n for r in self.A):
            raise ValueError("ragged coefficient matrix")
        if len(self.b) != m:
            raise ValueError("right-hand side length != number of rows")
        if m >= n:
            raise ValueError(f"need m < n, got m={m}, n={n}")
        if any(x < 0 for r in self.A for x in r):
            raise ValueError("coefficients must be nonnegative")
        if rank([list(r) for r in self.A]) != m:
            raise RankDeficient("coefficient matrix is not of full row rank")

    @classmethod
    def from_rows(cls, rows, b) -> "LdeSystem":
        return cls(tuple(tuple(int(x) for x in r) for r in rows), tuple(int(x) for x in b))

    @property
    def m(self) -> int:
        return len(self.A)

    @property
    def n(self) -> int:
        return len(self.A[0])

    def residual(self, x) -> list[int]:
        return [lhs - rhs for lhs, rhs in zip(mat_vec([list(r) for r in self.A], list(x)), self.b)]

    def is_solution(self, x) -> bool:
        return len(x) == self.n and all(r == 0 for r in self.residual(x))


@dataclass(frozen=True)
class SubsetSumInstance:
    """a . x = b with binary x and positive coefficients.

    Constructed instances only need to be feasible-shaped (0 < b <= sum(a));
    the hardness assumption max(a) < b <= sum(a)/2 is restored by
    ``normalize`` where an attack requires it.
    """

    a: tuple[int, ...]
    b: int

    def __post_init__(self):
        if len(self.a) < 2:
            raise ValueError("need at least two coefficients")
        if any(x <= 0 for x in self.a):
            raise ValueError("coefficients must be positive")
        if not 0 < self.b < sum(self.a):
            raise ValueError(f"b={self.b} outside (0, sum(a)={sum(self.a)})")

    @classmethod
    def from_coeffs(cls, a, b) -> "SubsetSumInstance":
        return cls(tuple(int(x) for x in a), int(b))

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def b_complement(self) -> int:
        return sum(self.a) - self.b

    def is_solution(self, x) -> bool:
        return len(x) == self.n and sum(ai * xi for ai, xi in zip(self.a, x)) == self.b

    def as_system(self) -> LdeSystem:
        return LdeSystem.from_rows([self.a], [self.b])


@dataclass(frozen=True)
class Complement:
    """The complementary instance together with the variable-flip record."""

    instance: SubsetSumInstance
    flipped: bool
    fixed_zero: tuple[int, ...] = field(default=())

    def map_back(self, y) -> list[int]:
        """Translate a solution of the stored instance to the original unknowns."""
        if not self.flipped:
            return list(y)
        return [1 - v for v in y]


def complement(inst: SubsetSumInstance) -> Complement:
    """Flip x -> 1 - y, replacing b by sum(a) - b.

    Indices whose coefficient exceeds the new right-hand side can only take
    value 0 in the flipped problem and are reported as fixable.
    """
    bt = inst.b_complement
    flipped = SubsetSumInstance(inst.a, bt)
    fixed = tuple(i for i, ai in enumerate(inst.a) if ai > bt)
    return Complement(instance=flipped, flipped=True, fixed_zero=fixed)


def normalize(inst: SubsetSumInstance) -> Complement:
    """Return the instance satisfying b <= sum(a)/2, flipping if needed."""
    if 2 * inst.b <= sum(inst.a):
        return Complement(instance=inst, flipped=False)
    return complement(inst)


def density(inst: SubsetSumInstance) -> float:
    """n / log2(max coefficient); near 1 marks the hardest instances."""
    return inst.n / math.log2(max(inst.a))


def parse_system(text: str) -> LdeSystem:
    """Parse the shared text format (see module docstring)."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ParseError("empty file")
    try:
        header = lines[0].split()
        m, n = int(header[0]), int(header[1])
        if len(header) != 2:
            raise ParseError("header must be 'm n'")
        if len(lines) != m + 2:
            raise ParseError(f"expected {m + 2} data lines, found {len(lines)}")
        rows = [[int(tok) for tok in lines[1 + i].split()] for i in range(m)]
        b = [int(tok) for tok in lines[m + 1].split()]
    except (ValueError, IndexError) as exc:
        raise ParseError(f"malformed system file: {exc}") from exc
    if any(len(r) != n for r in rows) or len(b) != m:
        raise ParseError("row or right-hand-side length disagrees with header")
    try:
        return LdeSystem.from_rows(rows, b)
    except (ValueError, RankDeficient) as exc:
        raise ParseError(f"invalid system: {exc}") from exc


def format_system(sys: LdeSystem, header_comment: str | None = None) -> str:
    """Serialize to the shared text format (UTF-8, LF, no trailing blanks)."""
    out = []
    if header_comment:
        for ln in header_comment.splitlines():
            out.append(f"# {ln}".rstrip())
    out.append(f"{sys.m} {sys.n}")
    for row in sys.A:
        out.append(" ".join(str(x) for x in row))
    out.append(" ".join(str(x) for x in sys.b))
    return "\n".join(out) + "\n"


def load_system(path) -> LdeSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def save_system(sys: LdeSystem, path, header_comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_system(sys, header_comment))


def as_instance(sys: LdeSystem) -> SubsetSumInstance:
    """View a single-equation system as a subset-sum instance."""
    if sys.m != 1:
        raise ValueError("only m = 1 systems are subset-sum instances")
    return SubsetSumInstance.from_coeffs(sys.A[0], sys.b[0])
