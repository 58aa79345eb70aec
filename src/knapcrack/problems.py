"""The problem type: a binary linear Diophantine system A x = b.

A subset-sum instance a . x = b is the m = 1 case; ``normalize`` gives it
the complement semantics the attacks assume.

The shared text format is: line 1 ``m n``; the next m lines hold the rows of
A as space-separated decimal integers; the final line holds the m entries of
b.  Lines starting with ``#`` are comments and are skipped on parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import InvalidInput, ParseError, RankDeficient
from .intmat import rank


def as_ints(values) -> list[int]:
    """values as a list of ints, for caller input entering the exact core.

    Raises InvalidInput (a ValueError) for a value that int() would change,
    such as 3.9 or Fraction(7, 2), or cannot convert, such as NaN or inf;
    ints, bools and numpy integers pass.
    """
    values = list(values)
    try:
        ints = list(map(int, values))
    except (ValueError, OverflowError) as exc:
        raise InvalidInput(f"not all integers: {values}") from exc
    if ints != values:
        raise InvalidInput(f"not all integers: {values}")
    return ints


@dataclass(frozen=True)
class LdeSystem:
    """A x = b over binary unknowns, A an m x n integer matrix of full row rank.

    Entries are nonnegative (generated systems are strictly positive;
    disaggregated rows may legitimately contain zeros).  The constructor reads
    A and b as tuples of ints (``as_ints``), so a value that int() would
    change raises InvalidInput here instead of reaching the LLL kernel.
    """

    A: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(tuple(as_ints(r)) for r in self.A))
        object.__setattr__(self, "b", tuple(as_ints(self.b)))
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
        if min(map(min, self.A)) < 0:
            raise ValueError("coefficients must be nonnegative")
        if rank(self.A) != m:
            raise RankDeficient("coefficient matrix is not of full row rank")

    @classmethod
    def from_rows(cls, rows, b) -> "LdeSystem":
        """The system of rows of A and b, each entry an integer (``as_ints``)."""
        return cls(rows, b)

    @property
    def m(self) -> int:
        return len(self.A)

    @property
    def n(self) -> int:
        return len(self.A[0])

    def is_solution(self, x) -> bool:
        """A x = b, x a sequence of n ints, substituted row by row."""
        return len(x) == self.n and [sum(map(mul, row, x)) for row in self.A] == [*self.b]


def is_subset_sum(sys: LdeSystem) -> bool:
    """One equation a . x = b with every a_i > 0 and 0 < b < sum(a).

    Only these are complement-normalized; any other system, a row with a
    zero coefficient or with b = sum(a) included, is attacked as it stands.
    """
    return sys.m == 1 and min(sys.A[0]) > 0 and 0 < sys.b[0] < sum(sys.A[0])


def complement(sys: LdeSystem) -> LdeSystem:
    """The system in y = 1 - x: each b becomes its row sum minus b."""
    return LdeSystem.from_rows(sys.A, [sum(row) - bi for row, bi in zip(sys.A, sys.b)])


def normalize(sys: LdeSystem) -> tuple[LdeSystem, bool]:
    """(system, flipped): a subset-sum instance with b > sum(a)/2 is complemented."""
    if is_subset_sum(sys) and 2 * sys.b[0] > sum(sys.A[0]):
        return complement(sys), True
    return sys, False


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


def format_system(sys: LdeSystem) -> str:
    """Serialize to the shared text format (UTF-8, LF, no trailing blanks)."""
    out = [f"{sys.m} {sys.n}"]
    for row in sys.A:
        out.append(" ".join(str(x) for x in row))
    out.append(" ".join(str(x) for x in sys.b))
    return "\n".join(out) + "\n"


def load_system(path) -> LdeSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def save_system(sys: LdeSystem, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_system(sys))
