"""Modular disaggregation: the (t, M) transform, jump points, and cut-offs.

For 0 < t < M the transform maps a . x = b to the extra equation
v . x + k = w with v_i = floor(a_i t/M), w = floor(b t/M), and a slack k
whose range [0, u_k] follows from binarity of x alone.  Everything here is
a function of the single rational r = t/M; the transform coefficients only
change when r crosses a jump point j/a_i, j/b, or j/b~ (b~ = sum(a) - b),
which is what makes exhaustive jump-point reasoning possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParams, InvalidRow, NotASolution, SizeLimit
from .problems import LdeSystem, SubsetSumInstance

JUMP_CAP = 10**6


def row_coeffs(problem) -> tuple[list[int], int]:
    """(a, b) of a SubsetSumInstance or a raw (a, b) pair that can be disaggregated.

    Raises ValueError when a coefficient or b is negative, or b exceeds sum(a).
    """
    if isinstance(problem, SubsetSumInstance):
        return list(problem.a), problem.b
    a, b = problem
    a = [int(x) for x in a]
    b = int(b)
    if any(x < 0 for x in a) or b < 0:
        raise ValueError("coefficients must be nonnegative")
    if b > sum(a):
        raise ValueError("right-hand side exceeds the coefficient sum")
    return a, b


@dataclass(frozen=True)
class DisaggParams:
    """The two modular parameters; only their ratio r = t/M matters."""

    t: int
    M: int

    def __post_init__(self):
        if not 0 < self.t < self.M:
            raise InvalidParams(f"need 0 < t < M, got t={self.t}, M={self.M}")

    @property
    def r(self) -> Fraction:
        return Fraction(self.t, self.M)


@dataclass(frozen=True)
class ModularImage:
    """Residues, floor multipliers, and the slack bound of one transform."""

    c: tuple[int, ...]
    d: int
    v: tuple[int, ...]
    w: int
    u_k: int
    n_k: int


def modular_transform(a, b, params: DisaggParams) -> ModularImage:
    """Residues c, d and floors v, w of (a, b) under t/M, with the k bound."""
    a, b = row_coeffs((a, b))
    t, M = params.t, params.M
    c = tuple(t * ai % M for ai in a)
    v = tuple(t * ai // M for ai in a)
    d = t * b % M
    w = t * b // M
    u_k = uk_bound((a, b), params.r)
    return ModularImage(c=c, d=d, v=v, w=w, u_k=u_k, n_k=u_k.bit_length())


def g_value(problem, r: Fraction) -> Fraction:
    """b~ r + floor(b r) - sum floor(a_i r); its floor is the k bound."""
    a, b = row_coeffs(problem)
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError(f"need 0 < r < 1, got {r}")
    bt = sum(a) - b
    return bt * r + (b * r.numerator // r.denominator) - sum(
        ai * r.numerator // r.denominator for ai in a)


def uk_bound(problem, r: Fraction) -> int:
    """floor(b~ r) + floor(b r) - sum floor(a_i r); nonnegative always."""
    a, b = row_coeffs(problem)
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError(f"need 0 < r < 1, got {r}")
    num, den = r.numerator, r.denominator
    bt = sum(a) - b
    return bt * num // den + b * num // den - sum(ai * num // den for ai in a)


def is_ideal(problem, params: DisaggParams) -> bool:
    """True when the transform adds an equation with no new unknowns (k = 0).

    The three equivalent characterizations (residue-sum inequality, g < 1,
    u_k = 0) are all evaluated and must agree.
    """
    a, b = row_coeffs(problem)
    img = modular_transform(a, b, params)
    cond_residues = sum(img.c) < params.M + img.d
    cond_g = g_value((a, b), params.r) < 1
    cond_uk = img.u_k == 0
    if not cond_residues == cond_g == cond_uk:
        raise AssertionError(
            f"ideal-point characterizations disagree at t/M={params.t}/{params.M}: "
            f"{cond_residues}, {cond_g}, {cond_uk}")
    return cond_uk


@dataclass(frozen=True)
class DisaggregatedSystem:
    """One base system plus one transform-derived row over (x, k-bits)."""

    base: LdeSystem
    row_index: int
    params: DisaggParams
    image: ModularImage

    @property
    def k_count(self) -> int:
        return self.image.n_k

    @property
    def extra_row(self) -> tuple[int, ...]:
        return self.image.v + tuple(1 << i for i in range(self.k_count))

    @property
    def extra_rhs(self) -> int:
        return self.image.w

    @property
    def system(self) -> LdeSystem:
        """The augmented system over n + n_k binary unknowns."""
        nk = self.k_count
        rows = [list(r) + [0] * nk for r in self.base.A]
        rows.append(list(self.extra_row))
        return LdeSystem.from_rows(rows, list(self.base.b) + [self.extra_rhs])


def build_disaggregated(sys: LdeSystem, row_index: int,
                        params: DisaggParams) -> DisaggregatedSystem:
    """Disaggregate one row of the system: append v x + k-bits = w.

    Any binary solution of the base extends to a binary solution of the
    augmented system and vice versa (truncation).  With u_k = 0 no k
    columns appear at all.
    """
    if not 0 <= row_index < sys.m:
        raise InvalidRow(f"row {row_index} outside 0..{sys.m - 1}")
    a = list(sys.A[row_index])
    b = sys.b[row_index]
    img = modular_transform(a, b, params)
    return DisaggregatedSystem(base=sys, row_index=row_index, params=params, image=img)


@dataclass(frozen=True)
class JumpPoint:
    """A rational in (0, 1) where some transform coefficient jumps."""

    value: Fraction
    sources: frozenset[str]


def _jump_denominators(a: list[int], b: int) -> list[tuple[int, str]]:
    dens = [(ai, f"a{i + 1}") for i, ai in enumerate(a) if ai > 1]
    if b > 1:
        dens.append((b, "b"))
    bt = sum(a) - b
    if bt > 1:
        dens.append((bt, "b~"))
    return dens


def enumerate_jump_points(problem, cap: int = JUMP_CAP) -> list[JumpPoint]:
    """All jump points, ascending, exact-rational deduplicated, tags merged."""
    a, b = row_coeffs(problem)
    dens = _jump_denominators(a, b)
    raw_count = sum(den - 1 for den, _ in dens)
    if raw_count > cap:
        raise SizeLimit(f"{raw_count} candidate jump points exceed the cap {cap}")
    merged: dict[Fraction, set[str]] = {}
    for den, tag in dens:
        for j in range(1, den):
            merged.setdefault(Fraction(j, den), set()).add(tag)
    return [JumpPoint(value=v, sources=frozenset(tags))
            for v, tags in sorted(merged.items())]


def iter_jump_points(problem):
    """Lazily yield jump points in ascending order (no enumeration cap).

    Streams a heap-merge of the per-denominator arithmetic families, so the
    first few points of an astronomically dense instance cost nothing.
    """
    import heapq

    a, b = row_coeffs(problem)
    dens = _jump_denominators(a, b)
    heap = [(Fraction(1, den), den, tag) for den, tag in dens]
    heapq.heapify(heap)
    while heap:
        value = heap[0][0]
        tags = set()
        while heap and heap[0][0] == value:
            _, den, tag = heapq.heappop(heap)
            tags.add(tag)
            num = value.numerator * den // value.denominator + 1
            if num <= den - 1:
                heapq.heappush(heap, (Fraction(num, den), den, tag))
        yield JumpPoint(value=value, sources=frozenset(tags))


def cuts_off(problem, r: Fraction, x_tilde) -> bool:
    """Does the transform at r exclude the integer solution x_tilde?

    True exactly when the implied slack w - v . x_tilde falls outside
    [0, u_k]; binary solutions are never cut.
    """
    a, b = row_coeffs(problem)
    x = [int(v) for v in x_tilde]
    if sum(ai * xi for ai, xi in zip(a, x)) != b or len(x) != len(a):
        raise NotASolution("x_tilde does not solve a . x = b")
    r = Fraction(r)
    num, den = r.numerator, r.denominator
    v = [ai * num // den for ai in a]
    w = b * num // den
    k = w - sum(vi * xi for vi, xi in zip(v, x))
    return k < 0 or k > uk_bound((a, b), r)
