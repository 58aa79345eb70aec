"""Instance generation, attack orchestration, the DAG search loop, benchmarks.

The search loop mirrors the experimental procedure: run the configured
lattice attack; on a non-binary outcome walk t = 1, 2, ... with a fixed
modulus M, disaggregate the configured row, re-attack the augmented
system, and accept as soon as the first n coordinates are binary and solve
the original system.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import formulations as fm
from .disagg import DisaggParams, build_disaggregated
from .errors import (DependentColumns, GenerationBudgetExceeded, InvalidRow, KnapcrackError,
                     RankDeficient, SearchExhausted)
from .lattice import DEFAULT_ALPHA
from .problems import LdeSystem, SubsetSumInstance, as_instance, normalize
from .reduction import reduce_half, reduce_solution

ALGORITHMS = ("reduce", "reduce_half", "lo", "cjloss", "ahl")
GENERATION_BUDGET = 10_000


def default_modulus(n: int) -> int:
    """The fixed M used in the experiments, by problem size."""
    if n < 20:
        return 10**3
    if n < 36:
        return 10**4
    return 10**5


@dataclass(frozen=True)
class SearchConfig:
    """Attack selection and parameters for one run."""

    algo: str = "reduce_half"
    use_dag: bool = False
    M: int = 10**4
    t_max: int = 200
    alpha: Fraction = DEFAULT_ALPHA
    N: int = fm.DEFAULT_N
    seed: int = 0
    row_index: int = 0

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ValueError(f"algo must be one of {ALGORITHMS}")
        if self.use_dag and not 0 < self.t_max < self.M:
            raise ValueError("DAG search needs 0 < t_max < M")


@dataclass(frozen=True)
class AttackOutcome:
    """Verdict plus search telemetry; t_found only on a DAG rescue."""

    verdict: fm.AttackVerdict
    dag_used: bool = False
    t_found: int | None = None
    wall_time: float = 0.0

    def __post_init__(self):
        if self.t_found is not None and not (self.verdict.solved and self.dag_used):
            raise ValueError("t_found requires a DAG-found binary solution")

    @property
    def solved(self) -> bool:
        return self.verdict.solved

    def to_dict(self) -> dict:
        return {"verdict": self.verdict.to_dict(), "dag_used": self.dag_used,
                "t_found": self.t_found, "wall_time": self.wall_time}


@dataclass(frozen=True)
class GeneratedInstance:
    instance: SubsetSumInstance
    planted: tuple[int, ...]
    density: float
    seed: int


@dataclass(frozen=True)
class GeneratedSystem:
    system: LdeSystem
    planted: tuple[int, ...]
    densities: tuple[float, ...]
    seed: int


def generate_instance(n: int, seed: int) -> GeneratedInstance:
    """Seeded density-one instance with a planted cardinality-n/2 solution.

    Coefficients are uniform on [1, 2^n]; draws are rejected until the
    density lands in (0.99, 1.01) and b = a . x satisfies max(a) < b
    <= sum(a)/2.  The genuinely targeted band (0.99, 1.00) is unreachable
    whenever max(a) = 2^n exactly, so the accepted band is symmetric and
    the realized density is recorded.
    """
    if n < 4 or n % 2:
        raise ValueError(f"n must be even and >= 4, got {n}")
    rng = random.Random(seed)
    for _ in range(GENERATION_BUDGET):
        a = [rng.getrandbits(n) + 1 for _ in range(n)]
        support = rng.sample(range(n), n // 2)
        x = [0] * n
        for i in support:
            x[i] = 1
        b = sum(ai for ai, xi in zip(a, x) if xi)
        d = n / math.log2(max(a))
        if not 0.99 < d < 1.01:
            continue
        if not (b > max(a) and 2 * b <= sum(a)):
            continue
        return GeneratedInstance(SubsetSumInstance.from_coeffs(a, b),
                                 tuple(x), d, seed)
    raise GenerationBudgetExceeded(f"no admissible instance after {GENERATION_BUDGET} draws")


def generate_system(m: int, n: int, seed: int) -> GeneratedSystem:
    """Seeded m-row system sharing one planted cardinality-n/2 solution.

    Every row independently satisfies the same designation rules as
    generate_instance, against the shared planted vector.
    """
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    if n < 4 or n % 2:
        raise ValueError(f"n must be even and >= 4, got {n}")
    rng = random.Random(seed)
    support = rng.sample(range(n), n // 2)
    x = [0] * n
    for i in support:
        x[i] = 1
    rows: list[list[int]] = []
    dens: list[float] = []
    budget = GENERATION_BUDGET
    while len(rows) < m:
        if budget <= 0:
            raise GenerationBudgetExceeded(f"no admissible row after {GENERATION_BUDGET} draws")
        budget -= 1
        row = [rng.getrandbits(n) + 1 for _ in range(n)]
        bi = sum(ai for ai, xi in zip(row, x) if xi)
        d = n / math.log2(max(row))
        if not 0.99 < d < 1.01:
            continue
        if not (bi > max(row) and 2 * bi <= sum(row)):
            continue
        rows.append(row)
        dens.append(d)
    system = LdeSystem.from_rows(rows, [sum(ai for ai, xi in zip(r, x) if xi) for r in rows])
    return GeneratedSystem(system, tuple(x), tuple(dens), seed)


def run_algorithm(sys: LdeSystem, config: SearchConfig) -> fm.AttackVerdict:
    """Dispatch one lattice attack on a system (no normalization here)."""
    algo = config.algo
    if algo == "lo":
        if sys.m != 1:
            raise ValueError("lo handles single equations only")
        return fm.attack_lo(as_instance(sys), config.alpha)
    if algo == "cjloss":
        if sys.m == 1:
            try:
                inst = as_instance(sys)
            except ValueError:
                # Zero coefficients etc.: no complement semantics, scan as is.
                return fm.attack_cjloss_system(sys, config.N, config.alpha)
            return fm.attack_cjloss(inst, config.N, config.alpha)
        return fm.attack_cjloss_system(sys, config.N, config.alpha)
    if algo == "ahl":
        return fm.attack_ahl(sys, alpha=config.alpha)
    return attack_decomposed(sys, fm.decompose(sys, config.N, config.alpha), algo)


def attack_decomposed(sys: LdeSystem, kd: fm.KernelDecomposition,
                      algo: str) -> fm.AttackVerdict:
    """The reduce / reduce_half attack on a system already decomposed into kd."""
    xb = fm.special_solution(kd, sys.b)
    if xb is None:
        return fm.AttackVerdict(fm.NO_INTEGER_SOLUTION, meta={"algorithm": algo})
    shorten = reduce_solution if algo == "reduce" else reduce_half
    sol = shorten(xb, kd)
    return fm.classify_solution(sys, sol, algorithm=algo)


def _normalized_work(problem) -> tuple[LdeSystem, bool]:
    """Complement-normalize single-equation problems; returns (system, flipped)."""
    if isinstance(problem, SubsetSumInstance):
        comp = normalize(problem)
        return comp.instance.as_system(), comp.flipped
    sys = problem
    if sys.m == 1:
        try:
            comp = normalize(as_instance(sys))
        except ValueError:
            return sys, False  # not instance-shaped (zero coefficients etc.)
        return comp.instance.as_system(), comp.flipped
    return sys, False


def _map_back(problem, verdict: fm.AttackVerdict, flipped: bool) -> fm.AttackVerdict:
    """Re-express a verdict about the normalized problem over the original."""
    if verdict.x is None:
        return verdict
    x = [1 - v for v in verdict.x] if flipped else list(verdict.x)
    return fm.classify_solution(problem, x, **verdict.meta)


def attack(problem, config: SearchConfig) -> AttackOutcome:
    """One plain lattice attack with complement normalization for m = 1."""
    t0 = time.perf_counter()
    work, flipped = _normalized_work(problem)
    verdict = run_algorithm(work, config)
    verdict = _map_back(problem, verdict, flipped)
    return AttackOutcome(verdict=verdict, wall_time=time.perf_counter() - t0)


def attack_with_dag(problem, config: SearchConfig) -> AttackOutcome:
    """Plain attack, then the t-search over disaggregations on failure.

    Each t in 1..t_max (fixed M) augments the configured row; the augmented
    attack's vector is accepted when its first n coordinates are binary and
    solve the original system (truncation rule).  Raises SearchExhausted,
    carrying the best short-non-binary witness seen, when no t works.
    Raises ValueError for lo, and InvalidRow for a row_index outside the
    system, before any attack: every augmented system has two or more
    equations, and each augments the configured row.
    """
    if config.algo == "lo":
        raise ValueError("lo handles single equations only; the DAG search "
                         "augments every system to two or more")
    t0 = time.perf_counter()
    work, flipped = _normalized_work(problem)
    if not 0 <= config.row_index < work.m:
        raise InvalidRow(f"row {config.row_index} outside 0..{work.m - 1}")
    n = work.n
    base_verdict = run_algorithm(work, config)
    if base_verdict.solved:
        verdict = _map_back(problem, base_verdict, flipped)
        return AttackOutcome(verdict=verdict, wall_time=time.perf_counter() - t0)
    best: fm.AttackVerdict | None = None

    def remember(witness: fm.AttackVerdict) -> None:
        nonlocal best
        if witness.status != fm.SHORT_NONBINARY:
            return
        if best is None or (sum(v * v for v in witness.x)
                            < sum(v * v for v in best.x)):
            best = witness

    remember(_map_back(problem, base_verdict, flipped)
             if base_verdict.x is not None else base_verdict)
    for t in range(1, config.t_max + 1):
        built = build_disaggregated(work, config.row_index, DisaggParams(t, config.M))
        try:
            aug = built.system
        except (RankDeficient, ValueError):
            # The derived row depends on the others, or an ideal t (no k
            # bits) left as many equations as unknowns: nothing to search.
            continue
        try:
            verdict = run_algorithm(aug, config)
        except (RankDeficient, DependentColumns):
            continue
        if verdict.x is None:
            continue
        head = list(verdict.x[:n])
        # Any solution of the augmented system solves the base on its x prefix.
        if all(v in (0, 1) for v in head):
            final = fm.classify_solution(
                problem,
                [1 - v for v in head] if flipped else head,
                **{**verdict.meta, "t": t, "M": config.M})
            return AttackOutcome(verdict=final, dag_used=True, t_found=t,
                                 wall_time=time.perf_counter() - t0)
        remember(_map_back(problem,
                           fm.AttackVerdict(fm.SHORT_NONBINARY, tuple(head),
                                            dict(verdict.meta)),
                           flipped))
    raise SearchExhausted(
        f"no valid t in 1..{config.t_max} with M={config.M}", best=best)


@dataclass(frozen=True)
class BenchCell:
    """One grid cell: dimensions, algorithm, DAG settings, replication."""

    m: int
    n: int
    algo: str
    dag: bool
    M: int
    t_max: int
    count: int
    seed: int


@dataclass
class BenchRow:
    cell: BenchCell
    successes: int
    valid_ts: list[int] = field(default_factory=list)
    total_ms: float = 0.0
    errors: list[tuple[int, str]] = field(default_factory=list)  # (seed, message)

    def csv_record(self, timing: bool = True) -> list[str]:
        c = self.cell
        ratio = self.successes / c.count if c.count else 0.0
        avg_t = (f"{sum(self.valid_ts) / len(self.valid_ts):.3f}"
                 if self.valid_ts else "")
        avg_ms = f"{self.total_ms / c.count:.3f}" if (timing and c.count) else "0.000"
        return [str(c.m), str(c.n), c.algo, str(int(c.dag)), str(c.M),
                str(c.t_max), str(c.count), str(self.successes),
                f"{ratio:.4f}", avg_t, avg_ms, str(c.seed)]


BENCH_COLUMNS = ["m", "n", "algo", "dag", "M", "t_max", "count", "successes",
                 "success_ratio", "avg_valid_t", "avg_ms", "seed0"]


def _bench_one(cell: BenchCell, index: int) -> tuple[bool, int | None, float, str | None]:
    """(solved, t_found, ms, error) of one job; a failing job is unsolved."""
    seed = cell.seed + index
    if cell.m == 1:
        problem = generate_instance(cell.n, seed).instance
    else:
        problem = generate_system(cell.m, cell.n, seed).system
    config = SearchConfig(algo=cell.algo, use_dag=cell.dag, M=cell.M,
                          t_max=cell.t_max, seed=seed)
    t0 = time.perf_counter()
    try:
        if cell.dag:
            outcome = attack_with_dag(problem, config)
        else:
            outcome = attack(problem, config)
    except SearchExhausted:
        return False, None, (time.perf_counter() - t0) * 1000.0, None
    except KnapcrackError as exc:
        return (False, None, (time.perf_counter() - t0) * 1000.0,
                f"{type(exc).__name__}: {exc}")
    return outcome.solved, outcome.t_found, outcome.wall_time * 1000.0, None


def resolve_workers() -> int:
    """Worker count from KNAPCRACK_THREADS (0 = all cores, unset = serial)."""
    raw = os.environ.get("KNAPCRACK_THREADS", "1")
    try:
        val = int(raw)
    except ValueError:
        return 1
    if val == 0:
        return os.cpu_count() or 1
    return max(1, val)


def bench(cells: list[BenchCell]) -> list[BenchRow]:
    """Run every cell; deterministic apart from the timing column.

    A job that raises a KnapcrackError counts as unsolved and is listed in
    its row's errors, so one failure does not discard the grid.
    """
    workers = resolve_workers()
    jobs = [(ci, i) for ci, cell in enumerate(cells) for i in range(cell.count)]
    results: dict[tuple[int, int], tuple[bool, int | None, float, str | None]] = {}
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = {pool.submit(_bench_one, cells[ci], i): (ci, i) for ci, i in jobs}
            for fut, key in futs.items():
                results[key] = fut.result()
    else:
        for ci, i in jobs:
            results[ci, i] = _bench_one(cells[ci], i)
    rows = []
    for ci, cell in enumerate(cells):
        row = BenchRow(cell=cell, successes=0)
        for i in range(cell.count):
            solved, t_found, ms, error = results[ci, i]
            row.successes += int(solved)
            if t_found is not None:
                row.valid_ts.append(t_found)
            row.total_ms += ms
            if error is not None:
                row.errors.append((cell.seed + i, error))
        rows.append(row)
    return rows


def bench_csv(rows: list[BenchRow], timing: bool = True) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    for row in rows:
        writer.writerow(row.csv_record(timing=timing))
    return buf.getvalue()
