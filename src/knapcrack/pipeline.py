"""Instance generation, attack orchestration, the DAG search loop, benchmarks.

The search loop mirrors the experimental procedure: run the configured
lattice attack; on a non-binary outcome walk t = 1, 2, ... with a fixed
modulus M, disaggregate the configured row, re-attack the augmented
system, and accept as soon as the first n coordinates are binary and solve
the original system.  The t's after the first run in two lanes when a second
CPU is usable: this process takes every other t and one child process, its
lane (``lanes``), the rest.  They are judged in t order, so the outcome is
the one-lane outcome.  The lane is forked by the first search that needs it
and serves every later search of the process that forked it; it runs the
code and module state it had when it was forked, and dies with that process.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
import sys
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import closing, nullcontext
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial

from . import formulations as fm
from .disagg import DisaggParams, build_disaggregated, row_coeffs
from .errors import (GenerationBudgetExceeded, InvalidInput, InvalidRow, KnapcrackError,
                     RankDeficient, SearchExhausted)
from .lattice import DEFAULT_ALPHA
from .problems import LdeSystem, normalize
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
            raise InvalidInput(f"algo must be one of {ALGORITHMS}")
        if self.use_dag and self.algo == "lo":
            raise InvalidInput("lo handles single equations only; the DAG search "
                             "augments every system to two or more")
        if self.use_dag and not 0 < self.t_max < self.M:
            raise InvalidInput(f"DAG search needs 0 < t_max < M, "
                             f"got t_max={self.t_max}, M={self.M}")


@dataclass(frozen=True)
class AttackOutcome:
    """The verdict of one attack run.

    A DAG rescue records its t and M in the verdict's meta; t_found reads
    that t, and is None for every other run.
    """

    verdict: fm.AttackVerdict

    @property
    def solved(self) -> bool:
        return self.verdict.solved

    @property
    def t_found(self) -> int | None:
        return self.verdict.meta.get("t")


@dataclass(frozen=True)
class GeneratedInstance:
    instance: LdeSystem  # m = 1
    planted: tuple[int, ...]
    density: float
    seed: int


@dataclass(frozen=True)
class GeneratedSystem:
    system: LdeSystem
    planted: tuple[int, ...]
    densities: tuple[float, ...]
    seed: int


def check_shape(m: int, n: int) -> None:
    """The generators' shapes: n even and >= 4, 1 <= m < n; InvalidInput otherwise."""
    if n < 4 or n % 2:
        raise InvalidInput(f"n must be even and >= 4, got {n}")
    if not 1 <= m < n:
        raise InvalidInput(f"need 1 <= m < n, got m={m}, n={n}")


def _planted(rng: random.Random, n: int) -> list[int]:
    """A 0/1 vector with n/2 ones on a uniform support."""
    support = set(rng.sample(range(n), n // 2))
    return [int(i in support) for i in range(n)]


def _admissible(row: list[int], x: list[int]) -> tuple[int, float] | None:
    """(b, density) of a drawn row against the planted x, or None to redraw.

    A row is admissible when its density n / log2(max(row)) lies in (0.99,
    1.01) and b = row . x satisfies max(row) < b <= sum(row)/2.  A row of
    ones has no finite density and is never admissible.
    """
    if max(row) == 1:
        return None
    b = sum(ai for ai, xi in zip(row, x) if xi)
    d = len(row) / math.log2(max(row))
    return (b, d) if 0.99 < d < 1.01 and max(row) < b and 2 * b <= sum(row) else None


def generate_instance(n: int, seed: int) -> GeneratedInstance:
    """Seeded density-one instance with a planted cardinality-n/2 solution.

    Coefficients are uniform on [1, 2^n]; draws are rejected until the row
    is ``_admissible``.  The genuinely targeted band (0.99, 1.00) is
    unreachable whenever max(a) = 2^n exactly, so the accepted band is
    symmetric and the realized density is recorded.
    """
    check_shape(1, n)
    rng = random.Random(seed)
    for _ in range(GENERATION_BUDGET):
        a = [rng.getrandbits(n) + 1 for _ in range(n)]
        x = _planted(rng, n)
        found = _admissible(a, x)
        if found is not None:
            b, d = found
            return GeneratedInstance(LdeSystem.from_rows([a], [b]), tuple(x), d, seed)
    raise GenerationBudgetExceeded(f"no admissible instance after {GENERATION_BUDGET} draws")


def generate_system(m: int, n: int, seed: int) -> GeneratedSystem:
    """Seeded m-row system sharing one planted cardinality-n/2 solution.

    Every row is drawn as in generate_instance and must be ``_admissible``
    against the shared planted vector.
    """
    check_shape(m, n)
    rng = random.Random(seed)
    x = _planted(rng, n)
    rows, found = [], []
    for _ in range(GENERATION_BUDGET):
        row = [rng.getrandbits(n) + 1 for _ in range(n)]
        admissible = _admissible(row, x)
        if admissible is None:
            continue
        rows.append(row)
        found.append(admissible)
        if len(rows) == m:
            b, dens = zip(*found)
            return GeneratedSystem(LdeSystem.from_rows(rows, b), tuple(x), dens, seed)
    raise GenerationBudgetExceeded(f"no admissible row after {GENERATION_BUDGET} draws")


def run_algorithm(sys: LdeSystem, config: SearchConfig) -> fm.AttackVerdict:
    """Dispatch one lattice attack on a system (no normalization here)."""
    algo = config.algo
    if algo == "lo":
        return fm.attack_lo(sys, config.alpha)
    if algo == "cjloss":
        return fm.attack_cjloss(sys, config.N, config.alpha)
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


def map_back(problem: LdeSystem, verdict: fm.AttackVerdict, flipped: bool) -> fm.AttackVerdict:
    """Re-express a verdict about the normalized, maybe augmented, problem over the original.

    Keeps x's first ``problem.n`` entries (the truncation rule), undoes the
    complement when ``flipped`` and classifies the result.  LO's
    ``used_complement`` becomes the net flip: its own complement XOR ``flipped``.
    """
    if verdict.x is None:
        return verdict
    head = verdict.x[:problem.n]
    x = [1 - v for v in head] if flipped else head
    meta = verdict.meta
    if "used_complement" in meta:
        meta = {**meta, "used_complement": meta["used_complement"] != flipped}
    return fm.classify_solution(problem, x, **meta)


def attack(problem: LdeSystem, config: SearchConfig) -> AttackOutcome:
    """One plain lattice attack with complement normalization for m = 1.

    With ``config.use_dag`` set this is ``attack_with_dag``.
    """
    if config.use_dag:
        return attack_with_dag(problem, config)
    work, flipped = normalize(problem)
    return AttackOutcome(map_back(problem, run_algorithm(work, config), flipped))


def augment(system: LdeSystem, steps: list[tuple[int, DisaggParams]]
            ) -> tuple[LdeSystem | None, str | None]:
    """(system, None) after a scenario's chained disaggregations, or (None, reason).

    A scenario is skipped when an ideal t (no k bits) leaves as many
    equations as unknowns, or when a step names a derived row that was
    dropped because it depends on the rows before it.
    """
    aug = system
    where = list(range(system.m))  # where[r]: row r's index in aug, None once dropped
    for row, params in steps:
        if where[row] is None:
            return None, f"row {row} was dropped: it depends on the rows before it"
        built = build_disaggregated(aug, where[row], params)
        if aug.m + 1 >= aug.n + built.k_count:
            return None, "an ideal t leaves a square system"
        try:
            aug = built.system
        except RankDeficient:
            # The derived row is a multiple of an existing one; the
            # constraint set is unchanged, so keep the system as is.
            where.append(None)
            continue
        where.append(aug.m - 1)
    return aug, None


def attack_with_dag(problem: LdeSystem, config: SearchConfig) -> AttackOutcome:
    """Plain attack, then the t-search over disaggregations on failure.

    Each t in 1..t_max (fixed M) augments the configured row; the augmented
    attack's vector is accepted when its first n coordinates are binary and
    solve the original system (truncation rule).  A t whose augmentation is
    skipped, or whose derived row is dropped as dependent, is not attacked.
    The t's are judged in order, whichever lane ran them (``_t_records``).
    Raises SearchExhausted, carrying the shortest short-non-binary witness
    seen, when no t works.
    Raises before any attack: InvalidInput for settings SearchConfig refuses
    with use_dag set (lo; t_max outside 0 < t_max < M), checked even when
    config.use_dag is off, InvalidRow for a row_index outside the system,
    and InvalidInput for a row the transform cannot take (``row_coeffs``).
    """
    if not config.use_dag:
        config = replace(config, use_dag=True)
    work, flipped = normalize(problem)
    if not 0 <= config.row_index < work.m:
        raise InvalidRow(f"row {config.row_index} outside 0..{work.m - 1}")
    row_coeffs((work.A[config.row_index], work.b[config.row_index]))
    base = map_back(problem, run_algorithm(work, config), flipped)
    if base.solved:
        return AttackOutcome(base)
    best = base if base.status == fm.SHORT_NONBINARY else None
    step = partial(_t_step, problem, work, flipped, config)
    with closing(_t_records(step, config.t_max)) as records:
        for t, verdict in records:
            if verdict is None or verdict.x is None:
                continue
            if verdict.solved:
                return AttackOutcome(replace(verdict, meta={**verdict.meta, "t": t, "M": config.M}))
            if best is None or sum(v * v for v in verdict.x) < sum(v * v for v in best.x):
                best = verdict
    raise SearchExhausted(
        f"no valid t in 1..{config.t_max} with M={config.M}", best=best)


def _t_step(problem: LdeSystem, work: LdeSystem, flipped: bool, config: SearchConfig,
            t: int) -> fm.AttackVerdict | None:
    """The attack at t, mapped back to problem; None when t is not attacked."""
    aug, _ = augment(work, [(config.row_index, DisaggParams(t, config.M))])
    if aug is None or aug.m == work.m:
        return None  # skipped, or the derived row was dropped: nothing new to attack
    return map_back(problem, run_algorithm(aug, config), flipped)


def _t_records(step: Callable[[int], fm.AttackVerdict | None], t_max: int
               ) -> Iterator[tuple[int, fm.AttackVerdict | None]]:
    """(t, step(t)) for t = 1..t_max in t order, with t >= 2 run in two lanes.

    t = 1 runs here first, so a search it ends uses no lane.  The t's after
    it, when there are two or more and ``search_lanes()`` is 2, run here and
    in the child lane through ``lanes.run_in_lanes``.  That module is
    imported by the first search that needs it, so a process that never runs
    one pays nothing for it.
    """
    yield 1, step(1)
    rest = range(2, t_max + 1)
    if len(rest) < 2 or search_lanes() == 1:
        yield from ((t, step(t)) for t in rest)
        return
    from .lanes import run_in_lanes
    yield from run_in_lanes(step, rest)


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
    solved, t_found, error = False, None, None
    t0 = time.perf_counter()
    try:
        outcome = attack(problem, config)
        solved, t_found = outcome.solved, outcome.t_found
    except SearchExhausted:
        pass
    except KnapcrackError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return solved, t_found, (time.perf_counter() - t0) * 1000.0, error


def usable_cpus() -> int:
    """The CPUs this process may run on, by its affinity, not the host's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS or Windows
        return os.cpu_count() or 1


def search_lanes() -> int:
    """Processes one DAG t-search runs in: 2 when a second CPU is usable, else 1.

    Two is the count measured to pay on ``dag_rescue``; a third process
    would need its own measurement on a host with that many CPUs.  One
    without ``os.fork``; one while other threads run, since a forked
    child keeps only the forking thread and a lock another thread held
    stays held; and one inside a multiprocessing worker, such as a job of
    ``bench``'s pool, since the pool already holds the cores.  Such a worker
    has imported ``multiprocessing``.
    """
    mp = sys.modules.get("multiprocessing")
    if (getattr(os, "fork", None) is None or threading.active_count() > 1
            or (mp is not None and mp.parent_process() is not None)):
        return 1
    return min(2, usable_cpus())


def bench(cells: list[BenchCell]) -> list[BenchRow]:
    """Run every cell; deterministic apart from the timing column.

    The jobs run on one worker per usable CPU, at most one per job: with
    one worker they run here, where a DAG search gets its lanes, and with
    more in a process pool, where each searches in one lane.  A job that
    raises a KnapcrackError counts as unsolved and is listed in its row's
    errors, so one failure does not discard the grid.
    """
    cell_of = [cell for cell in cells for _ in range(cell.count)]
    index = [i for cell in cells for i in range(cell.count)]
    workers = min(usable_cpus(), len(cell_of))  # a fork pool starts every worker
    parallel = workers > 1
    if parallel:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        results = iter(list((pool.map if parallel else map)(_bench_one, cell_of, index)))
    rows = []
    for cell in cells:
        row = BenchRow(cell=cell, successes=0)
        for i, (solved, t_found, ms, error) in zip(range(cell.count), results):
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
