"""The benchmark's workloads: a fixed population of inputs each, the op that
is timed on them, and an independent check of every op's output.

Populations do not depend on the workload seed.  DAG rescue times range
from 18 ms to 5.4 s per instance (n=16 seed 5 walks t up to 150), so a
population drawn per seed would make every end-to-end figure a lottery
over instance hardness, and a per-workload verdict digest needs one fixed
verdict set.  The seed orders the ops of each pass instead.

Every output is checked by substitution without calling knapcrack: binary
verdicts and short non-binary witnesses into the original equations,
kernel columns into the augmented system.  A failed check raises
``Mismatch``.  The checks run outside the op's timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

BINARY = "binary"
SHORT_NONBINARY = "short_nonbinary"
EXHAUSTED = "search_exhausted"

# desk_small.grid's DAG cells (n, M), extended from seeds 0-9 to 0-19: of the
# desk instances exactly half are solved by the plain attack, which puts the
# median op on the gap between the two clusters; of these, 23 in 40 are.
DAG_CELLS = ((16, 1000), (20, 10000))
DAG_SEEDS = range(20)
DAG_T_MAX = 200
SCAN_CELLS = ((1, 20, "lo"), (1, 20, "cjloss"), (1, 20, "ahl"),
              (1, 30, "lo"), (1, 30, "cjloss"), (1, 30, "ahl"),
              (2, 30, "cjloss"))
SCAN_SEEDS = range(20)
GEOMETRY_SYSTEM = (2, 30, 0)  # (m, n, seed)
GEOMETRY_MODULUS = 10000
GEOMETRY_T = range(1, 31)  # knapcrack analyze --modulus 10000 --t-range 1..30
GEOMETRY_ROW = 0


class Mismatch(Exception):
    """An output failed its independent check."""


@dataclass(frozen=True)
class Item:
    """One op's inputs; ``seed`` is the generator seed, printed on failure."""

    key: str
    seed: int
    problem: object
    config: object
    t: int | None = None
    x_tilde: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Workload:
    """``build`` makes the population; ``run`` is the timed op; ``check``
    returns the op's digest record and whether it ended in a binary solution."""

    name: str
    nominal_pass_s: float  # one pass, pure kernel, Python 3.11, 2-core x86 VM
    build: Callable
    run: Callable
    check: Callable


def _rows(problem) -> tuple[list[list[int]], list[int]]:
    if hasattr(problem, "a"):
        return [list(problem.a)], [problem.b]
    return [list(r) for r in problem.A], list(problem.b)


def _solves(A, b, x) -> bool:
    return all(sum(a * v for a, v in zip(row, x)) == bi for row, bi in zip(A, b))


def _is_binary(x) -> bool:
    return all(v in (0, 1) for v in x)


def _check_witness(A, b, status: str, x) -> None:
    """Binary and short non-binary vectors must solve A x = b; others carry none."""
    if status in (BINARY, SHORT_NONBINARY):
        if x is None or len(x) != len(A[0]) or not _solves(A, b, x):
            raise Mismatch(f"{status} vector does not solve the system")
        if _is_binary(x) != (status == BINARY):
            raise Mismatch(f"{status} vector has the wrong binarity")
    elif x is not None:
        raise Mismatch(f"{status} verdict carries a vector")


def _build_dag_rescue(kc) -> list[Item]:
    pl = kc.pipeline
    return [Item(f"n{n}-M{M}-s{s}", s, pl.generate_instance(n, s).instance,
                 pl.SearchConfig(algo="reduce_half", use_dag=True, M=M,
                                 t_max=DAG_T_MAX, seed=s))
            for n, M in DAG_CELLS for s in DAG_SEEDS]


def _build_lattice_scan(kc) -> list[Item]:
    pl = kc.pipeline
    items = []
    for m, n, algo in SCAN_CELLS:
        for s in SCAN_SEEDS:
            problem = (pl.generate_instance(n, s).instance if m == 1
                       else pl.generate_system(m, n, s).system)
            items.append(Item(f"m{m}-n{n}-{algo}-s{s}", s, problem,
                              pl.SearchConfig(algo=algo, seed=s)))
    return items


def _run_attack(kc, item: Item):
    pl = kc.pipeline
    try:
        if item.config.use_dag:
            out = pl.attack_with_dag(item.problem, item.config)
        else:
            out = pl.attack(item.problem, item.config)
    except kc.errors.SearchExhausted as exc:
        return EXHAUSTED, exc.best.x if exc.best is not None else None, None
    return out.verdict.status, out.verdict.x, out.t_found


def _check_attack(kc, item: Item, outcome):
    status, x, t_found = outcome
    A, b = _rows(item.problem)
    _check_witness(A, b, SHORT_NONBINARY if status == EXHAUSTED and x is not None
                   else status, x)
    if t_found is not None and status != BINARY:
        raise Mismatch("t_found without a binary solution")
    record = {"op": item.key, "status": status,
              "x": list(x) if x is not None else None, "t_found": t_found}
    return record, status == BINARY


def _build_kernel_geometry(kc) -> list[Item]:
    """The system, then the baseline attack `knapcrack analyze` starts with."""
    m, n, seed = GEOMETRY_SYSTEM
    system = kc.pipeline.generate_system(m, n, seed).system
    config = kc.pipeline.SearchConfig(algo="reduce")
    base = kc.pipeline.attack(system, config).verdict
    A, b = _rows(system)
    _check_witness(A, b, base.status, base.x)
    x_tilde = tuple(base.x) if base.status == SHORT_NONBINARY else None
    return [Item(f"t{t}", seed, system, config, t=t, x_tilde=x_tilde)
            for t in GEOMETRY_T]


def _run_scenario(kc, item: Item):
    """One `knapcrack analyze` scenario, call for call."""
    dg, system, config = kc.disagg, item.problem, item.config
    params = dg.DisaggParams(item.t, GEOMETRY_MODULUS)
    cut = item.x_tilde is not None and dg.cuts_off(
        (list(system.A[GEOMETRY_ROW]), system.b[GEOMETRY_ROW]), params.r, item.x_tilde)
    try:
        aug = dg.build_disaggregated(system, GEOMETRY_ROW, params).system
    except kc.errors.RankDeficient:
        aug = system  # the derived row repeats an existing one: constraints unchanged
    kd = kc.formulations.decompose(aug, config.N, config.alpha)
    verdict = kc.pipeline.run_algorithm(aug, config)
    success = False
    if verdict.x is not None:
        head = list(verdict.x[:system.n])
        success = _is_binary(head) and system.is_solution(head)
    features = kc.analysis.compute_features(kd, cut=cut, success=success)
    return aug, kd, verdict, features


def _check_scenario(kc, item: Item, outcome):
    aug, kd, verdict, features = outcome
    A, b = _rows(aug)
    _check_witness(A, b, verdict.status, verdict.x)
    cols = [list(c) for c in zip(*kd.D)]
    if not all(_solves(A, [0] * len(A), c) for c in cols):
        raise Mismatch("a kernel column does not solve A x = 0")
    base_A, base_b = _rows(item.problem)
    head = list(verdict.x[:len(base_A[0])]) if verdict.x is not None else None
    success = head is not None and _is_binary(head) and _solves(base_A, base_b, head)
    if features.success != success:
        raise Mismatch("success label disagrees with substitution")
    if features.cut and item.x_tilde is None:
        raise Mismatch("cut label without a short non-binary witness")
    gram_det = kc.intmat.det_bareiss(kc.intmat.gram(cols))
    if gram_det <= 0 or features.dim != len(cols):
        raise Mismatch("kernel columns are not independent")
    record = {"op": item.key, "gram_det": gram_det, "cut": features.cut,
              "success": success}
    return record, success


WORKLOADS = {w.name: w for w in (
    Workload("dag_rescue", 10.0, _build_dag_rescue, _run_attack, _check_attack),
    Workload("lattice_scan", 5.0, _build_lattice_scan, _run_attack, _check_attack),
    Workload("kernel_geometry", 10.0, _build_kernel_geometry, _run_scenario,
             _check_scenario),
)}
