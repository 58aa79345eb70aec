"""In-process A/B of the library at a git revision against the working tree,
on every op of the benchmark's workloads and on the LLL calls they make.

    python benchmarks/ab.py BASE

The script pins itself to one CPU (``pin_one_cpu``), so that a DAG search
runs in one lane, every LLL call is made in this process and both sides run
on one core.  It imports BASE's ``src/knapcrack``, taken with ``git
archive``, as ``base_knapcrack`` beside the working tree's ``knapcrack``
(``load_package``); each copy runs its own code and builds its own C
extension beside its source.  Both sides must run that extension
(``kernels``), lest a BASE whose ``_lll.c`` does not build time the Python
twins.  BASE must be 0833bba or later: its ``lattice._native()`` returns a
``lattice.Kernel``, whose LLL entry takes the working tree's arguments,
``(cols, p, q, prefix, start)``.

For each workload of ``perfbench/workloads.py``, which it only reads, every
op runs once on each side, and both outcomes must pass the workload's check
with equal records; the working tree's ops copy the arguments of every LLL
call they make (``capture_calls``), and both sides' LLL entries must return
equal values on each.  The ops, and then the calls, are timed over
``ROUNDS`` rounds (``time_rounds``), each on both sides back to back, the
sides taking turns to go first, and ``lattice_scan``'s calls again per cell
and basis shape (``group_of``).  Timing both sides op against op leaves out
the shared-host drift under which ``perfbench/run.py`` pairs cannot tell a
few percent apart.

It writes ``benchmarks/BENCH_ab.json``: per workload an ``ops`` and an
``lll`` record (``timed``), with ``lattice_scan``'s ``groups`` in its
``lll``; both sides (``sides``) with their kernels; ``nproc``; the Python
version.  It exits non-zero, writing nothing, where a side does not run the
C kernel or the sides' outcomes or values differ.
"""

import copy
import gc
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections.abc import Callable, Sequence
from functools import partial
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from knapcrack import lattice  # noqa: E402

PACKAGE = "src/knapcrack"
BASE_NAME = "base_knapcrack"
OUT = ROOT / "benchmarks" / "BENCH_ab.json"
ROUNDS = 30

Pair = tuple[Callable[[], object], Callable[[], object]]


def git(*args: str) -> str:
    """What git prints in the repository; SystemExit with its message where it fails."""
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"error: git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout


def sides(ref: str) -> tuple[dict, dict]:
    """The records of the base, the commit ref names, and of the change, the
    working tree on top of HEAD, with whether its ``src/knapcrack`` is HEAD's."""
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}").strip()
    committed = not git("status", "--porcelain", "--", PACKAGE).strip()
    return ({"commit": commit},
            {"working_tree_on": git("rev-parse", "HEAD").strip(), "src_committed": committed})


def extract(commit: str, into: Path) -> Path:
    """The directory of commit's ``src/knapcrack``, extracted under into."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit, PACKAGE],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / PACKAGE


def modules(package: str) -> SimpleNamespace:
    """The modules of the library package that perfbench's workloads call, and its lattice."""
    return SimpleNamespace(**{n: importlib.import_module(f"{package}.{n}") for n in (
        "pipeline", "formulations", "disagg", "analysis", "intmat", "problems", "errors",
        "lattice")})


def load_package(directory: Path, name: str) -> SimpleNamespace:
    """The library package in directory, imported as name; its modules."""
    spec = spec_from_file_location(name, directory / "__init__.py",
                                   submodule_search_locations=[str(directory)])
    package = module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return modules(name)


def kernels(base: SimpleNamespace, change: SimpleNamespace) -> tuple[str, str]:
    """Both sides' ``lattice.kernel_name()``; SystemExit unless both are "gmp"."""
    names = base.lattice.kernel_name(), change.lattice.kernel_name()
    if names != ("gmp", "gmp"):
        raise SystemExit(f"error: both sides must run the C kernel; (base, change) run {names}")
    return names


def workloads() -> dict:
    """perfbench's ``WORKLOADS``, from ``perfbench/workloads.py``, which is only read."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    return WORKLOADS


def pin_one_cpu() -> int:
    """Pin this process to the last CPU of its affinity set; the set's size before."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return len(cpus)


def capture_calls(run: Callable[[], object]) -> tuple[object, list[tuple]]:
    """What run() returns, and copies of the arguments (cols, p, q, prefix,
    start) of every LLL call it makes on the working tree's kernel."""
    kernel = lattice._native()
    calls = []

    def reduce(cols, p, q, prefix, start=None):
        calls.append(copy.deepcopy((cols, p, q, prefix, start)))
        return kernel.reduce(cols, p, q, prefix, start)

    lattice._kernel = kernel._replace(reduce=reduce)
    try:
        return run(), calls
    finally:
        lattice._kernel = kernel


def op_pairs(workload, base: SimpleNamespace, change: SimpleNamespace) -> tuple[list, list]:
    """Every op of workload on both sides, run once on each first, whose two
    outcomes must pass the workload's check with equal records (SystemExit
    else); and the change's LLL calls, each as (its op's key, its arguments)."""
    pairs, calls = [], []
    for b, c in zip(workload.build(base), workload.build(change)):
        outcome, captured = capture_calls(partial(workload.run, change, c))
        if workload.check(base, b, workload.run(base, b)) != workload.check(change, c, outcome):
            raise SystemExit(f"error: the two sides' outcomes differ on op {len(pairs)} ({b.key})")
        pairs.append((partial(workload.run, base, b), partial(workload.run, change, c)))
        calls += [(c.key, args) for args in captured]
    return pairs, calls


def call_pairs(calls: Sequence[tuple], base: Callable, change: Callable) -> list[Pair]:
    """Every LLL call on both sides' entries, which must return equal values (SystemExit else)."""
    for i, args in enumerate(calls):
        if base(*args) != change(*args):
            raise SystemExit(f"error: the two sides return different values on LLL call {i}")
    return [(partial(base, *args), partial(change, *args)) for args in calls]


def group_of(key: str, args: tuple) -> str:
    """The group of an LLL call that the op key made: the op's cell (its key
    without the seed) and the basis shape, columns x entries, "resumed" from
    a start (LO's tails); so "m2-n30-cjloss 31x32" and "m1-n30-ahl 31x32" differ."""
    cols, start = args[0], args[4]
    shape = f"{len(cols)}x{len(cols[0])}{' resumed' if start is not None else ''}"
    return f"{key.rsplit('-s', 1)[0]} {shape}"


def time_rounds(pairs: Sequence[Pair], rounds: int) -> tuple[list[float], list[float]]:
    """Milliseconds per round of the base and the change side of pairs: in
    each round every pair's two calls run back to back, each timed on its
    own, base first in even rounds, and a side's round is the sum of its
    calls.  The collector is off within a round."""
    clock = time.perf_counter
    ms: tuple[list[float], list[float]] = ([], [])
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        spent = [0.0, 0.0]
        gc.collect()
        gc.disable()
        try:
            for pair in pairs:
                for side in order:
                    call = pair[side]
                    start = clock()
                    call()
                    spent[side] += clock() - start
        finally:
            gc.enable()
        for side in (0, 1):
            ms[side].append(spent[side] * 1000.0)
    return ms


def spread(ms: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def timed(pairs: Sequence[Pair], rounds: int) -> dict:
    """The count of pairs and rounds, each side's median and quartiles of its
    round time, the ratio of the medians (change over base) and its wins."""
    base, change = time_rounds(pairs, rounds)
    base_ms, change_ms = spread(base), spread(change)
    return {"count": len(pairs), "rounds": rounds, "base_ms": base_ms, "change_ms": change_ms,
            "ratio": round(change_ms["median"] / base_ms["median"], 4),
            "wins": sum(c < b for b, c in zip(base, change))}


def measure(workload, base: SimpleNamespace, change: SimpleNamespace, rounds: int) -> dict:
    """One workload's ``ops`` and ``lll`` records, each level checked before it
    is timed, with the ``groups`` of ``lattice_scan``'s calls."""
    pairs, calls = op_pairs(workload, base, change)
    lll = partial(call_pairs, base=base.lattice._native().reduce,
                  change=change.lattice._native().reduce)
    record = {"ops": timed(pairs, rounds), "lll": timed(lll([args for _, args in calls]), rounds)}
    if workload.name == "lattice_scan":
        groups: dict[str, list[tuple]] = {}
        for key, args in calls:
            groups.setdefault(group_of(key, args), []).append(args)
        record["lll"]["groups"] = {g: timed(lll(c), rounds) for g, c in groups.items()}
    return record


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    nproc = pin_one_cpu()
    base_side, change_side = sides(argv[0])
    with tempfile.TemporaryDirectory(prefix="ab_") as tmp:
        base = load_package(extract(base_side["commit"], Path(tmp)), BASE_NAME)
        change = modules("knapcrack")
        base_side["kernel"], change_side["kernel"] = kernels(base, change)
        records = {}
        for name in ("dag_rescue", "lattice_scan", "kernel_geometry"):
            records[name] = measure(workloads()[name], base, change, ROUNDS)
            print(name, json.dumps(records[name]), flush=True)
    doc = {"base": base_side, "change": change_side, "nproc": nproc,
           "python": platform.python_version(), "workloads": records}
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
