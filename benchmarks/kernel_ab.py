"""In-process A/B of the C LLL loop: two builds of ``_lll.c`` on the benchmark
workloads' own LLL calls.

    python benchmarks/kernel_ab.py BASE

The script builds ``src/knapcrack/_lll.c`` as it is at the git revision BASE
and as it is in the working tree, each into a temporary directory with
``lattice._build``, and loads both side by side, as ``base._lll`` and
``change._lll``.  It captures the arguments of every call of the LLL loop
(``lattice.Kernel.reduce``) that one pass over each population of
``perfbench/workloads.py`` makes, checks that both builds return equal values
on every captured call, and then times the calls over ``ROUNDS`` rounds
(``time_rounds``): in each round every call runs on both builds back to back,
each timed on its own, the two taking turns to go first from round to round,
and a build's time for the round is the sum of its calls.  It writes
``benchmarks/BENCH_kernel_ab.json``: per workload the call count, each
build's median and quartiles of its round time in ms, the ratio of the
medians (change over base) and the rounds the change won, and for
``lattice_scan`` the same per group of its calls (``groups``), one group per
cell of the workload and basis shape (``group_of``), timed over their own
rounds, so that each attack and size shows apart.  Beside them it records
both sides (``sides``): the base as its commit and the git blob of its
source, and the change as the working tree on top of HEAD, with the blob of
its source and whether that is HEAD's, never as a commit, since a run made
before the change is committed would name the parent; and ``nproc`` and
the Python version.  It exits non-zero, writing nothing, where a build fails
or the two builds return different values on a call.

The process pins itself to one CPU of its affinity set before it runs
anything (``pin_one_cpu``), so that a DAG search runs in one lane
(``pipeline.search_lanes``), every LLL call is made and captured in this
process, and both builds are timed on one core.  Timing the loop alone, both
builds in one process and call against call, leaves out the rest of an op
and most of a shared host's drift between runs, under which pairs of
``perfbench/run.py`` runs cannot tell a few percent apart: a burst of another
tenant's load lands on both builds' calls alike, where a whole pass of one
build at a time let it land on one build only.  ``benchmarks/op_ab.py`` times
whole ops through the same loop.
"""

from __future__ import annotations

import copy
import gc
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
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

SOURCE = "src/knapcrack/_lll.c"
OUT = ROOT / "benchmarks" / "BENCH_kernel_ab.json"
ROUNDS = 30

# An LLL loop of the C entry's form: (cols, p, q, prefix, start) -> its value
Reduce = Callable[..., object]


def git(*args: str) -> str:
    """What git prints in the repository; SystemExit with its message where it fails."""
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"error: git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout


def load(source_text: str, into: Path, name: str):
    """The extension built from source_text in the directory into, loaded as name._lll."""
    source = into / "_lll.c"
    source.write_text(source_text)
    binary = into / lattice._binary_name(source)
    if not lattice._build(source, binary):
        raise SystemExit(f"error: the {name} _lll.c does not build")
    spec = spec_from_file_location(f"{name}._lll", binary)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def capture_calls(run: Callable[[], object]) -> list[tuple]:
    """Copies of the arguments (cols, p, q, prefix, start) of every LLL call
    that run() makes, which runs on the library's own kernel."""
    kernel = lattice._native()
    calls = []

    def reduce(cols, p, q, prefix, start=None):
        calls.append(copy.deepcopy((cols, p, q, prefix, start)))
        return kernel.reduce(cols, p, q, prefix, start)

    lattice._kernel = kernel._replace(reduce=reduce)
    try:
        run()
    finally:
        lattice._kernel = kernel
    return calls


def workloads():
    """perfbench's ``WORKLOADS``, from ``perfbench/workloads.py``, which is only read."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    return WORKLOADS


def modules(package: str) -> SimpleNamespace:
    """The modules of the library package that perfbench's workloads call."""
    return SimpleNamespace(**{n: importlib.import_module(f"{package}.{n}") for n in (
        "pipeline", "formulations", "disagg", "analysis", "intmat", "problems", "errors")})


def workload_calls(name: str) -> list[tuple[str, tuple]]:
    """The LLL calls of one pass over the population of perfbench's workload
    name, each as (the key of the op that made it, its arguments)."""
    kc = modules("knapcrack")
    workload = workloads()[name]
    return [(item.key, args) for item in workload.build(kc)
            for args in capture_calls(partial(workload.run, kc, item))]


def group_of(key: str, args: tuple) -> str:
    """The group of an LLL call that the op key made: the op's cell, its key
    without the seed, and the basis shape, columns x entries, with "resumed"
    for a call from a start (LO's tails).  So "m2-n30-cjloss 31x32" and
    "m1-n30-ahl 31x32" are apart."""
    cols, start = args[0], args[4]
    shape = f"{len(cols)}x{len(cols[0])}{' resumed' if start is not None else ''}"
    return f"{key.rsplit('-s', 1)[0]} {shape}"


def commits(ref: str) -> tuple[str, str]:
    """The commit ref names, the base, and HEAD, which the change, the working
    tree, is on top of."""
    return (git("rev-parse", "--verify", f"{ref}^{{commit}}").strip(),
            git("rev-parse", "HEAD").strip())


def sides(ref: str) -> tuple[dict, dict]:
    """The records of the base, the commit ref names, and of the change, the
    working tree on top of HEAD: the base's commit and the git blob of its
    source, and the change's HEAD, the blob of its source and whether that is
    HEAD's."""
    commit, head = commits(ref)
    blob = git("hash-object", SOURCE).strip()
    base = {"commit": commit, "lll_c": git("rev-parse", f"{commit}:{SOURCE}").strip()}
    change = {"working_tree_on": head, "lll_c": blob,
              "lll_c_committed": blob == git("rev-parse", f"{head}:{SOURCE}").strip()}
    return base, change


def pin_one_cpu() -> int:
    """Pin this process to the last CPU of its affinity set; the set's size before."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return len(cpus)


def time_rounds(pairs: Sequence[tuple[Callable[[], object], Callable[[], object]]],
                rounds: int) -> tuple[list[float], list[float]]:
    """Milliseconds per round of the base and the change side of pairs.

    A pair is one call on each side, (base, change).  In each round every
    pair's two calls run back to back, each timed on its own, base first in
    even rounds and change first in odd ones; a side's time for the round is
    the sum of its calls.  The collector is off within a round.
    """
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


def summary(base: list[float], change: list[float]) -> dict:
    """The rounds, each side's median and quartiles, the ratio of the medians
    (change over base) and the rounds the change won, of time_rounds' result."""
    base_ms, change_ms = spread(base), spread(change)
    return {"rounds": len(base), "base_ms": base_ms, "change_ms": change_ms,
            "ratio": round(change_ms["median"] / base_ms["median"], 4),
            "wins": sum(c < b for b, c in zip(base, change))}


def compare_and_time(calls: Sequence[tuple], base: Reduce, change: Reduce, rounds: int) -> dict:
    """One workload's record: base and change must return equal values on every
    call (SystemExit otherwise); then time_rounds times them call by call."""
    for i, args in enumerate(calls):
        if base(*args) != change(*args):
            raise SystemExit(f"error: the builds return different values on call {i}")
    pairs = [(partial(base, *args), partial(change, *args)) for args in calls]
    return {"calls": len(calls), **summary(*time_rounds(pairs, rounds))}


def report(base: dict, change: dict, nproc: int, workloads: dict) -> dict:
    """The JSON document: both sources, the host and every workload's record."""
    return {"base": base, "change": change, "nproc": nproc,
            "python": platform.python_version(), "workloads": workloads}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, change = sides(argv[0])
    nproc = pin_one_cpu()
    with tempfile.TemporaryDirectory(prefix="kernel_ab_") as tmp:
        builds = {}
        for name, text in (("base", git("show", f"{base['commit']}:{SOURCE}")),
                           ("change", (ROOT / SOURCE).read_text())):
            Path(tmp, name).mkdir()
            builds[name] = load(text, Path(tmp, name), name)
        time_them = partial(compare_and_time, base=builds["base"].reduce,
                            change=builds["change"].reduce, rounds=ROUNDS)
        records = {}
        for name in ("dag_rescue", "lattice_scan", "kernel_geometry"):
            calls = workload_calls(name)
            records[name] = time_them([args for _, args in calls])
            print(name, json.dumps(records[name]), flush=True)
            if name == "lattice_scan":
                groups: dict[str, list[tuple]] = {}
                for key, args in calls:
                    groups.setdefault(group_of(key, args), []).append(args)
                records[name]["groups"] = {g: time_them(c) for g, c in groups.items()}
                for g, record in records[name]["groups"].items():
                    print(" ", g, json.dumps(record), flush=True)
    OUT.write_text(json.dumps(report(base, change, nproc, records), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
