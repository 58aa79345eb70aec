"""In-process A/B of the C LLL loop: two builds of ``_lll.c`` on the benchmark
workloads' own LLL calls.

    python benchmarks/kernel_ab.py BASE

The script builds ``src/knapcrack/_lll.c`` as it is at the git revision BASE
and as it is in the working tree, each into a temporary directory with
``lattice._build``, and loads both side by side, as ``base._lll`` and
``change._lll``.  It captures the arguments of every call of the LLL loop
(``lattice.Kernel.reduce``) that one pass over each population of
``perfbench/workloads.py`` makes, checks that both builds return equal values
on every captured call, and then times the calls over ``ROUNDS`` rounds: in
each round each build runs the whole pass once, the two taking turns to go
first.  It writes ``benchmarks/BENCH_kernel_ab.json``: per workload the call
count, each build's median and quartiles of its pass in ms, the ratio of the
medians (change over base) and the rounds the change won, with both
revisions and the git blobs of both sources, ``nproc`` and the Python
version.  It exits non-zero, writing nothing, where a build fails or the two
builds return different values on a call.

The process pins itself to one CPU of its affinity set before it runs
anything, so that a DAG search runs in one lane (``pipeline.search_lanes``),
every LLL call is made and captured in this process, and both builds are
timed on one core.  Timing the loop alone, both builds in one process and
pass against pass, leaves out the rest of an op and most of a shared host's
drift between runs, under which pairs of ``perfbench/run.py`` runs cannot
tell a few percent apart.
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


def workload_calls(name: str) -> list[tuple]:
    """The LLL calls of one pass over the population of perfbench's workload name."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    kc = SimpleNamespace(**{n: importlib.import_module(f"knapcrack.{n}") for n in (
        "pipeline", "formulations", "disagg", "analysis", "intmat", "problems", "errors")})
    workload = WORKLOADS[name]
    items = workload.build(kc)
    return capture_calls(lambda: [workload.run(kc, item) for item in items])


def time_pass(reduce: Reduce, calls: Sequence[tuple]) -> float:
    """Milliseconds for reduce to run every call once, with the collector off."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for args in calls:
            reduce(*args)
        return (time.perf_counter() - start) * 1000.0
    finally:
        gc.enable()


def spread(ms: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def compare_and_time(calls: Sequence[tuple], base: Reduce, change: Reduce, rounds: int) -> dict:
    """One workload's record: base and change must return equal values on every
    call (SystemExit otherwise); then each runs the whole pass once per round,
    base first in even rounds and change first in odd ones."""
    for i, args in enumerate(calls):
        if base(*args) != change(*args):
            raise SystemExit(f"error: the builds return different values on call {i}")
    ms = {"base": [], "change": []}
    sides = {"base": base, "change": change}
    for r in range(rounds):
        for side in ("base", "change") if r % 2 == 0 else ("change", "base"):
            ms[side].append(time_pass(sides[side], calls))
    base_ms, change_ms = spread(ms["base"]), spread(ms["change"])
    return {"calls": len(calls), "rounds": rounds, "base_ms": base_ms, "change_ms": change_ms,
            "ratio": round(change_ms["median"] / base_ms["median"], 4),
            "wins": sum(c < b for b, c in zip(ms["base"], ms["change"]))}


def report(base: dict, change: dict, nproc: int, workloads: dict) -> dict:
    """The JSON document: both sources, the host and every workload's record."""
    return {"base": base, "change": change, "nproc": nproc,
            "python": platform.python_version(), "workloads": workloads}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    commit = git("rev-parse", "--verify", f"{argv[0]}^{{commit}}").strip()
    head = git("rev-parse", "HEAD").strip()
    base = {"commit": commit, "lll_c": git("rev-parse", f"{commit}:{SOURCE}").strip()}
    change = {"commit": head, "lll_c": git("hash-object", SOURCE).strip()}
    change["lll_c_committed"] = change["lll_c"] == git("rev-parse", f"{head}:{SOURCE}").strip()
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory(prefix="kernel_ab_") as tmp:
        builds = {}
        for name, text in (("base", git("show", f"{commit}:{SOURCE}")),
                           ("change", (ROOT / SOURCE).read_text())):
            Path(tmp, name).mkdir()
            builds[name] = load(text, Path(tmp, name), name)
        records = {}
        for name in ("dag_rescue", "lattice_scan", "kernel_geometry"):
            calls = workload_calls(name)
            records[name] = compare_and_time(calls, builds["base"].reduce,
                                             builds["change"].reduce, ROUNDS)
            print(name, json.dumps(records[name]), flush=True)
    OUT.write_text(json.dumps(report(base, change, nproc, records), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
