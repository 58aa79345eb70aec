"""In-process A/B of whole ops: the library at a git revision against the
working tree, on every op of the benchmark's workloads.

    python benchmarks/op_ab.py BASE

The script extracts ``src/knapcrack`` as it is at the git revision BASE with
``git archive`` into a temporary directory and imports it as the package
``base_knapcrack``, next to the working tree's ``knapcrack``
(``load_package``).  The library's modules import each other relatively, so
each copy runs its own code, and each builds and loads its own C extension
beside its source (``lattice._native``).  For each population of
``perfbench/workloads.py``, which it imports and only reads, it builds the
items on both sides and runs every op once on each, and both sides' outcomes
must pass the workload's own check with equal records.  It then times the
ops over ``ROUNDS`` rounds through ``kernel_ab.time_rounds``: each op runs
on both sides back to back, each timed on its own, the two taking turns to
go first from round to round.  It writes ``benchmarks/BENCH_op_ab.json``:
per workload the op count, each side's median and quartiles of its summed
op time per round in ms, the ratio of the medians (change over base) and
the rounds the change won, with both sides (``sides``): the base's commit,
and the change as the working tree on top of HEAD, never as a commit, with
whether its ``src/knapcrack`` is HEAD's; and ``nproc`` and the Python
version.
It exits non-zero, writing nothing, where the two sides' outcomes differ.

The process pins itself to one CPU first (``kernel_ab.pin_one_cpu``), so a
DAG search runs in one lane and both sides run on one core.  Where
``kernel_ab.py`` times the C loop alone, this times everything an op runs,
the Python around the C calls included.
"""

from __future__ import annotations

import io
import json
import platform
import subprocess
import sys
import tarfile
import tempfile
from functools import partial
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import kernel_ab  # noqa: E402
from kernel_ab import ROOT, git  # noqa: E402

PACKAGE = "src/knapcrack"
BASE_NAME = "base_knapcrack"
OUT = ROOT / "benchmarks" / "BENCH_op_ab.json"
ROUNDS = 30


def extract(commit: str, into: Path) -> Path:
    """The directory of commit's ``src/knapcrack``, extracted under into."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit, PACKAGE],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / PACKAGE


def load_package(directory: Path, name: str) -> SimpleNamespace:
    """The library package in directory, imported as name; its workload modules."""
    spec = spec_from_file_location(name, directory / "__init__.py",
                                   submodule_search_locations=[str(directory)])
    package = module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return kernel_ab.modules(name)


def compare_and_time(workload, base: SimpleNamespace, change: SimpleNamespace,
                     rounds: int) -> dict:
    """One workload's record: every op's outcome, on either side, passes the
    workload's check with equal records (SystemExit otherwise); then
    ``kernel_ab.time_rounds`` times the ops one by one."""
    items = {side: workload.build(kc) for side, kc in (("base", base), ("change", change))}
    for i, (b, c) in enumerate(zip(items["base"], items["change"])):
        if (workload.check(base, b, workload.run(base, b))
                != workload.check(change, c, workload.run(change, c))):
            raise SystemExit(f"error: the two sides' outcomes differ on op {i} ({b.key})")
    pairs = [(partial(workload.run, base, b), partial(workload.run, change, c))
             for b, c in zip(items["base"], items["change"])]
    return {"ops": len(pairs), **kernel_ab.summary(*kernel_ab.time_rounds(pairs, rounds))}


def sides(ref: str) -> tuple[dict, dict]:
    """The records of the base, the commit ref names, and of the change, the
    working tree on top of HEAD, with whether its ``src/knapcrack`` is HEAD's."""
    commit, head = kernel_ab.commits(ref)
    committed = not git("status", "--porcelain", "--", PACKAGE).strip()
    return {"commit": commit}, {"working_tree_on": head, "src_committed": committed}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base_side, change_side = sides(argv[0])
    nproc = kernel_ab.pin_one_cpu()
    workloads = kernel_ab.workloads()
    with tempfile.TemporaryDirectory(prefix="op_ab_") as tmp:
        base = load_package(extract(base_side["commit"], Path(tmp)), BASE_NAME)
        change = kernel_ab.modules("knapcrack")
        records = {}
        for name in ("dag_rescue", "lattice_scan", "kernel_geometry"):
            records[name] = compare_and_time(workloads[name], base, change, ROUNDS)
            print(name, json.dumps(records[name]), flush=True)
    doc = {"base": base_side, "change": change_side, "nproc": nproc,
           "python": platform.python_version(), "workloads": records}
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
