#!/usr/bin/env python3
"""Run one knapcrack benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload dag_rescue --seed 0 --seconds 30 --trace 0

``--trace 0`` times the ops unwrapped and reports the end-to-end metrics,
at reference speed (``speed.py``): a fixed routine timed while the ops run
takes the shared host's drift out of the times.
``--trace 1`` runs the same passes unwrapped, then again with a span around
every call into a layer, and reports the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 only when every op
completed, every output passed its check and the verdict digest matches
``digests.json``.  README.md beside this file explains the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
TAIL_BEYOND = 10

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from layers import SELF_TIME, layer_metrics, patch_points  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Mismatch  # noqa: E402


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it.

    With n samples that is the value of rank n - 10, at percentile
    100 (n - 10) / n.  With ten samples or fewer the maximum is returned
    at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, ordered[rank - 1]


def digest(records) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_knapcrack() -> SimpleNamespace:
    """A fresh import of the package from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "knapcrack" or m.startswith("knapcrack.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("knapcrack")
    if Path(pkg.__file__).resolve().parent != SRC / "knapcrack":
        raise ImportError(f"knapcrack imported from {pkg.__file__}, not from {SRC}")
    names = ("pipeline", "formulations", "disagg", "analysis", "intmat",
             "problems", "errors")
    return SimpleNamespace(knapcrack=pkg, **{
        n: importlib.import_module(f"knapcrack.{n}") for n in names})


def set_up(workload, meter=None):
    """Import, input generation and one warm-up op; returns (seconds, kc, items).

    With a ``Speedometer`` the seconds are at reference speed.
    """
    gc.collect()
    t0 = time.perf_counter()
    kc = load_knapcrack()
    items = workload.build(kc)
    workload.check(kc, items[0], workload.run(kc, items[0]))
    t1 = time.perf_counter()
    return (meter.scaled(t0, t1)[1] if meter else t1 - t0), kc, items


@dataclass
class Passes:
    """What a sequence of passes over the population produced."""

    attempted: int = 0
    solved: int = 0
    errors: int = 0
    op_ms: dict[str, list[float]] = field(default_factory=dict)  # op key -> times
    wall_ms: dict[str, list[float]] = field(default_factory=dict)  # op key -> wall times
    timed: list[tuple[str, float, float]] = field(default_factory=list)  # key, start, end
    t_found: list[int] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    records: list | None = None
    wall: float = 0.0

    def counts(self) -> tuple[int, int, int]:
        return self.attempted, self.solved, self.errors

    def samples_ms(self) -> list[float]:
        return [t for times in self.op_ms.values() for t in times]


def run_passes(workload, kc, items, passes: int, seed: int, tracer=None,
               meter=None) -> Passes:
    """Closed loop: one client runs the ops back to back, in seeded order.

    ``op_ms`` holds the ops' times, at reference speed when a running
    ``Speedometer`` is given, and ``wall_ms`` their wall times.
    """
    rng = random.Random(seed)
    out = Passes()
    start = time.perf_counter()
    for p in range(passes):
        gc.collect()
        order = list(range(len(items)))
        rng.shuffle(order)
        records: list = [None] * len(items)
        for i in order:
            item = items[i]
            if tracer is not None:
                tracer.op = f"{p}/{item.key}"
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                outcome = workload.run(kc, item)
            except Exception as exc:  # one bad op costs one row, not the run
                out.errors += 1
                print(f"error: op {item.key} (seed {item.seed}) raised "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                records[i] = {"op": item.key, "error": type(exc).__name__}
                continue
            out.timed.append((item.key, t0, time.perf_counter()))
            try:
                records[i], solved = workload.check(kc, item, outcome)
            except Mismatch as exc:
                out.mismatches.append(f"op {item.key} (seed {item.seed}): {exc}")
                records[i] = {"op": item.key, "mismatch": str(exc)}
                continue
            out.solved += solved
            if records[i].get("t_found") is not None:
                out.t_found.append(records[i]["t_found"])
        if out.records is None:
            out.records = records
        elif records != out.records:
            out.mismatches.append(f"pass {p} verdicts differ from pass 0")
    out.wall = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    for key, t0, t1 in out.timed:
        wall, scaled = meter.scaled(t0, t1) if meter else (t1 - t0, t1 - t0)
        out.wall_ms.setdefault(key, []).append(wall * 1000.0)
        out.op_ms.setdefault(key, []).append(scaled * 1000.0)
    return out


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git; "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(kc, seed: int) -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "kernel": kc.knapcrack.kernel_name(), "nproc": len(os.sched_getaffinity(0)),
            "seed": seed, "commit": git_commit()}


def end_to_end(res: Passes, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics (name -> (value, unit)) and the tail's provenance.

    The samples are every op execution of every pass, at reference speed
    when the passes ran under a ``Speedometer``.
    """
    ms = res.samples_ms()
    pct, tail_ms = tail(ms)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "ops_per_s": (len(ms) / (sum(ms) / 1000.0), "1/s"),
        "success_ratio": (res.solved / res.attempted, "ratio"),
        "error_free_ratio": (1.0 - res.errors / res.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    info = {"tail_percentile": pct, "samples": len(ms),
            "error_ratio": res.errors / res.attempted}
    return metrics, info


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    # The traced passes run without the speedometer: its signal handler
    # would land inside spans.
    meter = None if args.trace else speed.Speedometer()
    with meter or contextlib.nullcontext():
        try:
            import numpy  # noqa: F401  (imported before set-up is timed)

            timings = []
            for _ in range(1 if args.trace else SETUP_REPEATS):
                setup_s, kc, items = set_up(workload, meter)
                timings.append(setup_s)
        except ImportError as exc:
            print(f"error: cannot import knapcrack from {SRC}: {exc}", file=sys.stderr)
            return 2
        passes = max(1, round(args.seconds / workload.nominal_pass_s))
        if args.trace:
            each = max(1, passes // 2)
            plain = run_passes(workload, kc, items, each, args.seed)
            tracer = Tracer()
            with tracer.install(patch_points(kc)):
                res = run_passes(workload, kc, items, each, args.seed, tracer)
        else:
            res = run_passes(workload, kc, items, passes, args.seed, meter=meter)
    setup_s = statistics.median(timings)
    problems: list[str] = []

    if args.trace:
        if digest(plain.records) != digest(res.records) or plain.counts() != res.counts():
            problems.append("traced and untraced passes disagree")
        metrics = layer_metrics(tracer.spans, res.t_found, res.wall, plain.wall)
        attempted = plain.attempted + res.attempted
        failed = plain.errors + res.errors + len(plain.mismatches) + len(res.mismatches)
        problems += plain.mismatches
        layers_s = sum(metrics[k][0] for k in set(SELF_TIME.values()))
        info = {"passes": [each, each],
                "self_time_sum_s": layers_s + metrics["harness.self_s"][0]}
    else:
        metrics, info = end_to_end(res, setup_s)
        info["passes"] = passes
        attempted, failed = res.attempted, res.errors + len(res.mismatches)
        info["setup_runs_s"] = timings
        info["reference_ms"] = [(e - s) * 1000.0 for s, e in meter.samples]
        info["op_ms"] = res.op_ms
        info["wall_ms"] = res.wall_ms
    problems += res.mismatches

    recorded = json.loads((HERE / "digests.json").read_text()).get(workload.name)
    got = digest(res.records)
    if got != recorded:
        problems.append(f"verdict digest {got} != recorded {recorded}")
    result = {"workload": workload.name, "trace": args.trace,
              "provenance": provenance(kc, args.seed), "digest": got, **info,
              "problems": problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))

    print(f"workload {workload.name}, seed {args.seed}: {info['passes']} passes "
          f"of {len(items)} ops")
    print("provenance " + json.dumps(result["provenance"]))
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for key in ("tail_percentile", "samples", "error_ratio", "self_time_sum_s"):
        if key in info:
            print(f"  {key:34s} {info[key]:14.6g}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
