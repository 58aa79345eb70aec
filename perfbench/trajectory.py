#!/usr/bin/env python3
"""Summarise benchmark results and, on request, append a trajectory entry.

    python3 perfbench/trajectory.py                 # medians and spreads
    python3 perfbench/trajectory.py --append LABEL  # and append to trajectory.jsonl

Reads the result files that ``run.py`` leaves in ``.perfbench/`` (one per
workload, seed and trace mode).  For every workload and metric it gives the
number of runs, the median, the first and third quartiles as
``statistics.quantiles(values, n=4)`` computes them, and the spread: the
distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench"


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def collect() -> tuple[dict, list[dict]]:
    """workload -> mode ("end_to_end" or "per_layer") -> metric -> summary."""
    values: dict = {}
    results = [json.loads(p.read_text()) for p in sorted(RESULTS.glob("*-trace[01].json"))]
    for r in results:
        mode = "per_layer" if r["trace"] else "end_to_end"
        slot = values.setdefault(r["workload"], {}).setdefault(mode, {})
        for name, m in r["metrics"].items():
            slot.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    table = {w: {mode: {name: {**summarise(vals), "unit": unit}
                        for name, (vals, unit) in metrics.items()}
                 for mode, metrics in modes.items()}
             for w, modes in values.items()}
    return table, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--append", metavar="LABEL",
                    help="append the summary to trajectory.jsonl under this label")
    args = ap.parse_args(argv)
    table, results = collect()
    if not results:
        print(f"no results in {RESULTS}", file=sys.stderr)
        return 1
    for w, modes in sorted(table.items()):
        for mode, metrics in modes.items():
            print(f"{w} ({mode})")
            for name, s in metrics.items():
                spread = "" if s["spread"] is None else f"{s['spread']:8.3f}"
                print(f"  {name:34s} {s['runs']:3d} runs  median {s['median']:12.6g} "
                      f"{s['unit']:6s} q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} {spread}")
    if args.append:
        keys = ("python", "numpy", "kernel", "nproc", "commit")
        prov = {k: sorted({str(r["provenance"][k]) for r in results}) for k in keys}
        seeds = {w: sorted({r["provenance"]["seed"] for r in results if r["workload"] == w})
                 for w in table}
        entry = {"label": args.append, "provenance": prov, "seeds": seeds,
                 "workloads": table}
        with open(HERE / "trajectory.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
