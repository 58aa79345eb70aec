"""Tests of the benchmark harness itself (run: python -m pytest perfbench/tests)."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import speed
import workloads
from layers import SELF_TIME, layer_metrics, patch_points
from spans import Span, Tracer, self_times

BENCH_DIR = Path(run.__file__).resolve().parent
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100, 0, -1))) == (90.0, 90)
    pct, value = run.tail(list(range(1, 12)))
    assert value == 1 and pct == pytest.approx(100 / 11)
    assert run.tail([3, 1, 2]) == (100.0, 3)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0, -1, 0.0, 10.0),
        Span("a", 0, 0, 1.0, 4.0),
        Span("b", 0, 0, 3.0, 6.0),    # overlaps a: the union 1..6 counts once
        Span("a.1", 0, 1, 2.0, 3.0),
        Span("c", 0, 0, 9.0, 12.0),   # runs past its parent: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_speedometer_scales_by_the_reference_times_near_the_interval():
    meter = speed.Speedometer()
    ref_s = speed.REF_MS / 1000.0
    # the reference ran at half speed near t = 10 and at full speed near t = 20
    meter.samples = [(10.0 - speed.WINDOW_S, 10.0 - speed.WINDOW_S + 2 * ref_s),
                     (10.1, 10.1 + 2 * ref_s), (20.0, 20.0 + ref_s)]
    meter._starts = [s for s, _ in meter.samples]
    wall, scaled = meter.scaled(10.0, 12.0)
    assert wall == pytest.approx(2.0 - 2 * ref_s)  # the timing inside is left out
    assert scaled == pytest.approx(wall / 2)
    assert meter.scaled(19.9, 19.95) == pytest.approx((0.05, 0.05))
    assert meter.scaled(30.0, 30.5) == pytest.approx((0.5, 0.5))  # nearest sample


def test_speedometer_restores_the_signal_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer() as meter:
        end = time.perf_counter() + 3.5 * speed.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 3


def small_populations(monkeypatch):
    monkeypatch.setattr(workloads, "DAG_CELLS", ((16, 1000),))
    monkeypatch.setattr(workloads, "DAG_SEEDS", (0, 8))  # both rescued at t = 1
    monkeypatch.setattr(workloads, "SCAN_CELLS", ((1, 20, "cjloss"), (1, 20, "ahl"),
                                                  (2, 30, "cjloss")))
    monkeypatch.setattr(workloads, "SCAN_SEEDS", range(2))
    monkeypatch.setattr(workloads, "GEOMETRY_T", range(1, 3))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_digest_is_stable_across_two_runs(monkeypatch, name):
    small_populations(monkeypatch)
    workload = workloads.WORKLOADS[name]
    digests = []
    for seed in (0, 1):
        _, kc, items = run.set_up(workload)
        res = run.run_passes(workload, kc, items, 2, seed)
        assert res.mismatches == [] and res.errors == 0
        assert res.attempted == 2 * len(items)
        digests.append(run.digest(res.records))
    assert digests[0] == digests[1]
    metrics, _ = run.end_to_end(res, 0.5)
    assert {k: u for k, (_, u) in metrics.items()} == declared("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())


def test_wrappers_leave_verdicts_and_counts_unchanged(monkeypatch):
    small_populations(monkeypatch)
    workload = workloads.WORKLOADS["dag_rescue"]
    _, kc, items = run.set_up(workload)
    original = kc.pipeline.attack_with_dag
    from_rows = kc.problems.LdeSystem.__dict__["from_rows"]
    plain = run.run_passes(workload, kc, items, 1, 0)
    tracer = Tracer()
    with tracer.install(patch_points(kc)):
        assert kc.pipeline.attack_with_dag is not original
        traced = run.run_passes(workload, kc, items, 1, 0, tracer)
    assert kc.pipeline.attack_with_dag is original
    assert kc.problems.LdeSystem.__dict__["from_rows"] is from_rows
    assert run.digest(traced.records) == run.digest(plain.records)
    assert traced.counts() == plain.counts()
    assert traced.t_found == [1, 1]

    metrics = layer_metrics(tracer.spans, traced.t_found, traced.wall, plain.wall)
    layers = sum(metrics[k][0] for k in set(SELF_TIME.values()))
    assert layers + metrics["harness.self_s"][0] == pytest.approx(traced.wall)
    assert metrics["pipeline.t_tried"][0] == 2
    assert metrics["pipeline.rescue_ratio"][0] == 1.0
    assert {k: u for k, (_, u) in metrics.items()} == declared("per_layer")
    assert metrics["lattice.lll_calls"][0] > 0
    assert metrics["reduction.sweep_calls"][0] == 4  # plain attack plus t = 1, twice
    assert {s.name for s in tracer.spans} <= set(SELF_TIME)


def test_a_failing_op_costs_one_row(monkeypatch, capsys):
    small_populations(monkeypatch)
    workload = workloads.WORKLOADS["lattice_scan"]
    _, kc, items = run.set_up(workload)
    bad = items[1].key

    def flaky(kc, item):
        if item.key == bad:
            raise ZeroDivisionError("injected")
        return workload.run(kc, item)

    broken = dataclasses.replace(workload, run=flaky)
    res = run.run_passes(broken, kc, items, 1, 0)
    assert res.attempted == len(items) and res.errors == 1
    assert len(res.samples_ms()) == len(items) - 1 and res.mismatches == []
    assert f"op {bad} (seed {items[1].seed}) raised ZeroDivisionError" in capsys.readouterr().err


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "lattice_scan",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
