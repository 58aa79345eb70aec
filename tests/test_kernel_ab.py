"""benchmarks/kernel_ab.py, the in-process A/B of two builds of the C LLL loop:
its capture, its compare-and-time step and its JSON record, run A/A on the
C entries already loaded, so that no second build is made."""

import importlib.util
import json
from pathlib import Path

import pytest

from knapcrack import lattice, pipeline

spec = importlib.util.spec_from_file_location(
    "kernel_ab", Path(__file__).resolve().parent.parent / "benchmarks" / "kernel_ab.py")
kernel_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel_ab)


@pytest.fixture
def calls(gmp_kernel, monkeypatch):
    """The LLL calls of LO on an n = 12 instance: a head and its resumed tails."""
    monkeypatch.setattr(lattice, "_kernel", gmp_kernel)
    problem = pipeline.generate_instance(12, 0).instance
    captured = kernel_ab.capture_calls(
        lambda: pipeline.attack(problem, pipeline.SearchConfig(algo="lo", seed=0)))
    assert lattice._kernel is gmp_kernel
    return captured


def test_capture_keeps_every_call_and_its_start(calls):
    assert len(calls) > 1
    assert all(len(args) == 5 for args in calls)
    assert any(args[4] is None for args in calls) and any(args[4] is not None for args in calls)


def test_a_a_run_writes_every_field(gmp_kernel, calls):
    record = kernel_ab.compare_and_time(calls, gmp_kernel.reduce, gmp_kernel.reduce, 3)
    assert record["calls"] == len(calls) and record["rounds"] == 3
    for side in ("base_ms", "change_ms"):
        ms = record[side]
        assert 0 < ms["q1"] <= ms["median"] <= ms["q3"]
    assert record["ratio"] > 0 and 0 <= record["wins"] <= 3
    doc = json.loads(json.dumps(kernel_ab.report({"commit": "a"}, {"commit": "b"}, 1,
                                                 {"lattice_scan": record})))
    assert set(doc) == {"base", "change", "nproc", "python", "workloads"}
    assert doc["workloads"]["lattice_scan"] == record


def test_unequal_values_stop_the_run(gmp_kernel, calls):
    with pytest.raises(SystemExit, match="different values on call 0"):
        kernel_ab.compare_and_time(calls, gmp_kernel.reduce, lambda *args: None, 3)
