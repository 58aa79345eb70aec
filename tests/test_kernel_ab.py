"""benchmarks/kernel_ab.py, the in-process A/B of two builds of the C LLL loop:
its capture, its compare-and-time step and its JSON record, run A/A on the
C entries already loaded, so that no second build is made; its groups of
lattice_scan's calls; and its record of both sides, in a git repository of
its own."""

import importlib.util
import json
import subprocess
from dataclasses import replace
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


def test_groups_keep_each_attack_and_shape_apart(gmp_kernel, monkeypatch):
    # One op of each of lattice_scan's seven cells: m = 2 CJLOSS and AHL at
    # n = 30 share their shape, 31 x 32, and stay apart by cell.
    monkeypatch.setattr(lattice, "_kernel", gmp_kernel)
    workload = kernel_ab.workloads()["lattice_scan"]
    cut = replace(workload, build=lambda kc: workload.build(kc)[::20])
    monkeypatch.setattr(kernel_ab, "workloads", lambda: {"lattice_scan": cut})
    calls = kernel_ab.workload_calls("lattice_scan")
    groups = {kernel_ab.group_of(key, args) for key, args in calls}
    assert groups == {"m1-n20-lo 20x21", "m1-n20-lo 21x21 resumed", "m1-n20-cjloss 21x21",
                      "m1-n20-ahl 21x22", "m1-n30-lo 30x31", "m1-n30-lo 31x31 resumed",
                      "m1-n30-cjloss 31x31", "m1-n30-ahl 31x32", "m2-n30-cjloss 31x32"}


def git_in(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=ab", "-c", "user.email=ab@ab",
                           *args], check=True, capture_output=True, text=True).stdout.strip()


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A git repository of one commit that holds a source at kernel_ab.SOURCE,
    set as kernel_ab's root."""
    git_in(tmp_path, "init", "-q")
    source = tmp_path / kernel_ab.SOURCE
    source.parent.mkdir(parents=True)
    source.write_text("int base;\n")
    git_in(tmp_path, "add", "-A")
    git_in(tmp_path, "commit", "-qm", "base")
    monkeypatch.setattr(kernel_ab, "ROOT", tmp_path)
    return tmp_path


def test_the_change_is_the_working_tree_before_and_after_its_commit(repo):
    parent = git_in(repo, "rev-parse", "HEAD")
    (repo / kernel_ab.SOURCE).write_text("int change;\n")
    base, change = kernel_ab.sides("HEAD")
    assert base["commit"] == change["working_tree_on"] == parent and "commit" not in change
    assert base["lll_c"] != change["lll_c"] and not change["lll_c_committed"]
    git_in(repo, "commit", "-qam", "change")
    after_base, after = kernel_ab.sides(parent)
    assert after_base == base and after["working_tree_on"] != parent
    assert after["lll_c"] == change["lll_c"] and after["lll_c_committed"]
