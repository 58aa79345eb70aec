"""benchmarks/ab.py, the in-process A/B of the library at a git revision
against the working tree: run A/A against a copy of the working tree's
package with its built extension, imported under another name, so that no
second build is made; its refusal of a side without the C kernel; its record
of both sides, in a git repository of its own; and its committed run."""

import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from knapcrack import lattice, pipeline

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
spec = importlib.util.spec_from_file_location("ab", BENCHMARKS / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

TWIN = "knapcrack_twin"
SCAN_GROUPS = {"m1-n20-lo 20x21", "m1-n20-lo 21x21 resumed", "m1-n20-cjloss 21x21",
               "m1-n20-ahl 21x22", "m1-n30-lo 30x31", "m1-n30-lo 31x31 resumed",
               "m1-n30-cjloss 31x31", "m1-n30-ahl 31x32", "m2-n30-cjloss 31x32"}


def copy_package(into: Path) -> Path:
    shutil.copytree(Path(lattice.__file__).parent, into / "knapcrack",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return into / "knapcrack"


@pytest.fixture
def drop_copies():
    """Drop the packages the test imports as TWIN or ab.BASE_NAME after it."""
    yield
    for name in [n for n in sys.modules if n.split(".")[0] in (TWIN, ab.BASE_NAME)]:
        del sys.modules[name]


@pytest.fixture
def twin(gmp_kernel, tmp_path, drop_copies):
    """The working tree's package, copied with its binary and imported as TWIN."""
    return ab.load_package(copy_package(tmp_path), TWIN)


@pytest.fixture
def change(gmp_kernel, monkeypatch):
    monkeypatch.setattr(lattice, "_kernel", gmp_kernel)
    return ab.modules("knapcrack")


@pytest.fixture
def scan():
    """perfbench's lattice_scan workload, cut to one op of each of its seven cells."""
    workload = ab.workloads()["lattice_scan"]
    return replace(workload, build=lambda kc: workload.build(kc)[::20])


def test_capture_keeps_every_call_and_its_start(gmp_kernel, monkeypatch):
    # LO on an n = 12 instance: a head and its resumed tails.
    monkeypatch.setattr(lattice, "_kernel", gmp_kernel)
    problem = pipeline.generate_instance(12, 0).instance
    outcome, calls = ab.capture_calls(
        lambda: pipeline.attack(problem, pipeline.SearchConfig(algo="lo", seed=0)))
    assert lattice._kernel is gmp_kernel and isinstance(outcome, pipeline.AttackOutcome)
    assert len(calls) > 1 and all(len(args) == 5 for args in calls)
    assert any(args[4] is None for args in calls) and any(args[4] is not None for args in calls)


def test_the_copy_runs_its_own_modules_and_build(twin):
    assert twin.pipeline.__name__ == f"{TWIN}.pipeline" and twin.lattice is not lattice
    assert Path(twin.lattice.__file__).parent != Path(lattice.__file__).parent
    assert ab.kernels(twin, ab.modules("knapcrack")) == ("gmp", "gmp")


def test_a_side_without_the_c_kernel_stops_the_run_and_writes_nothing(
        gmp_kernel, tmp_path, monkeypatch, drop_copies):
    # BASE's _lll.c does not compile and no binary of it is left beside it.
    broken = copy_package(tmp_path / "src")
    (broken / "_lll.c").write_text("this is not C\n")
    for binary in broken.glob("_lll_*"):
        binary.unlink()
    monkeypatch.setattr(ab, "extract", lambda commit, into: broken)
    monkeypatch.setattr(ab, "pin_one_cpu", lambda: 1)
    monkeypatch.setattr(ab, "OUT", tmp_path / "BENCH_ab.json")
    monkeypatch.setattr(ab, "measure", lambda *args: pytest.fail("a Python side was timed"))
    with pytest.raises(SystemExit, match=r"\('python', 'gmp'\)"):
        ab.main(["HEAD"])
    assert not ab.OUT.exists()


def test_a_a_run_writes_every_field_of_the_ops(twin, change, scan):
    record = ab.measure(scan, twin, change, 3)
    ops = record["ops"]
    assert ops["count"] == 7 and ops["rounds"] == 3 and ops["ratio"] > 0 and 0 <= ops["wins"] <= 3
    for side in ("base_ms", "change_ms"):
        assert 0 < ops[side]["q1"] <= ops[side]["median"] <= ops[side]["q3"]
    assert json.loads(json.dumps(record)) == record


def test_a_a_run_writes_every_field_of_the_lll_calls(twin, change, scan):
    record = ab.measure(scan, twin, change, 3)
    assert record["lll"]["count"] > record["ops"]["count"]
    for timed in (record["lll"], *record["lll"]["groups"].values()):
        assert timed["rounds"] == 3 and timed["ratio"] > 0 and 0 <= timed["wins"] <= 3
        for side in ("base_ms", "change_ms"):
            assert 0 < timed[side]["q1"] <= timed[side]["median"] <= timed[side]["q3"]
    assert sum(g["count"] for g in record["lll"]["groups"].values()) == record["lll"]["count"]


def test_groups_keep_each_attack_and_shape_apart(twin, change, scan):
    # m = 2 CJLOSS and AHL at n = 30 share their shape, 31 x 32, and stay
    # apart by cell.
    _, calls = ab.op_pairs(scan, twin, change)
    assert {ab.group_of(key, args) for key, args in calls} == SCAN_GROUPS


def test_unequal_outcomes_stop_the_run(twin, change, scan):
    # The check's record names the side, so the two sides' records differ.
    differ = replace(scan, check=lambda kc, item, outcome: ({"twin": kc is twin}, False))
    with pytest.raises(SystemExit, match=r"outcomes differ on op 0 \(m1-n20-lo-s0\)"):
        ab.op_pairs(differ, twin, change)


def test_unequal_values_stop_the_run(twin, change, scan):
    _, calls = ab.op_pairs(scan, twin, change)
    with pytest.raises(SystemExit, match="different values on LLL call 0"):
        ab.call_pairs([args for _, args in calls], twin.lattice._native().reduce,
                      lambda *args: None)


def git_in(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=ab", "-c", "user.email=ab@ab",
                           *args], check=True, capture_output=True, text=True).stdout.strip()


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A git repository of its own, set as the script's root, with one
    commit of a package of a Python module and a C source."""
    package = tmp_path / ab.PACKAGE
    package.mkdir(parents=True)
    (package / "lattice.py").write_text("BASE = 1\n")
    (package / "_lll.c").write_text("int base;\n")
    git_in(tmp_path, "init", "-q")
    git_in(tmp_path, "add", "-A")
    git_in(tmp_path, "commit", "-qm", "base")
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    return tmp_path


def test_the_change_is_the_working_tree_before_and_after_its_commit(repo):
    parent = git_in(repo, "rev-parse", "HEAD")
    (repo / ab.PACKAGE / "lattice.py").write_text("BASE = 2\n")
    assert ab.sides("HEAD") == ({"commit": parent},
                                {"working_tree_on": parent, "src_committed": False})
    git_in(repo, "commit", "-qam", "change")
    assert ab.sides(parent) == ({"commit": parent},
                                {"working_tree_on": git_in(repo, "rev-parse", "HEAD"),
                                 "src_committed": True})


def test_an_edit_of_the_c_source_alone_is_an_uncommitted_change(repo):
    parent = git_in(repo, "rev-parse", "HEAD")
    (repo / ab.PACKAGE / "_lll.c").write_text("int change;\n")
    base, change = ab.sides("HEAD")
    assert base == {"commit": parent} and change["working_tree_on"] == parent
    assert not change["src_committed"]
    git_in(repo, "commit", "-qam", "change")
    after_base, after = ab.sides(parent)
    assert after_base == base and after["working_tree_on"] != parent and after["src_committed"]


def test_the_committed_run_has_the_tools_shape():
    doc = json.loads((BENCHMARKS / "BENCH_ab.json").read_text())
    assert set(doc) == {"base", "change", "nproc", "python", "workloads"}
    assert doc["base"]["kernel"] == doc["change"]["kernel"] == "gmp"
    assert "commit" not in doc["change"] and set(doc["workloads"]) == {
        "dag_rescue", "lattice_scan", "kernel_geometry"}
    for record in doc["workloads"].values():
        assert set(record) == {"ops", "lll"} and record["ops"]["rounds"] == ab.ROUNDS
    assert set(doc["workloads"]["lattice_scan"]["lll"]["groups"]) == SCAN_GROUPS
