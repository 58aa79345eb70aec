"""benchmarks/op_ab.py, the in-process A/B of whole ops: a copy of the working
tree's package, with its built extension, imported under another name and run
A/A against the package itself on a few ops, so that no second build is made."""

import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from knapcrack import lattice

spec = importlib.util.spec_from_file_location(
    "op_ab", Path(__file__).resolve().parent.parent / "benchmarks" / "op_ab.py")
op_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(op_ab)

TWIN = "knapcrack_twin"


@pytest.fixture
def twin(gmp_kernel, tmp_path):
    """The working tree's package, copied with its binary and imported as TWIN."""
    shutil.copytree(Path(lattice.__file__).parent, tmp_path / "knapcrack",
                    ignore=shutil.ignore_patterns("__pycache__"))
    yield op_ab.load_package(tmp_path / "knapcrack", TWIN)
    for name in [n for n in sys.modules if n.split(".")[0] == TWIN]:
        del sys.modules[name]


@pytest.fixture
def scan():
    """perfbench's lattice_scan workload, cut to four of its ops."""
    workload = op_ab.kernel_ab.workloads()["lattice_scan"]
    return replace(workload, build=lambda kc: workload.build(kc)[::35])


def test_the_copy_runs_its_own_modules_and_build(twin):
    own = sys.modules[f"{TWIN}.lattice"]
    assert twin.pipeline.__name__ == f"{TWIN}.pipeline"
    assert own is not lattice and own.kernel_name() == "gmp"
    assert Path(own.__file__).parent != Path(lattice.__file__).parent


def test_a_a_run_writes_every_field(twin, scan):
    record = op_ab.compare_and_time(scan, twin, op_ab.kernel_ab.modules("knapcrack"), 3)
    assert record["ops"] == 4 and record["rounds"] == 3
    for side in ("base_ms", "change_ms"):
        ms = record[side]
        assert 0 < ms["q1"] <= ms["median"] <= ms["q3"]
    assert record["ratio"] > 0 and 0 <= record["wins"] <= 3
    assert json.loads(json.dumps(record)) == record


def test_unequal_outcomes_stop_the_run(twin, scan):
    # The check's record names the side, so the two sides' records differ.
    differ = replace(scan, check=lambda kc, item, outcome: ({"twin": kc is twin}, False))
    with pytest.raises(SystemExit, match=r"outcomes differ on op 0 \(m1-n20-lo-s0\)"):
        op_ab.compare_and_time(differ, twin, op_ab.kernel_ab.modules("knapcrack"), 3)


def git_in(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=ab", "-c", "user.email=ab@ab",
                           *args], check=True, capture_output=True, text=True).stdout.strip()


def test_the_change_is_the_working_tree_before_and_after_its_commit(tmp_path, monkeypatch):
    # A git repository of its own, set as the scripts' root, with a package
    # of one module, edited and then committed.
    module = tmp_path / op_ab.PACKAGE / "lattice.py"
    module.parent.mkdir(parents=True)
    module.write_text("BASE = 1\n")
    git_in(tmp_path, "init", "-q")
    git_in(tmp_path, "add", "-A")
    git_in(tmp_path, "commit", "-qm", "base")
    monkeypatch.setattr(op_ab.kernel_ab, "ROOT", tmp_path)
    parent = git_in(tmp_path, "rev-parse", "HEAD")
    module.write_text("BASE = 2\n")
    assert op_ab.sides("HEAD") == ({"commit": parent},
                                   {"working_tree_on": parent, "src_committed": False})
    git_in(tmp_path, "commit", "-qam", "change")
    base, change = op_ab.sides(parent)
    assert base == {"commit": parent}
    assert change == {"working_tree_on": git_in(tmp_path, "rev-parse", "HEAD"),
                      "src_committed": True}
