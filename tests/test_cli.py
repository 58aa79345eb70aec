"""End-to-end CLI behavior: flags, formats, exit codes."""

import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import knapcrack
from knapcrack.cli import main
from knapcrack.disagg import DisaggParams
from knapcrack.formulations import BINARY, AttackVerdict
from knapcrack.pipeline import (SearchConfig, augment, generate_instance, generate_system,
                                run_algorithm)
from knapcrack.problems import LdeSystem, load_system, save_system

# (t, kernel_dim, volume, cut, success) per row.
GRID = Path(__file__).resolve().parent.parent / "benchmarks" / "grids" / "desk_small.grid"

# `bench --grid benchmarks/grids/desk_small.grid --no-timing`, serial.
GOLDEN_DESK_CSV = """\
m,n,algo,dag,M,t_max,count,successes,success_ratio,avg_valid_t,avg_ms,seed0
1,16,reduce,0,1000,200,20,8,0.4000,,0.000,0
1,16,reduce_half,0,1000,200,20,14,0.7000,,0.000,0
1,16,cjloss,0,1000,200,20,20,1.0000,,0.000,0
1,16,lo,0,1000,200,20,13,0.6500,,0.000,0
1,16,ahl,0,1000,200,20,8,0.4000,,0.000,0
1,20,reduce,0,10000,200,20,3,0.1500,,0.000,0
1,20,reduce_half,0,10000,200,20,9,0.4500,,0.000,0
1,20,cjloss,0,10000,200,20,18,0.9000,,0.000,0
1,16,reduce_half,1,1000,200,10,10,1.0000,50.667,0.000,0
1,20,reduce_half,1,10000,200,10,10,1.0000,8.143,0.000,0
2,30,reduce_half,0,10000,200,5,5,1.0000,,0.000,0
2,30,cjloss,0,10000,200,5,5,1.0000,,0.000,0
"""

GOLDEN_T_RANGE = [
    ("1", "31", "8.455426608079231e+19", "0", "1"),
    ("2", "31", "8.432473586967454e+19", "0", "1"),
    ("3", "31", "8.410438042610346e+19", "0", "1"),
    ("4", "31", "8.400939398100052e+19", "0", "1"),
    ("5", "31", "8.379384771206155e+19", "0", "1"),
    ("6", "31", "8.393113169019938e+19", "0", "1"),
    ("7", "31", "8.443138678050793e+19", "0", "1"),
    ("8", "31", "8.468425810817181e+19", "0", "1"),
]


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.txt"
    save_system(LdeSystem.from_rows([[3, 15, 6]], [9]), path)
    return str(path)


@pytest.fixture
def ex3_file(tmp_path):
    path = tmp_path / "ex3.txt"
    save_system(LdeSystem.from_rows(
        [[63, 9, 34, 46, 2, 55], [51, 19, 12, 44, 3, 25]], [99, 66]), path)
    return str(path)


class TestGen:
    def test_writes_files_and_manifest(self, tmp_path):
        out = tmp_path / "d"
        assert main(["gen", "--m", "1", "--n", "16", "--count", "5",
                     "--seed", "7", "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [f"inst_1_16_{i}.txt" for i in range(5)] + ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest) == 5
        assert all(0.99 < d < 1.01 for e in manifest for d in e["densities"])

    def test_rerun_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["gen", "--m", "1", "--n", "12", "--count", "3",
                  "--seed", "5", "--out", str(out)])
        for name in ("inst_1_12_0.txt", "inst_1_12_2.txt", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_two_row_manifest_lists_two_densities(self, tmp_path):
        out = tmp_path / "d"
        assert main(["gen", "--m", "2", "--n", "12", "--count", "2",
                     "--seed", "3", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for idx, entry in enumerate(manifest):
            gen = generate_system(2, 12, 3 + idx)
            assert entry["file"] == f"inst_2_12_{idx}.txt"
            assert entry["densities"] == list(gen.densities) and len(gen.densities) == 2
            assert load_system(out / entry["file"]) == gen.system

    def test_odd_n_rejected(self, tmp_path, capsys):
        assert main(["gen", "--m", "1", "--n", "15", "--count", "1",
                     "--seed", "0", "--out", str(tmp_path / "x")]) == 2
        assert "even" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, count):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--n", "8", "--count", count, "--out", str(out)])
        assert exc.value.code == 2
        assert "error: argument --count: must be at least 1" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestAttack:
    def test_reduce_half_solves_toy(self, toy_file, capsys):
        assert main(["attack", "--algo", "reduce-half", "--input", toy_file]) == 0
        out = capsys.readouterr().out
        assert "solution: 101" in out

    def test_attack_starts_without_numpy(self, toy_file):
        # Only analyze needs numpy (through analysis); a fresh interpreter shows
        # what the other commands import.
        argv = ["attack", "--algo", "reduce-half", "--input", toy_file]
        code = ("import sys\n"
                "from knapcrack import cli\n"
                f"assert cli.main({argv!r}) == 0\n"
                "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
        src = str(Path(knapcrack.__file__).parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert "solution: 101" in run.stdout

    def test_dag_on_worked_system(self, ex3_file):
        assert main(["attack", "--algo", "reduce", "--dag", "--modulus", "63",
                     "--t-max", "63", "--input", ex3_file]) == 0

    def test_dag_on_invalid_rhs_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "neg.txt"
        save_system(LdeSystem.from_rows([[3, 15, 6]], [-9]), path)
        assert main(["attack", "--algo", "reduce-half", "--input", str(path),
                     "--dag", "--modulus", "15"]) == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_lo_with_dag_is_usage_error(self, toy_file, capsys):
        # Rejected before the base attack, which would solve the toy.
        assert main(["attack", "--algo", "lo", "--dag", "--modulus", "15",
                     "--input", toy_file]) == 2
        captured = capsys.readouterr()
        assert "single equations" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flags, message", [
        (["--algo", "reduce", "--dag", "--t-max", "0"], "0 < t_max < M"),
        (["--algo", "reduce", "--dag", "--modulus", "1"], "0 < t_max < M"),
        (["--algo", "reduce", "--alpha", "1/1"], "alpha must lie in (1/4, 1)"),
        (["--algo", "reduce", "--alpha", "1/5"], "alpha must lie in (1/4, 1)"),
        (["--algo", "reduce", "--bign", "0"], "N must be positive"),
    ], ids=["t-max-0", "modulus-1", "alpha-1", "alpha-1/5", "bign-0"])
    def test_invalid_config_is_usage_error(self, toy_file, capsys, flags, message):
        assert main(["attack", "--input", toy_file, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags", [
        ["--algo", "reduce", "--dag", "--modulus", "0"],
        ["--algo", "reduce-half", "--modulus", "0"],
        ["--algo", "reduce-half", "--modulus", "-5"],
    ], ids=["dag-modulus-0", "modulus-0", "modulus-minus-5"])
    def test_modulus_below_two_is_usage_error(self, toy_file, capsys, flags):
        # 0 used to read as "unset" and fall back to the default M.
        assert main(["attack", "--input", toy_file, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --modulus must be at least 2")
        assert captured.out == ""

    def test_unsolved_exit_one(self, toy_file):
        assert main(["attack", "--algo", "reduce", "--input", toy_file]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["attack", "--algo", "lo",
                     "--input", str(tmp_path / "nope.txt")]) == 4

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 3\n3 15 oops\n9\n")
        assert main(["attack", "--algo", "lo", "--input", str(bad)]) == 4

    def test_json_round_trip(self, toy_file, capsys):
        assert main(["attack", "--algo", "cjloss", "--json",
                     "--input", toy_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"verdict", "dag_used", "t_found", "wall_time"}
        assert payload["verdict"]["status"] == "binary"
        assert payload["verdict"]["x"] == [1, 0, 1]

    @pytest.mark.parametrize("row", ["3", "1", "-1"])
    def test_dag_row_outside_system_is_usage_error(self, toy_file, capsys, row):
        # Rejected before the base attack, which leaves the toy unsolved.
        assert main(["attack", "--algo", "reduce", "--dag", "--row", row,
                     "--input", toy_file]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: row {row} outside 0..0\n"
        assert captured.out == ""

    def test_row_without_dag_is_usage_error(self, toy_file, capsys):
        # Only the DAG search disaggregates a row; the plain attack would solve the toy.
        assert main(["attack", "--algo", "reduce-half", "--row", "0",
                     "--input", toy_file]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --row") and "--dag" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags", [["--modulus", "15"], ["--t-max", "3"]],
                             ids=["modulus", "t-max"])
    def test_dag_flag_without_dag_is_usage_error(self, toy_file, capsys, flags):
        # The plain attack reads neither flag; it would solve the toy.
        assert main(["attack", "--algo", "reduce-half", *flags, "--input", toy_file]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flags[0]}") and "--dag" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("algo", ["lo"])
    def test_used_complement_reports_the_normalization(self, tmp_path, capsys, algo):
        # b = 15 > sum(a)/2: the attack runs on the complement (b = 9), and its
        # solution 101 maps back to 010.
        path = tmp_path / "toy15.txt"
        save_system(LdeSystem.from_rows([[3, 15, 6]], [15]), path)
        assert main(["attack", "--algo", algo, "--json", "--input", str(path)]) == 0
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert verdict["x"] == [0, 1, 0]
        assert verdict["meta"]["used_complement"] is True

    def test_verdict_failing_substitution_is_a_bug(self, toy_file, monkeypatch):
        # A binary verdict that does not solve the problem raises, not exit 2.
        import knapcrack.pipeline as pl

        def run_algorithm(sys, config):
            return AttackVerdict(BINARY, (1, 1, 0), {"algorithm": config.algo})

        monkeypatch.setattr(pl, "run_algorithm", run_algorithm)
        with pytest.raises(AssertionError, match="does not satisfy"):
            main(["attack", "--algo", "reduce-half", "--input", toy_file])

    def test_exhausted_search_reports_best_witness(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(["gen", "--n", "16", "--seed", "1", "--out", str(out)]) == 0
        path = out / "inst_1_16_0.txt"
        capsys.readouterr()
        assert main(["attack", "--algo", "reduce", "--dag", "--modulus", "1000",
                     "--t-max", "3", "--json", "--input", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["dag_used"] is True and payload["t_found"] is None
        verdict = payload["verdict"]
        assert verdict["status"] == "short_nonbinary"
        assert any(v not in (0, 1) for v in verdict["x"])
        assert load_system(path).is_solution(verdict["x"])

    def test_ahl_failure_exit_one(self, tmp_path, capsys):
        # 2x + 4y + 6z = 3 has no integer solution at all.
        path = tmp_path / "odd.txt"
        path.write_text("1 3\n2 4 6\n3\n")
        assert main(["attack", "--algo", "ahl", "--input", str(path)]) == 1
        assert "status: failure" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["lo", "ahl"])
    def test_bign_without_a_reader_is_usage_error(self, toy_file, capsys, algo):
        # Neither attack scales by N; the flag used to be dropped silently.
        assert main(["attack", "--algo", algo, "--bign", "0", "--input", toy_file]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: --bign is read only by reduce, reduce-half and "
                                f"cjloss; --algo {algo} ignores it\n")
        assert captured.out == ""

    def test_input_directory_is_io_error(self, tmp_path, capsys):
        assert main(["attack", "--algo", "reduce", "--input", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_alpha_must_be_rational_flag(self, toy_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--algo", "lo", "--alpha", "0.99",
                  "--input", toy_file])
        assert exc.value.code == 2


class TestJumps:
    def test_toy_row_count_and_ideal_flags(self, toy_file, capsys):
        assert main(["jumps", "--input", toy_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 23
        for line in lines:
            fields = line.split("\t")
            uk = int(fields[2].split("=")[1])
            ideal = fields[4].split("=")[1] == "True"
            assert ideal == (uk == 0)

    def test_limit(self, toy_file, capsys):
        assert main(["jumps", "--input", toy_file, "--limit", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        values = [Fraction(line.split("\t")[0]) for line in lines]
        assert values == sorted(values)
        assert values[0] == Fraction(1, 15)

    def test_cap_exceeded_without_limit(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        save_system(generate_instance(20, 0).instance, big)
        assert main(["jumps", "--input", str(big)]) == 5
        assert "--limit" in capsys.readouterr().err
        assert main(["jumps", "--input", str(big), "--limit", "3"]) == 0

    def test_multi_row_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "sys2.txt"
        save_system(generate_system(2, 30, 0).system, path)
        assert main(["jumps", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: jumps takes a single-equation file, got 2 equations\n"
        assert captured.out == ""

    @pytest.mark.parametrize("rhs, message", [(-1, "nonnegative"), (25, "exceeds")],
                             ids=["negative-b", "b-above-sum"])
    @pytest.mark.parametrize("limit", [[], ["--limit", "2"]], ids=["all", "limit"])
    def test_row_not_disaggregable_is_usage_error(self, tmp_path, capsys, rhs, message,
                                                  limit):
        path = tmp_path / "bad.txt"
        save_system(LdeSystem.from_rows([[3, 15, 6]], [rhs]), path)
        assert main(["jumps", "--input", str(path), *limit]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_limit_below_one_is_usage_error(self, toy_file, capsys, limit):
        with pytest.raises(SystemExit) as exc:
            main(["jumps", "--input", toy_file, "--limit", limit])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "error: argument --limit: must be at least 1" in captured.err
        assert captured.out == ""


class TestBench:
    def test_grid_to_csv(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("# cell layout: m n algo dag M t_max count seed\n"
                        "1 8 reduce-half 0 100 10 3 42\n"
                        "1 8 cjloss 1 100 10 3 42\n")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--grid", str(grid), "--out", str(out),
                     "--no-timing"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("m,n,algo,dag")
        assert len(lines) == 3

    def test_rerun_identical_bytes(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("1 8 reduce 0 100 10 2 1\n")
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            main(["bench", "--grid", str(grid), "--out", str(path), "--no-timing"])
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_failing_job_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        import knapcrack.pipeline as pl
        from knapcrack.errors import EscalationExhausted

        def attack(problem, config):
            raise EscalationExhausted("no zero block")

        grid = tmp_path / "grid.txt"
        grid.write_text("1 8 reduce 0 100 10 2 1\n")
        out = tmp_path / "bench.csv"
        monkeypatch.delenv("KNAPCRACK_THREADS", raising=False)
        monkeypatch.setattr(pl, "attack", attack)
        assert main(["bench", "--grid", str(grid), "--out", str(out),
                     "--no-timing"]) == 1
        assert out.read_text().splitlines()[1].startswith("1,8,reduce,0,100,10,2,0,")
        err = capsys.readouterr().err
        assert "seed=1 " in err and "seed=2 " in err and "EscalationExhausted" in err

    @pytest.mark.parametrize("line", ["1 20 lo 1 1000 5 2 0", "2 8 lo 0 1000 5 1 0"],
                             ids=["dag", "two-rows"])
    def test_lo_cell_is_parse_error(self, tmp_path, capsys, line):
        grid = tmp_path / "grid.txt"
        grid.write_text(f"1 8 reduce 0 100 10 2 1\n{line}\n")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--grid", str(grid), "--out", str(out),
                     "--no-timing"]) == 4
        assert "grid line 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("1 sixteen reduce 0 1000 200 2 0", "'sixteen'"),
        ("1 16 reduce-half 1 100 200 2 0", "0 < t_max < M"),
        ("1 15 reduce 1 1000 5 1 0", "n must be even and >= 4, got 15"),
        ("4 4 reduce 0 1000 5 1 0", "need 1 <= m < n, got m=4, n=4"),
        ("1 16 reduce 1 1000 5 -2 0", "count must be at least 1, got -2"),
        ("1 16 reduce yes 1000 5 1 0", "'yes'"),
        ("1 16 bogus 0 1000 5 1 0", "unknown algorithm 'bogus'"),
        ("1 20 lo 1 1000 5 2 0", "lo handles single equations only; the DAG search "
                                 "augments every system to two or more"),
    ], ids=["non-integer", "dag-t-max", "odd-n", "m-not-below-n", "count-below-one",
            "dag-field", "unknown-algo", "lo-dag"])
    def test_bad_grid_line_is_parse_error(self, tmp_path, capsys, line, message):
        grid = tmp_path / "grid.txt"
        grid.write_text(f"1 8 reduce 0 100 10 2 1\n{line}\n")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--grid", str(grid), "--out", str(out),
                     "--no-timing"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("parse error: grid line 2: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["abc", "-3"])
    def test_bad_thread_count_is_usage_error(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("KNAPCRACK_THREADS", threads)
        grid = tmp_path / "grid.txt"
        grid.write_text("1 8 reduce 0 100 10 2 1\n")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--grid", str(grid), "--out", str(out), "--no-timing"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: KNAPCRACK_THREADS must be a whole number >= 0 (0 = all cores), "
            f"got {threads!r}")
        assert not out.exists()

    def test_desk_grid_golden(self, tmp_path, monkeypatch):
        # The verdict gate of every speed change: the desk grid, byte for byte.
        monkeypatch.delenv("KNAPCRACK_THREADS", raising=False)
        out = tmp_path / "desk.csv"
        assert main(["bench", "--grid", str(GRID), "--out", str(out), "--no-timing"]) == 0
        assert out.read_text() == GOLDEN_DESK_CSV

    def test_missing_grid_exits_like_a_missing_input(self, tmp_path, capsys):
        missing, out = tmp_path / "missing.grid", tmp_path / "bench.csv"
        assert main(["attack", "--algo", "reduce", "--input", str(missing)]) == 4
        attack_err = capsys.readouterr().err
        assert main(["bench", "--grid", str(missing), "--out", str(out)]) == 4
        assert capsys.readouterr().err == attack_err
        assert attack_err.startswith("error: ") and not out.exists()

    def test_bad_grid(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("1 8 reduce 0 100\n")
        assert main(["bench", "--grid", str(grid),
                     "--out", str(tmp_path / "o.csv")]) == 4


class TestAnalyze:
    def test_worked_scenario_volumes(self, ex3_file, tmp_path):
        out = tmp_path / "s53.csv"
        assert main(["analyze", "--input", ex3_file, "--out", str(out),
                     "--apply", "0:1/63,1:22/51",
                     "--apply", "0:3/63,1:36/51",
                     "--apply", "0:3/63,1:49/51"]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        vols = [int(float(line.split(",")[6])) for line in lines[1:]]
        assert vols == [4112, 3621, 4493]
        succ = [line.split(",")[-1] for line in lines[1:]]
        assert succ == ["1", "0", "1"]

    def test_all_jumps_sweep(self, toy_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["analyze", "--input", toy_file, "--out", str(out),
                     "--all-jumps"]) == 0
        assert len(out.read_text().strip().splitlines()) == 24

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_limit_below_one_is_usage_error(self, toy_file, tmp_path, capsys, limit):
        out = tmp_path / "limit.csv"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", toy_file, "--out", str(out),
                  "--all-jumps", "--limit", limit])
        assert exc.value.code == 2
        assert "error: argument --limit: must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_limit_without_all_jumps_is_usage_error(self, toy_file, tmp_path, capsys):
        out = tmp_path / "limit.csv"
        assert main(["analyze", "--input", toy_file, "--out", str(out),
                     "--modulus", "15", "--t-range", "1..3", "--limit", "2"]) == 2
        assert "--all-jumps" in capsys.readouterr().err
        assert not out.exists()

    def test_row_with_apply_is_usage_error(self, toy_file, tmp_path, capsys):
        # Each --apply step names its own row.
        out = tmp_path / "row.csv"
        assert main(["analyze", "--input", toy_file, "--out", str(out),
                     "--apply", "0:1/5", "--row", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: --row")
        assert not out.exists()

    @pytest.mark.parametrize("modes", [
        ["--modulus", "15", "--t-range", "1..5", "--all-jumps"],
        ["--modulus", "15", "--t-range", "1..5", "--apply", "0:1/3"],
        ["--all-jumps", "--apply", "0:1/3"],
    ], ids=["t-range-all-jumps", "t-range-apply", "all-jumps-apply"])
    def test_scenario_modes_are_exclusive(self, toy_file, tmp_path, capsys, modes):
        out = tmp_path / "modes.csv"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", toy_file, "--out", str(out), *modes])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_chain_on_dropped_row_is_skipped(self, toy_file, tmp_path, capsys):
        # 1/3 of 3x1 + 15x2 + 6x3 = 9 derives a third of the row itself, which is
        # dropped as dependent, so row 1 does not exist.  In the second chain
        # step 1's row is kept, and row 1 must not be read as that row.
        out = tmp_path / "chain.csv"
        assert main(["analyze", "--input", toy_file, "--out", str(out),
                     "--apply", "0:1/3,1:1/2", "--apply", "0:1/3,0:1/5,1:1/7",
                     "--apply", "0:1/5"]) == 0
        assert capsys.readouterr().err == (
            "skipped 1/2: row 1 was dropped: it depends on the rows before it\n"
            "skipped 1/7: row 1 was dropped: it depends on the rows before it\n")
        with open(out, newline="") as fh:
            assert [(r["t"], r["M"]) for r in csv.DictReader(fh)] == [("1", "5")]

    def test_dependent_derived_row_keeps_the_base_kernel(self, toy_file, tmp_path, capsys):
        # At M = 3 both t derive a multiple of the toy's row.  The DAG search
        # does not attack such a t again; analyze writes its row, on the base kernel.
        out = tmp_path / "dependent.csv"
        assert main(["analyze", "--input", toy_file, "--out", str(out),
                     "--modulus", "3", "--t-range", "1..2"]) == 0
        assert capsys.readouterr().err == ""
        with open(out, newline="") as fh:
            rows = [(r["t"], r["m"], r["kernel_dim"]) for r in csv.DictReader(fh)]
        assert rows == [("1", "1", "2"), ("2", "1", "2")]

    @pytest.mark.parametrize("mode", [["--all-jumps"], ["--apply", "0:1/5"]],
                             ids=["all-jumps", "apply"])
    def test_modulus_without_t_range_is_usage_error(self, toy_file, tmp_path, capsys, mode):
        # Only --t-range reads --modulus.
        out = tmp_path / "modulus.csv"
        assert main(["analyze", "--input", toy_file, "--out", str(out),
                     "--modulus", "15", *mode]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --modulus") and "--t-range" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--t-range", "1..3"], "--t-range with --modulus"),
        (["--modulus", "15", "--t-range", "1..3", "--row", "2"], "--row 2 outside 0..1"),
        (["--modulus", "15", "--t-range", "9..3"], "--t-range 9..3 holds no t"),
        (["--modulus", "15", "--t-range", "20..30"], "--t-range 20..30 holds no t"),
        (["--modulus", "15", "--t-range", "1-3"], "--t-range expects A..B, got '1-3'"),
        (["--modulus", "15", "--t-range", "3.."], "--t-range expects A..B, got '3..'"),
        (["--apply", "0-1/3"], "--apply expects ROW:T/M[,ROW:T/M...], got '0-1/3'"),
    ], ids=["t-range-without-modulus", "row-out-of-range", "empty-t-range",
            "t-range-beyond-modulus", "t-range-dash", "t-range-open", "apply-dash"])
    def test_bad_scenarios_exit_before_the_baseline_attack(self, tmp_path, capsys,
                                                           monkeypatch, flags, message):
        from knapcrack import pipeline
        calls = []
        monkeypatch.setattr(pipeline, "attack", lambda *a, **kw: calls.append(1))
        path = tmp_path / "sys.txt"
        save_system(generate_system(2, 40, 0).system, path)
        out = tmp_path / "bad.csv"
        assert main(["analyze", "--input", str(path), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert calls == []
        assert not out.exists()

    def test_all_jumps_limit(self, toy_file, tmp_path):
        out = tmp_path / "first.csv"
        assert main(["analyze", "--input", toy_file, "--out", str(out),
                     "--all-jumps", "--limit", "3"]) == 0
        with open(out, newline="") as fh:
            assert [(r["t"], r["M"]) for r in csv.DictReader(fh)] == [
                ("1", "15"), ("1", "9"), ("2", "15")]

    def test_decomposes_each_scenario_once(self, ex3_file, tmp_path, monkeypatch):
        from knapcrack import cli, formulations
        calls = []
        real = formulations.decompose

        def counting(*a, **kw):
            calls.append(1)
            return real(*a, **kw)

        monkeypatch.setattr(formulations, "decompose", counting)
        monkeypatch.setattr(cli, "decompose", counting)
        out = tmp_path / "once.csv"
        assert main(["analyze", "--input", ex3_file, "--out", str(out),
                     "--modulus", "63", "--t-range", "1..4"]) == 0
        rows = len(out.read_text().strip().splitlines()) - 1
        assert rows == 4
        # One for the baseline attack, then one per scenario.
        assert len(calls) == 1 + rows

    @pytest.mark.parametrize("algo", ["cjloss", "ahl"])
    def test_scan_attack_labels_success(self, ex3_file, tmp_path, algo):
        # The label is the scan attack's verdict on each augmented system,
        # binary on the first n coordinates.
        out = tmp_path / f"{algo}.csv"
        assert main(["analyze", "--input", ex3_file, "--out", str(out), "--algo", algo,
                     "--modulus", "63", "--t-range", "1..4"]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        system, want = load_system(ex3_file), []
        for t in range(1, 5):
            aug, _ = augment(system, [(0, DisaggParams(t, 63))])
            x = run_algorithm(aug, SearchConfig(algo=algo)).x
            want.append(str(int(x is not None and all(v in (0, 1) for v in x[:6]))))
        assert [(r["t"], r["success"]) for r in rows] == list(zip("1234", want))

    def test_escalation_skips_one_scenario(self, ex3_file, tmp_path, capsys, monkeypatch):
        from knapcrack import cli
        from knapcrack.errors import EscalationExhausted
        calls, real = [], cli.decompose

        def decompose(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:  # the second scenario, t = 2
                raise EscalationExhausted("zero block absent")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "decompose", decompose)
        out = tmp_path / "skip.csv"
        assert main(["analyze", "--input", ex3_file, "--out", str(out),
                     "--modulus", "63", "--t-range", "1..3"]) == 0
        assert "skipped 2/63: zero block absent" in capsys.readouterr().err
        with open(out, newline="") as fh:
            assert [r["t"] for r in csv.DictReader(fh)] == ["1", "3"]

    @pytest.mark.parametrize("spec", ["0:5/3", "7:1/3"])
    def test_invalid_apply_is_usage_error(self, toy_file, tmp_path, capsys, spec):
        out = tmp_path / "bad.csv"
        assert main(["analyze", "--input", toy_file, "--out", str(out),
                     "--apply", spec]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_square_augmentation_is_skipped(self, tmp_path, capsys):
        # Every jump point of 3x1 + 5x2 = 5 is ideal, so each augmentation
        # of this 1x2 system has as many equations as unknowns.
        path = tmp_path / "square.txt"
        save_system(LdeSystem.from_rows([[3, 5]], [5]), path)
        out = tmp_path / "square.csv"
        assert main(["analyze", "--input", str(path), "--out", str(out),
                     "--all-jumps"]) == 0
        assert len(out.read_text().strip().splitlines()) == 1
        skipped = capsys.readouterr().err.strip().splitlines()
        assert skipped == [f"skipped {r}: an ideal t leaves a square system"
                           for r in ("1/5", "1/3", "2/5", "3/5", "2/3", "4/5")]

    def test_lo_is_usage_error(self, toy_file, tmp_path, capsys):
        # Every augmented system has two or more equations, which lo cannot take.
        out = tmp_path / "lo.csv"
        assert main(["analyze", "--input", toy_file, "--out", str(out),
                     "--modulus", "15", "--t-range", "1..3", "--algo", "lo"]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("modulus", ["0", "-5", "1"])
    def test_modulus_below_two_is_usage_error(self, toy_file, tmp_path, capsys, modulus):
        out = tmp_path / "m.csv"
        assert main(["analyze", "--input", toy_file, "--out", str(out),
                     "--modulus", modulus, "--t-range", "1..3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --modulus must be at least 2")
        assert captured.out == ""
        assert not out.exists()

    def test_golden_t_range(self, tmp_path):
        # Exact-derived columns of `analyze --modulus 10000 --t-range 1..8` on
        # generate_system(2, 30, 0): a verdict gate for speed changes.
        path = tmp_path / "sys.txt"
        save_system(generate_system(2, 30, 0).system, path)
        out = tmp_path / "golden.csv"
        assert main(["analyze", "--input", str(path), "--out", str(out),
                     "--modulus", "10000", "--t-range", "1..8"]) == 0
        with open(out, newline="") as fh:
            rows = [(r["t"], r["kernel_dim"], r["volume"], r["cut"], r["success"])
                    for r in csv.DictReader(fh)]
        assert rows == GOLDEN_T_RANGE

    @pytest.mark.parametrize("rows, rhs", [([[3, 15, 6, 2]], [-1]),
                                           ([[3, 15, 6, 2]], [27]),
                                           ([[3, 5, 7, 2], [2, 4, 1, 6]], [8, 14])],
                             ids=["negative-b", "b-above-sum", "second-row"])
    def test_invalid_base_row_is_usage_error(self, tmp_path, capsys, rows, rhs):
        path = tmp_path / "bad.txt"
        save_system(LdeSystem.from_rows(rows, rhs), path)
        out = tmp_path / "bad.csv"
        assert main(["analyze", "--input", str(path), "--out", str(out),
                     "--modulus", "15", "--t-range", "1..3",
                     "--row", str(len(rows) - 1)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestExitPath:
    """What main's one table makes of an error: its code and stderr line, or a traceback."""

    @pytest.mark.parametrize("command", ["attack", "jumps", "analyze", "bench"])
    def test_non_utf8_input_is_parse_error(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.txt"
        if command == "bench":
            path.write_bytes(b"1 8 reduce 0 100 10 1 1\n# \xff\n")
        else:
            path.write_bytes(b"1 3\n3 15 6\n9 \xff\n")
        out = tmp_path / "out.csv"
        argv = {"attack": ["attack", "--algo", "reduce", "--input", str(path)],
                "jumps": ["jumps", "--input", str(path)],
                "analyze": ["analyze", "--input", str(path), "--out", str(out), "--all-jumps"],
                "bench": ["bench", "--grid", str(path), "--out", str(out)]}[command]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("parse error: not UTF-8 text: ")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["gen", "bench", "analyze"])
    def test_unwritable_output_is_io_error(self, toy_file, tmp_path, capsys, command):
        # A missing input exits 4; an output that cannot be written exits 3,
        # a missing directory included.  gen makes missing directories, so
        # its output sits under a file instead.
        missing = tmp_path / "missing"
        if command == "gen":
            missing.write_text("")
        grid = tmp_path / "grid.txt"
        grid.write_text("1 8 reduce 0 100 10 1 1\n")
        argv = {"gen": ["gen", "--n", "8", "--out", str(missing / "d")],
                "bench": ["bench", "--grid", str(grid), "--out", str(missing / "b.csv"),
                          "--no-timing"],
                "analyze": ["analyze", "--input", toy_file, "--out", str(missing / "a.csv"),
                            "--all-jumps", "--limit", "2"]}[command]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(missing) in captured.err
        assert captured.out == ""

    def test_library_bug_is_a_traceback(self, toy_file, tmp_path, monkeypatch):
        # numpy's LinAlgError is a ValueError, but not a usage error.
        import numpy

        from knapcrack import analysis

        def compute_features(*args, **kwargs):
            raise numpy.linalg.LinAlgError("singular")

        monkeypatch.setattr(analysis, "compute_features", compute_features)
        with pytest.raises(numpy.linalg.LinAlgError):
            main(["analyze", "--input", toy_file, "--out", str(tmp_path / "f.csv"),
                  "--all-jumps", "--limit", "2"])
