"""End-to-end CLI behavior: flags, formats, exit codes."""

import csv
import json
from fractions import Fraction

import pytest

from knapcrack.cli import main
from knapcrack.pipeline import generate_system
from knapcrack.problems import LdeSystem, save_system

# (t, kernel_dim, volume, cut, success) per row.
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

    def test_odd_n_rejected(self, tmp_path, capsys):
        assert main(["gen", "--m", "1", "--n", "15", "--count", "1",
                     "--seed", "0", "--out", str(tmp_path / "x")]) == 2
        assert "even" in capsys.readouterr().err


class TestAttack:
    def test_reduce_half_solves_toy(self, toy_file, capsys):
        assert main(["attack", "--algo", "reduce-half", "--input", toy_file]) == 0
        out = capsys.readouterr().out
        assert "solution: 101" in out

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
        from knapcrack.pipeline import generate_instance
        big = tmp_path / "big.txt"
        save_system(generate_instance(20, 0).instance.as_system(), big)
        assert main(["jumps", "--input", str(big)]) == 5
        assert "--limit" in capsys.readouterr().err
        assert main(["jumps", "--input", str(big), "--limit", "3"]) == 0

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
    ], ids=["non-integer", "dag-t-max"])
    def test_bad_grid_line_is_parse_error(self, tmp_path, capsys, line, message):
        grid = tmp_path / "grid.txt"
        grid.write_text(f"1 8 reduce 0 100 10 2 1\n{line}\n")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--grid", str(grid), "--out", str(out),
                     "--no-timing"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("parse error: grid line 2: ") and message in err
        assert not out.exists()

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

    def test_empty_t_range(self, toy_file, tmp_path):
        out = tmp_path / "empty.csv"
        assert main(["analyze", "--input", toy_file, "--out", str(out),
                     "--modulus", "15", "--t-range", "9..8"]) == 0
        assert len(out.read_text().strip().splitlines()) == 1

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
