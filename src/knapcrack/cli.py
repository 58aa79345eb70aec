"""Command-line surface: gen, attack, jumps, bench, analyze.

Exit codes: 0 solved / done, 1 attack did not produce a binary solution
(for bench: some job raised and was counted unsolved), 2 usage error,
3 I/O failure, 4 malformed input file, 5 enumeration cap exceeded.
Rational flags (alpha, t/M ratios) are written P/Q; decimals
are rejected to keep exactness-critical parameters exact.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import analysis, pipeline
from .disagg import (DisaggParams, build_disaggregated, cuts_off,
                     enumerate_jump_points, is_ideal, iter_jump_points, row_coeffs,
                     uk_bound)
from .errors import (EscalationExhausted, InvalidParams, InvalidRow, KnapcrackError,
                     ParseError, RankDeficient, SearchExhausted, SizeLimit)
from .formulations import DEFAULT_N, FAILURE, SHORT_NONBINARY, AttackVerdict, decompose
from .lattice import DEFAULT_ALPHA
from .problems import as_instance, load_system, save_system

EXIT_SOLVED = 0
EXIT_UNSOLVED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_CAP = 5

ALGO_FLAGS = {"reduce": "reduce", "reduce-half": "reduce_half", "lo": "lo",
              "cjloss": "cjloss", "ahl": "ahl"}


def _fraction_flag(text: str) -> Fraction:
    if "/" not in text:
        raise argparse.ArgumentTypeError(f"write rationals as P/Q, got {text!r}")
    num, den = text.split("/", 1)
    try:
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="knapcrack",
                                  description="Lattice attacks with modular disaggregation")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate seeded instances/systems")
    gen.add_argument("--m", type=int, default=1)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    atk = sub.add_parser("attack", help="run one lattice attack on a file")
    atk.add_argument("--algo", choices=sorted(ALGO_FLAGS), required=True)
    atk.add_argument("--input", required=True)
    atk.add_argument("--dag", action="store_true")
    atk.add_argument("--modulus", type=int, default=None)
    atk.add_argument("--t-max", type=int, default=200)
    atk.add_argument("--row", type=int, default=0)
    atk.add_argument("--alpha", type=_fraction_flag, default=DEFAULT_ALPHA)
    atk.add_argument("--bign", type=int, default=DEFAULT_N)
    atk.add_argument("--json", action="store_true")

    jumps = sub.add_parser("jumps", help="list jump points of an instance")
    jumps.add_argument("--input", required=True)
    jumps.add_argument("--limit", type=int, default=None)

    ben = sub.add_parser("bench", help="run a benchmark grid")
    ben.add_argument("--grid", required=True)
    ben.add_argument("--out", required=True)
    ben.add_argument("--no-timing", action="store_true")

    ana = sub.add_parser("analyze", help="kernel features per disaggregation scenario")
    ana.add_argument("--input", required=True)
    ana.add_argument("--out", required=True)
    ana.add_argument("--row", type=int, default=0)
    ana.add_argument("--algo", choices=sorted(ALGO_FLAGS), default="reduce")
    ana.add_argument("--modulus", type=int, default=None)
    ana.add_argument("--t-range", default=None, metavar="A..B")
    ana.add_argument("--all-jumps", action="store_true")
    ana.add_argument("--limit", type=int, default=None)
    ana.add_argument("--apply", action="append", default=[], metavar="ROW:T/M[,ROW:T/M...]",
                     help="one chained scenario per flag occurrence")
    return top


def _as_problem(system):
    """Instance view for single equations when well-shaped, else the system."""
    if system.m == 1:
        try:
            return as_instance(system)
        except ValueError:
            return system
    return system


def cmd_gen(args) -> int:
    try:
        if args.n % 2 or args.n < 4:
            print("error: --n must be even and >= 4", file=sys.stderr)
            return EXIT_USAGE
        if not 1 <= args.m < args.n:
            print("error: need 1 <= m < n", file=sys.stderr)
            return EXIT_USAGE
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        manifest = []
        for idx in range(args.count):
            seed = args.seed + idx
            if args.m == 1:
                gen = pipeline.generate_instance(args.n, seed)
                system = gen.instance.as_system()
                dens = [gen.density]
            else:
                gen = pipeline.generate_system(args.m, args.n, seed)
                system = gen.system
                dens = list(gen.densities)
            name = f"inst_{args.m}_{args.n}_{idx}.txt"
            save_system(system, out / name)
            manifest.append({
                "file": name, "m": args.m, "n": args.n, "seed": seed,
                "densities": dens,
                "planted": "".join(str(v) for v in gen.planted),
                "b": list(system.b),
            })
        with open(out / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.count} files + manifest to {args.out}")
    return EXIT_SOLVED


def _load_or_exit(path: str):
    """Load a system file; returns (system, None) or (None, exit_code)."""
    try:
        return load_system(path), None
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None, EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_IO


def cmd_attack(args) -> int:
    system, err = _load_or_exit(args.input)
    if err is not None:
        return err
    algo = ALGO_FLAGS[args.algo]
    modulus = args.modulus if args.modulus else pipeline.default_modulus(system.n)
    config = pipeline.SearchConfig(algo=algo, use_dag=args.dag, M=modulus,
                                   t_max=min(args.t_max, modulus - 1),
                                   alpha=args.alpha, N=args.bign,
                                   row_index=args.row)
    problem = _as_problem(system)
    t0 = time.perf_counter()
    try:
        if args.dag:
            outcome = pipeline.attack_with_dag(problem, config)
        else:
            outcome = pipeline.attack(problem, config)
    except SearchExhausted as exc:
        best = exc.best
        outcome = pipeline.AttackOutcome(
            verdict=best if best is not None
            else AttackVerdict(FAILURE, meta={"algorithm": algo}),
            dag_used=True, wall_time=time.perf_counter() - t0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EscalationExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSOLVED
    if args.json:
        print(json.dumps(outcome.to_dict(), sort_keys=True))
    else:
        v = outcome.verdict
        print(f"status: {v.status}")
        if v.x is not None:
            if all(i in (0, 1) for i in v.x):
                print("solution: " + "".join(str(i) for i in v.x))
            else:
                print("solution: " + " ".join(str(i) for i in v.x))
        if outcome.t_found is not None:
            print(f"t_found: {outcome.t_found}")
        print(f"wall_time_ms: {outcome.wall_time * 1000:.3f}")
    return EXIT_SOLVED if outcome.solved else EXIT_UNSOLVED


def cmd_jumps(args) -> int:
    system, err = _load_or_exit(args.input)
    if err is not None:
        return err
    problem = (list(system.A[0]), system.b[0])
    if args.limit is not None:
        points = []
        for jp in iter_jump_points(problem):
            points.append(jp)
            if len(points) >= args.limit:
                break
    else:
        try:
            points = enumerate_jump_points(problem)
        except SizeLimit as exc:
            print(f"error: {exc} (use --limit)", file=sys.stderr)
            return EXIT_CAP
    for jp in points:
        r = jp.value
        uk = uk_bound(problem, r)
        ideal = is_ideal(problem, DisaggParams(r.numerator, r.denominator))
        srcs = ",".join(sorted(jp.sources))
        print(f"{r}\t{srcs}\tu_k={uk}\tn_k={uk.bit_length()}\tideal={ideal}")
    return EXIT_SOLVED


def _parse_grid(path: str) -> list[pipeline.BenchCell]:
    cells = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            if len(toks) != 8:
                raise ParseError(f"grid line {lineno}: expected 8 fields, got {len(toks)}")
            m, n = int(toks[0]), int(toks[1])
            algo = ALGO_FLAGS.get(toks[2], toks[2])
            if algo not in pipeline.ALGORITHMS:
                raise ParseError(f"grid line {lineno}: unknown algorithm {toks[2]!r}")
            dag = toks[3] in ("1", "true", "True")
            if algo == "lo" and (dag or m != 1):
                raise ParseError(f"grid line {lineno}: lo handles single equations "
                                 "only, without DAG")
            cells.append(pipeline.BenchCell(
                m=m, n=n, algo=algo, dag=dag, M=int(toks[4]),
                t_max=int(toks[5]), count=int(toks[6]), seed=int(toks[7])))
    return cells


def cmd_bench(args) -> int:
    try:
        cells = _parse_grid(args.grid)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    rows = pipeline.bench(cells, timing=not args.no_timing)
    text = pipeline.bench_csv(rows, timing=not args.no_timing)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(rows)} rows to {args.out}")
    failures = [(row.cell, seed, message) for row in rows for seed, message in row.errors]
    for c, seed, message in failures:
        print(f"error: cell m={c.m} n={c.n} algo={c.algo} dag={int(c.dag)} M={c.M} "
              f"t_max={c.t_max} seed={seed} counted unsolved: {message}", file=sys.stderr)
    return EXIT_UNSOLVED if failures else EXIT_SOLVED


def _parse_apply(spec: str, m: int) -> list[tuple[int, DisaggParams]]:
    """Steps of one ROW:T/M[,ROW:T/M...] chain over an m-row system.

    Step i may name a row derived by an earlier step, so its row lies in
    0..m+i-1.  Raises InvalidRow or InvalidParams on a bad step.
    """
    steps = []
    for i, part in enumerate(spec.split(",")):
        row, ratio = part.split(":", 1)
        t, modulus = ratio.split("/", 1)
        row = int(row)
        if not 0 <= row < m + i:
            raise InvalidRow(f"--apply {spec}: row {row} outside 0..{m + i - 1}")
        steps.append((row, DisaggParams(int(t), int(modulus))))
    return steps


def _analyze_scenarios(args, system):
    """Yield scenario chains [(row, DisaggParams), ...]; the last step labels each."""
    if args.apply:
        for spec in args.apply:
            yield _parse_apply(spec, system.m)
        return
    if not 0 <= args.row < system.m:
        raise InvalidRow(f"--row {args.row} outside 0..{system.m - 1}")
    if args.all_jumps:
        row_a = list(system.A[args.row])
        row_b = system.b[args.row]
        if args.limit is not None:
            points = []
            for jp in iter_jump_points((row_a, row_b)):
                points.append(jp)
                if len(points) >= args.limit:
                    break
        else:
            points = enumerate_jump_points((row_a, row_b))
        for jp in points:
            r = jp.value
            yield [(args.row, DisaggParams(r.numerator, r.denominator))]
        return
    if args.t_range is None or args.modulus is None:
        raise ValueError("need --t-range with --modulus, or --all-jumps, or --apply")
    lo, hi = args.t_range.split("..", 1)
    for t in range(int(lo), int(hi) + 1):
        if 0 < t < args.modulus:
            yield [(args.row, DisaggParams(t, args.modulus))]


def _augment(system, steps):
    """The system after a scenario's chained disaggregations.

    Returns None when an ideal t (no k bits) leaves as many equations as
    unknowns.
    """
    aug = system
    for row, params in steps:
        built = build_disaggregated(aug, row, params)
        try:
            aug = built.system
        except RankDeficient:
            # The derived row is a multiple of an existing one; the
            # constraint set is unchanged, so keep the system as is.
            continue
        except ValueError:
            return None
    return aug


def cmd_analyze(args) -> int:
    algo = ALGO_FLAGS[args.algo]
    if algo == "lo":
        # Every augmented system has m >= 2 equations; lo takes only one.
        print("error: --algo lo handles single equations only; analyze augments "
              "every system to two or more", file=sys.stderr)
        return EXIT_USAGE
    system, err = _load_or_exit(args.input)
    if err is not None:
        return err
    config = pipeline.SearchConfig(algo=algo)
    problem = _as_problem(system)

    try:
        baseline = pipeline.attack(problem, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KnapcrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSOLVED
    x_tilde = list(baseline.verdict.x) if baseline.verdict.status == SHORT_NONBINARY else None

    instance_id = Path(args.input).stem
    records = []
    try:
        scenarios = list(_analyze_scenarios(args, system))
        # A base row that cannot be disaggregated (negative entries, b above
        # the row sum) is bad input, not a per-scenario skip.
        for row in sorted({row for steps in scenarios for row, _ in steps
                           if row < system.m}):
            row_coeffs((system.A[row], system.b[row]))
    except SizeLimit as exc:
        print(f"error: {exc} (use --limit)", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, InvalidParams, InvalidRow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for steps in scenarios:
        label = steps[-1][1]
        aug = _augment(system, steps)
        if aug is None:
            print(f"skipped {label.t}/{label.M}: an ideal t leaves a square system",
                  file=sys.stderr)
            continue
        try:
            kd = decompose(aug, config.N, config.alpha)
        except EscalationExhausted as exc:
            print(f"skipped {label.t}/{label.M}: {exc}", file=sys.stderr)
            continue
        cut = x_tilde is not None and any(
            row < system.m and cuts_off((list(system.A[row]), system.b[row]),
                                        params.r, x_tilde)
            for row, params in steps)
        try:
            if algo in ("reduce", "reduce_half"):
                verdict = pipeline.attack_decomposed(aug, kd, algo)
            else:
                verdict = pipeline.run_algorithm(aug, config)
        except KnapcrackError:
            verdict = AttackVerdict(FAILURE)
        success = False
        if verdict.x is not None:
            head = list(verdict.x[:system.n])
            success = all(v in (0, 1) for v in head) and system.is_solution(head)
        records.append(analysis.FeatureRecord(
            instance_id=instance_id, m=system.m, n=system.n,
            t=label.t, M=label.M,
            features=analysis.compute_features(kd, cut=cut, success=success)))
    try:
        analysis.export_features_csv(records, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(records)} rows to {args.out}")
    return EXIT_SOLVED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"gen": cmd_gen, "attack": cmd_attack, "jumps": cmd_jumps,
               "bench": cmd_bench, "analyze": cmd_analyze}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
