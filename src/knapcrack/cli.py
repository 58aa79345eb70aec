"""Command-line surface: gen, attack, jumps, bench, analyze.

Exit codes: 0 solved / done, 1 attack did not produce a binary solution
(for bench: some job raised and was counted unsolved).  Commands raise on
errors, and main maps each error to its exit code and stderr line through
one table, EXITS: 1 N escalation exhausted, 2 refused input (InvalidInput),
3 I/O failure, 4 malformed or missing input file, 5 enumeration cap exceeded.
Rational flags (alpha, t/M ratios) are written P/Q; decimals
are rejected to keep exactness-critical parameters exact.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import pipeline
from .disagg import DisaggParams, cuts_off, is_ideal, jump_points, modular_transform, row_coeffs
from .errors import (EscalationExhausted, InvalidInput, InvalidRow, ParseError, SearchExhausted,
                     SizeLimit)
from .formulations import FAILURE, SHORT_NONBINARY, AttackVerdict, decompose
from .lattice import DEFAULT_ALPHA
from .problems import load_system, normalize, save_system

EXIT_SOLVED = 0
EXIT_UNSOLVED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_CAP = 5

ALGO_FLAGS = {"reduce": "reduce", "reduce-half": "reduce_half", "lo": "lo",
              "cjloss": "cjloss", "ahl": "ahl"}
DAG_FIELDS = {"1": True, "true": True, "True": True, "0": False, "false": False,
              "False": False}
_INT = r"([+-]?\d+)"
T_RANGE = re.compile(rf"{_INT}\.\.{_INT}")  # --t-range A..B
APPLY_STEP = re.compile(rf"{_INT}:{_INT}/{_INT}")  # one ROW:T/M step of --apply


def _fraction_flag(text: str) -> Fraction:
    if "/" not in text:
        raise argparse.ArgumentTypeError(f"write rationals as P/Q, got {text!r}")
    num, den = text.split("/", 1)
    try:
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _limit_flag(text: str) -> int:
    try:
        limit = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if limit < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {limit}")
    return limit


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="knapcrack",
                                  description="Lattice attacks with modular disaggregation")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate seeded instances/systems")
    gen.add_argument("--m", type=int, default=1)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--count", type=_limit_flag, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    atk = sub.add_parser("attack", help="run one lattice attack on a file")
    atk.add_argument("--algo", choices=sorted(ALGO_FLAGS), required=True)
    atk.add_argument("--input", required=True)
    atk.add_argument("--dag", action="store_true")
    atk.add_argument("--modulus", type=int, default=None)
    atk.add_argument("--t-max", type=int, default=None)
    atk.add_argument("--row", type=int, default=None, help="row to disaggregate (with --dag)")
    atk.add_argument("--alpha", type=_fraction_flag, default=DEFAULT_ALPHA)
    atk.add_argument("--bign", type=int, default=None)
    atk.add_argument("--json", action="store_true")

    jumps = sub.add_parser("jumps", help="list jump points of an instance")
    jumps.add_argument("--input", required=True)
    jumps.add_argument("--limit", type=_limit_flag, default=None)

    ben = sub.add_parser("bench", help="run a benchmark grid")
    ben.add_argument("--grid", required=True)
    ben.add_argument("--out", required=True)
    ben.add_argument("--no-timing", action="store_true")

    ana = sub.add_parser("analyze", help="kernel features per disaggregation scenario")
    ana.add_argument("--input", required=True)
    ana.add_argument("--out", required=True)
    ana.add_argument("--row", type=int, default=None,
                     help="row to disaggregate (default 0; not with --apply)")
    ana.add_argument("--algo", choices=sorted(ALGO_FLAGS), default="reduce")
    ana.add_argument("--modulus", type=int, default=None)
    mode = ana.add_mutually_exclusive_group()
    mode.add_argument("--t-range", default=None, metavar="A..B")
    mode.add_argument("--all-jumps", action="store_true")
    mode.add_argument("--apply", action="append", default=[], metavar="ROW:T/M[,ROW:T/M...]",
                      help="one chained scenario per flag occurrence")
    ana.add_argument("--limit", type=_limit_flag, default=None,
                     help="first LIMIT jump points (with --all-jumps)")
    return top


class MissingInput(Exception):
    """An input or grid file that does not exist (exit 4, unlike a missing output's 3)."""


def _read_input(load, path: str):
    """load(path) of an input or grid file.

    A missing file raises MissingInput, and bytes that are not UTF-8 raise
    ParseError, like any other malformed input.
    """
    try:
        return load(path)
    except FileNotFoundError as exc:
        raise MissingInput(exc) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from exc


def cmd_gen(args) -> int:
    pipeline.check_shape(args.m, args.n)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for idx in range(args.count):
        seed = args.seed + idx
        if args.m == 1:
            gen = pipeline.generate_instance(args.n, seed)
            system = gen.instance
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
    print(f"wrote {args.count} files + manifest to {args.out}")
    return EXIT_SOLVED


def cmd_attack(args) -> int:
    system = _read_input(load_system, args.input)
    algo = ALGO_FLAGS[args.algo]
    modulus = pipeline.default_modulus(system.n) if args.modulus is None else args.modulus
    t_max = pipeline.SearchConfig.t_max if args.t_max is None else args.t_max
    t0 = time.perf_counter()
    exhausted = False
    try:
        config = pipeline.SearchConfig(
            algo=algo, use_dag=args.dag, M=modulus, t_max=min(t_max, modulus - 1),
            alpha=args.alpha, N=pipeline.SearchConfig.N if args.bign is None else args.bign,
            row_index=args.row or 0)
        outcome = pipeline.attack(system, config)
    except SearchExhausted as exc:
        exhausted = True
        outcome = pipeline.AttackOutcome(
            exc.best if exc.best is not None
            else AttackVerdict(FAILURE, meta={"algorithm": algo}))
    wall_time = time.perf_counter() - t0
    v, t_found = outcome.verdict, outcome.t_found
    if args.json:
        print(json.dumps({"verdict": v.to_dict(), "dag_used": exhausted or t_found is not None,
                          "t_found": t_found, "wall_time": wall_time}, sort_keys=True))
    else:
        print(f"status: {v.status}")
        if v.x is not None:
            print("solution: " + ("" if v.solved else " ").join(str(i) for i in v.x))
        if t_found is not None:
            print(f"t_found: {t_found}")
        print(f"wall_time_ms: {wall_time * 1000:.3f}")
    return EXIT_SOLVED if outcome.solved else EXIT_UNSOLVED


def cmd_jumps(args) -> int:
    system = _read_input(load_system, args.input)
    if system.m != 1:
        raise InvalidInput(f"jumps takes a single-equation file, got {system.m} equations")
    problem = (list(system.A[0]), system.b[0])
    for jp in jump_points(problem, args.limit):
        r = jp.value
        params = DisaggParams(r.numerator, r.denominator)
        img = modular_transform(*problem, params)
        srcs = ",".join(sorted(jp.sources))
        print(f"{r}\t{srcs}\tu_k={img.u_k}\tn_k={img.n_k}\tideal={is_ideal(problem, params)}")
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
            try:
                m, n, M, t_max, count, seed = (int(toks[i]) for i in (0, 1, 4, 5, 6, 7))
                pipeline.check_shape(m, n)
            except ValueError as exc:
                raise ParseError(f"grid line {lineno}: {exc}") from None
            if count < 1:
                raise ParseError(f"grid line {lineno}: count must be at least 1, got {count}")
            algo = ALGO_FLAGS.get(toks[2], toks[2])
            if algo not in pipeline.ALGORITHMS:
                raise ParseError(f"grid line {lineno}: unknown algorithm {toks[2]!r}")
            if toks[3] not in DAG_FIELDS:
                raise ParseError(f"grid line {lineno}: dag must be one of "
                                 f"{', '.join(DAG_FIELDS)}, got {toks[3]!r}")
            dag = DAG_FIELDS[toks[3]]
            try:
                pipeline.SearchConfig(algo=algo, use_dag=dag, M=M, t_max=t_max)
            except ValueError as exc:
                raise ParseError(f"grid line {lineno}: {exc}") from None
            if algo == "lo" and m != 1:
                raise ParseError(f"grid line {lineno}: lo handles single equations "
                                 f"only, got m={m}")
            cells.append(pipeline.BenchCell(m=m, n=n, algo=algo, dag=dag, M=M,
                                            t_max=t_max, count=count, seed=seed))
    return cells


def cmd_bench(args) -> int:
    cells = _read_input(_parse_grid, args.grid)
    rows = pipeline.bench(cells)
    text = pipeline.bench_csv(rows, timing=not args.no_timing)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {len(rows)} rows to {args.out}")
    failures = [(row.cell, seed, message) for row in rows for seed, message in row.errors]
    for c, seed, message in failures:
        print(f"error: cell m={c.m} n={c.n} algo={c.algo} dag={int(c.dag)} M={c.M} "
              f"t_max={c.t_max} seed={seed} counted unsolved: {message}", file=sys.stderr)
    return EXIT_UNSOLVED if failures else EXIT_SOLVED


def _parse_apply(spec: str, m: int) -> list[tuple[int, DisaggParams]]:
    """Steps of one ROW:T/M[,ROW:T/M...] chain over an m-row system.

    Step i may name a row derived by an earlier step, so its row lies in
    0..m+i-1.  Raises InvalidRow or InvalidParams on a bad step, and
    InvalidInput on a step not written ROW:T/M.
    """
    steps = []
    for i, part in enumerate(spec.split(",")):
        match = APPLY_STEP.fullmatch(part)
        if match is None:
            raise InvalidInput(f"--apply expects ROW:T/M[,ROW:T/M...], got {spec!r}")
        row, t, modulus = map(int, match.groups())
        if not 0 <= row < m + i:
            raise InvalidRow(f"--apply {spec}: row {row} outside 0..{m + i - 1}")
        steps.append((row, DisaggParams(t, modulus)))
    return steps


def _analyze_scenarios(args, system):
    """Yield scenario chains [(row, DisaggParams), ...]; the last step labels each."""
    if args.apply:
        for spec in args.apply:
            yield _parse_apply(spec, system.m)
        return
    row = args.row or 0
    if not 0 <= row < system.m:
        raise InvalidRow(f"--row {row} outside 0..{system.m - 1}")
    if args.all_jumps:
        for jp in jump_points((list(system.A[row]), system.b[row]), args.limit):
            r = jp.value
            yield [(row, DisaggParams(r.numerator, r.denominator))]
        return
    if args.t_range is None or args.modulus is None:
        raise InvalidInput("need --t-range with --modulus, or --all-jumps, or --apply")
    match = T_RANGE.fullmatch(args.t_range)
    if match is None:
        raise InvalidInput(f"--t-range expects A..B, got {args.t_range!r}")
    lo, hi = map(int, match.groups())
    ts = range(max(lo, 1), min(hi, args.modulus - 1) + 1)
    if not ts:
        raise InvalidInput(f"--t-range {args.t_range} holds no t with 0 < t < {args.modulus}")
    for t in ts:
        yield [(row, DisaggParams(t, args.modulus))]


def cmd_analyze(args) -> int:
    from . import analysis  # numpy; every other command starts without it

    system = _read_input(load_system, args.input)
    scenarios = list(_analyze_scenarios(args, system))
    # A base row that cannot be disaggregated (negative entries, b above
    # the row sum) is bad input, not a per-scenario skip.
    for row in sorted({row for steps in scenarios for row, _ in steps if row < system.m}):
        row_coeffs((system.A[row], system.b[row]))
    algo = ALGO_FLAGS[args.algo]
    config = pipeline.SearchConfig(algo=algo)
    baseline = pipeline.attack(system, config)
    x_tilde = list(baseline.verdict.x) if baseline.verdict.status == SHORT_NONBINARY else None

    # Augment the system attack --dag augments, so success at t is its verdict at t.
    work, flipped = normalize(system)
    instance_id = Path(args.input).stem
    records = []
    for steps in scenarios:
        label = steps[-1][1]
        aug, reason = pipeline.augment(work, steps)
        if aug is None:
            print(f"skipped {label.t}/{label.M}: {reason}", file=sys.stderr)
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
        if algo in ("reduce", "reduce_half"):
            verdict = pipeline.attack_decomposed(aug, kd, algo)
        else:
            verdict = pipeline.run_algorithm(aug, config)
        success = pipeline.map_back(system, verdict, flipped).solved
        records.append(analysis.FeatureRecord(
            instance_id=instance_id, m=system.m, n=system.n,
            t=label.t, M=label.M,
            features=analysis.compute_features(kd, cut=cut, success=success)))
    analysis.export_features_csv(records, args.out)
    print(f"wrote {len(records)} rows to {args.out}")
    return EXIT_SOLVED


def _modulus_below_two(args) -> bool:
    return args.modulus is not None and args.modulus < 2


# The flags each command refuses before it reads its input, in the order
# they are checked: (refused(args), message formatted with the flags).
FLAG_CHECKS = {
    "attack": [
        (_modulus_below_two, "--modulus must be at least 2, got {modulus}: the DAG search "
                             "needs 0 < t_max < M"),
        (lambda a: a.row is not None and not a.dag,
         "--row is read only by the DAG search; it needs --dag"),
        (lambda a: a.modulus is not None and not a.dag,
         "--modulus is read only by the DAG search; it needs --dag"),
        (lambda a: a.t_max is not None and not a.dag,
         "--t-max is read only by the DAG search; it needs --dag"),
        (lambda a: a.bign is not None and a.algo in ("lo", "ahl"),
         "--bign is read only by reduce, reduce-half and cjloss; --algo {algo} ignores it"),
    ],
    "analyze": [
        # Every augmented system has m >= 2 equations; lo takes only one.
        (lambda a: a.algo == "lo", "--algo lo handles single equations only; analyze "
                                  "augments every system to two or more"),
        (_modulus_below_two, "--modulus must be at least 2, got {modulus}: no t satisfies "
                             "0 < t < M"),
        (lambda a: a.modulus is not None and a.t_range is None,
         "--modulus is the M of --t-range; it needs --t-range"),
        (lambda a: a.limit is not None and not a.all_jumps,
         "--limit caps the jump points of --all-jumps; it needs --all-jumps"),
        (lambda a: a.row is not None and a.apply,
         "--row does not apply with --apply, whose steps name their own rows"),
    ],
}

COMMANDS = {"gen": cmd_gen, "attack": cmd_attack, "jumps": cmd_jumps,
            "bench": cmd_bench, "analyze": cmd_analyze}

# What main reports for an error a command raises: the first row whose
# types include the error's gives the exit code and the stderr line.
# Anything else is a bug and ends in a traceback.
EXITS = [
    ((ParseError,), EXIT_PARSE, "parse error: {}"),
    ((MissingInput,), EXIT_PARSE, "error: {}"),
    ((SizeLimit,), EXIT_CAP, "error: {} (use --limit)"),
    ((EscalationExhausted,), EXIT_UNSOLVED, "error: {}"),
    ((OSError,), EXIT_IO, "error: {}"),
    ((InvalidInput,), EXIT_USAGE, "error: {}"),
]
REPORTED = tuple(kind for kinds, _, _ in EXITS for kind in kinds)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for refused, message in FLAG_CHECKS.get(args.command, ()):
            if refused(args):
                raise InvalidInput(message.format_map(vars(args)))
        return COMMANDS[args.command](args)
    except REPORTED as exc:
        code, line = next((code, line) for kinds, code, line in EXITS
                          if issubclass(type(exc), kinds))
        print(line.format(exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
