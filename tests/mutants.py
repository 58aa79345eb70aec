"""Committed mutants: small faults in the source that named tests must catch.

Run from anywhere; it runs every mutant:

    python tests/mutants.py

``MUTANTS`` lists each mutant as (file, old text, new text, pytest
arguments, time limit in seconds).  For each, the script copies ``src``,
``tests`` and ``pyproject.toml`` into a temporary directory, leaving out
the built C extension, and runs the mutant's tests there twice: on the
copy as it is, where they must pass, and with the one occurrence of the
old text replaced by the new, where they must fail within the limit.  A
failing test, or a crash of the interpreter, kills the mutant; a run that
passes, stops on an error of its own or times out leaves it alive.  An
edit of ``_lll.c`` changes the digest in the extension's file name
(``lattice._binary_name``), so the mutant runs on a binary built from its
own source; no binary is copied, so the clean run builds one too.

The script prints one line per mutant and exits non-zero when one is left
alive or its clean run fails.  Tier-1 does not collect it (its name does
not match ``test_*.py``); CI runs it in a step of its own.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str  # must occur exactly once in file
    new: str
    tests: tuple[str, ...]  # pytest arguments, from the root of the copy
    limit_s: int


LLL_C = "src/knapcrack/_lll.c"
LATTICE = "src/knapcrack/lattice.py"
LANES = "src/knapcrack/lanes.py"
FORMULATIONS = "src/knapcrack/formulations.py"
PIPELINE_TESTS = "tests/test_pipeline.py"

MUTANTS = {
    # The C sweep computes q but leaves the target as it was.
    "babai-skips-sub_column": Mutant(
        LLL_C,
        "        sub_multiple(s, s->lam[k], s->lam[j], j, s->gamma);\n"
        "        sub_column(s, s->cols + k, s->cols + j, s->gamma);\n",
        "        sub_multiple(s, s->lam[k], s->lam[j], j, s->gamma);\n",
        ("tests/test_reduction.py", "-k", "CSweep"), 300),
    # The C readers take vectors of any length, and read past a short one.
    "read_vectors-without-length-check": Mutant(
        LLL_C,
        "        if (PySequence_Fast_GET_SIZE(seq) != dim) {",
        "        if (0) {",
        ("tests/test_intmat.py", "tests/test_reduction.py", "-k", "CProducts or CSweep"), 300),
    # An int past a long is read as a word, so the value
    # PyLong_AsLongAndOverflow leaves (-1) is stored in its place.
    "read_word-reads-a-wide-int-as-a-word": Mutant(
        LLL_C,
        "    return overflow != 0;\n",
        "    return 0;\n",
        ("tests/test_lattice.py", "-k", "Gmp or ColumnWords"), 300),
    # An inner product of word vectors sums in __int128 without its overflow
    # check, so a sum past 2^127 wraps instead of going to GMP.
    "dot-without-overflow-check": Mutant(
        LLL_C,
        "            if (__builtin_add_overflow(acc, (__int128)a->w[r] * b->w[r], &acc))\n"
        "                break;\n",
        "            acc += (__int128)a->w[r] * b->w[r];\n",
        ("tests/test_lattice.py", "tests/test_intmat.py", "tests/test_reduction.py", "-k",
         "Gmp or ColumnWords or CSweep or CProducts or Products"), 300),
    # The C rounding takes a negative half tie up (-4.5 -> -4), not down.
    "round_nearest-negative-tie-up": Mutant(
        LLL_C,
        "        else if (m < 0 && -m >= y + m)\n",
        "        else if (m < 0 && -m > y + m)\n",
        ("tests/test_lattice.py", "tests/test_reduction.py", "-k", "Gmp or ColumnWords or CSweep"),
        300),
    # The exchange's second row update subtracts where it adds.
    "exchange-second-row-update-sign": Mutant(
        LLL_C,
        "s->old, 1, lkk",
        "s->old, -1, lkk",
        ("tests/test_lattice.py", "-k", "Gmp or ColumnWords"), 300),
    # The two-limb quotient's bound is loosened by three bits, so a quotient
    # of 128 - z bits passes it and sign-extends to a wrong, negative value.
    # Its two bits of slack make a loosening by one or two bits equivalent.
    "two_limb-bound-loosened": Mutant(
        LLL_C,
        "125 - dv->z",
        "128 - dv->z",
        ("tests/test_lattice.py", "-k", "TwoLimb"), 300),
    # The two-limb quotient multiplies the numerator by the odd part's
    # inverse without first shifting out the divisor's z trailing zeros.
    "two_limb-without-shift": Mutant(
        LLL_C,
        "(num >> dv->z) * dv->inv",
        "num * dv->inv",
        ("tests/test_lattice.py", "-k", "TwoLimb"), 300),
    # The exchange's second row update divides by d[k+1] with d[k]'s inverse.
    "exchange-divides-d_k1-with-d_k-inverse": Mutant(
        LLL_C,
        "d + k + 1, &dk1);",
        "d + k + 1, &dk);",
        ("tests/test_lattice.py", "-k", "TwoLimb"), 300),
    # word() reads a negative two-limb value as a word: its low limb, negated.
    "word-reads-a-negative-two-limb-value": Mutant(
        LLL_C,
        "    if (size > 1 || size < -1)\n",
        "    if (size > 1)\n",
        ("tests/test_lattice.py", "tests/test_reduction.py", "tests/test_intmat.py", "-k",
         "Gmp or ColumnWords or CSweep or CProducts"), 300),
    # two_limbs() reads a two-limb value as its low limb alone.
    "two_limbs-drops-the-high-limb": Mutant(
        LLL_C,
        "len == 2 ? (unsigned __int128)limb[1] << 64 | limb[0] : len ? limb[0] : 0",
        "len ? limb[0] : 0",
        ("tests/test_lattice.py", "tests/test_reduction.py", "-k", "Gmp or ColumnWords or CSweep"),
        300),
    # The exchange's word rows divide the second quotient by d[k+1] with d[k]'s
    # inverse.
    "exchange-word-rows-divide-d_k1-with-d_k-inverse": Mutant(
        LLL_C,
        "vl * x, &dk1);",
        "vl * x, &dk);",
        ("tests/test_lattice.py", "-k", "Gmp or ColumnWords"), 300),
    # The inline range's test is off by one, so +-2^127 are kept inline, where
    # they read as WIDE, the mark of a cell held in GMP.
    "inline-range-off-by-one": Mutant(
        LLL_C,
        "    if (mag >> 127)\n        return 0;\n",
        "    if (mag > (unsigned __int128)1 << 127)\n        return 0;\n",
        ("tests/test_lattice.py", "-k", "InlineGso"), 300),
    # A GMP result past the inline range goes into the cell's mpz_t, but the
    # cell is not marked WIDE, so it is read through its stale inline value.
    "wide-cell-read-through-its-stale-value": Mutant(
        LLL_C,
        "    *x = WIDE;\n    if (o == z)\n",
        "    if (o == z)\n",
        ("tests/test_lattice.py", "-k", "InlineGso"), 300),
    # An int past the inline range is read into a cell as its two words all
    # the same, so the sweep reads a kernel's d past 2^127 as an inline value.
    "sweep-reads-a-wide-d-as-inline": Mutant(
        LLL_C,
        "    if (!overflow && *x != WIDE)\n",
        "    if (*x != WIDE)\n",
        ("tests/test_lattice.py", "-k", "InlineGso and sweep"), 300),
    # The C sweep writes a wide target from its words, not from its mpz_t.
    "wide-sweep-target-from-words": Mutant(
        LLL_C,
        "        out = write_ints(s.cols + k, s.dim, PyList_New);",
        "        s.cols[k].wide = 0;\n        out = write_ints(s.cols + k, s.dim, PyList_New);",
        ("tests/test_reduction.py", "-k", "CSweep"), 300),
    # The even prefix's lam[i][j] go back to the input's scale by 2^(2 j z),
    # not 2^(2 (j + 1) z).
    "even-prefix-lam-rescaled-by-2jz": Mutant(
        LLL_C,
        "shift_cell(s, s->lam[i] + j, 2UL * (j + 1) * z);",
        "shift_cell(s, s->lam[i] + j, 2UL * j * z);",
        ("tests/test_lattice.py", "-k", "EvenPrefix"), 300),
    # The even prefix goes back to the input's scale after the first visit of
    # column r, which then meets columns 0..r-1 at scale one.
    "even-prefix-rescaled-after-the-first-visit-of-r": Mutant(
        LLL_C,
        "    status = reduce(s, 0, r, where);\n",
        "    status = reduce(s, 0, r < s->n ? r + 1 : r, where);\n",
        ("tests/test_lattice.py", "-k", "EvenPrefix"), 300),
    # The Python twins' update v - gamma * w subtracts w at gamma = -1.
    "python-update-gamma-minus-one-subtracts": Mutant(
        LATTICE,
        "    if gamma == -1:\n        return list(map(add, v, w))",
        "    if gamma == -1:\n        return list(map(sub, v, w))",
        ("tests/test_lattice.py", "-k", "unit_steps or TestGmpKernel"), 300),
    # The Python sweep picks its q's but leaves the target as it was.
    "python-sweep-keeps-its-target": Mutant(
        LATTICE,
        "            target = _sub_multiple(target, cols[j], q)\n",
        "",
        ("tests/test_reduction.py",), 300),
    # gso_row counts the first nonzero inner product into the zero prefix,
    # so the entry it stands for is read as 0.
    "gso_row-zero-prefix-off-by-one": Mutant(
        LATTICE,
        "    for u in g_row:\n        if u:\n            break\n        z += 1\n",
        "    for u in g_row:\n        z += 1\n        if u:\n            break\n",
        ("tests/test_lattice.py", "-k", "TestZeroPrefix"), 300),
    # The Python loop's exchange updates row i's entry k - 1 with - lkk * u.
    "python-exchange-second-row-update-sign": Mutant(
        LATTICE,
        "                li[k - 1] = (dnew * t + lkk * u) // dk1\n",
        "                li[k - 1] = (dnew * t - lkk * u) // dk1\n",
        ("tests/test_lattice.py", "-k", "unit_steps or TestGmpKernel"), 300),
    # The Python twins round a half tie up (4.5 -> 5), not down.
    "python-round_nearest-tie-up": Mutant(
        LATTICE,
        "    return -((den - 2 * num) // (2 * den))\n",
        "    return (2 * num + den) // (2 * den)\n",
        ("tests/test_lattice.py", "-k", "TestNearestInteger"), 300),
    # The contract compares only the first row of A*C with E.
    "contract-checks-one-row-of-a-c": Mutant(
        FORMULATIONS,
        "    if [row[s:e] for row in au] != list(map(list, kd.E)):\n",
        "    if au[0][s:e] != list(kd.E[0]):\n",
        ("tests/test_formulations.py", "-k", "TestContractProducts"), 300),
    # The cached identity heads leave out the gap's zero row, so AHL's basis
    # loses the row of N1.
    "heads-without-the-gap-row": Mutant(
        FORMULATIONS,
        "    zeros = (0,) * (n - 1 + gap)\n",
        "    zeros = (0,) * (n - 1)\n",
        ("tests/test_formulations.py", "-k", "formulation_bases_on_the_toy or ahl"), 300),
    # The zero-block test reads one tail entry too few, so a kernel column
    # whose first tail entry is not 0 is taken as a kernel vector.
    "zero-block-test-skips-a-tail-entry": Mutant(
        FORMULATIONS,
        "        if not any([any(c[n:]) for c in kernel]):\n",
        "        if not any([any(c[n + 1:]) for c in kernel]):\n",
        (PIPELINE_TESTS, "-k", "test_decompose_escalates_from_tiny_n"), 300),
    # E is the reduced tail, not divided by the N that scaled it.
    "e-not-divided-by-n_used": Mutant(
        FORMULATIONS,
        "                E=tuple(zip(*[[v // current for v in c[n:]] for c in rest])),\n",
        "                E=tuple(zip(*[c[n:] for c in rest])),\n",
        ("tests/test_formulations.py", "-k", "TestDecompose"), 300),
    # lll passes a start with a malformed Gram-Schmidt to the loops.
    "lll-without-start-gso-check": Mutant(
        LATTICE,
        "        if (basis.columns[:r] != start.columns or len(start.d) != r + 1\n"
        "                or any(d <= 0 for d in start.d) or len(start.lam) != r\n"
        "                or any(len(row) != i for i, row in enumerate(start.lam))):",
        "        if (basis.columns[:r] != start.columns or len(start.d) != r + 1\n"
        "                or len(start.lam) != r):",
        ("tests/test_lattice.py", "-k", "Resume"), 300),
    # A search is sent before the lane's records of the last one are read.
    "lane-search-sent-without-drain": Mutant(
        LANES,
        "    while _owed:  # the last search's records, up to its _DONE\n"
        "        _record()\n",
        "",
        (PIPELINE_TESTS, "-k", "test_stale_records_never_leak"), 300),
    # The lane answers a t that raised as a t that was not attacked.
    "lane-answers-a-raise-with-none": Mutant(
        LANES,
        "        except Exception:  # this process runs t again and raises it there\n"
        "            record = _NO_RECORD\n",
        "        except Exception:  # this process runs t again and raises it there\n"
        "            record = None\n",
        (PIPELINE_TESTS, "-k", "test_error_in_a_child_lane_surfaces_with_its_type"), 300),
    # A step that pickle refuses with AttributeError ends the search.
    "lane-send-catches-only-PicklingError": Mutant(
        LANES,
        "    except (pickle.PicklingError, AttributeError, TypeError):\n",
        "    except pickle.PicklingError:\n",
        (PIPELINE_TESTS, "-k", "test_a_step_that_does_not_pickle_runs_here"), 300),
}


def copy_tree(into: Path) -> None:
    """src, tests and pyproject.toml into the directory into, without built binaries."""
    skip = shutil.ignore_patterns("_lll_*", "__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", into)


def apply(mutant: Mutant, root: Path) -> None:
    path = root / mutant.file
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.file}: the old text occurs {found} times, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def run_tests(mutant: Mutant, root: Path) -> tuple[int | None, str]:
    """pytest on the mutant's arguments in root: its exit status (None past
    the limit, negative for a signal) and the last lines it printed."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=mutant.limit_s)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {mutant.limit_s} s"
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return proc.returncode, "\n".join(lines[-3:])


def verdict(mutant: Mutant) -> tuple[bool, str]:
    """(killed, what showed it) for one mutant, on a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="knapcrack_mutant_") as tmp:
        root = Path(tmp)
        copy_tree(root)
        status, tail = run_tests(mutant, root)
        if status != 0:
            return False, f"the tests do not pass without the mutant:\n{tail}"
        apply(mutant, root)
        status, tail = run_tests(mutant, root)
    # pytest exits with 1 when a test failed; a negative status is a crash
    return status is not None and (status == 1 or status < 0), tail


def main() -> int:
    alive = 0
    for name, mutant in MUTANTS.items():
        start = time.monotonic()
        killed, tail = verdict(mutant)
        alive += not killed
        print(f"{'killed' if killed else 'ALIVE '} {name} ({time.monotonic() - start:.0f} s)")
        print("    " + tail.replace("\n", "\n    "), flush=True)
    print(f"{len(MUTANTS) - alive} killed, {alive} alive")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
