"""The library keeps only what runs: every top-level function and class in
``src/knapcrack`` is referenced from ``src/`` or ``perfbench/`` outside its
own definition, each function takes one input shape, so no function
branches on the type of its input, and no handler catches every error.
Code that only tests use belongs in ``tests/oracles.py``.  The LLL kernel
keeps one Python loop: exactly one function in ``lattice`` holds the exchange
step; the C loop in ``_lll.c`` is its twin, and stays out of floating point
as the Python exact core does.
The CLI keeps one exit path: only ``cli.main`` turns an error into an exit code,
and it handles ValueError only where it parses a flag or a grid line, so a
ValueError from the library is a usage error only when it is an InvalidInput.
No module reads the environment: the CPU affinity is the one control of
every parallel path.

A reference is a name or attribute lookup, or a string constant equal to
the name (``perfbench/layers.py`` patches attributes by name, and
``__all__`` lists names); an import alone is not a use.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "knapcrack"
USERS = [ROOT / "src", ROOT / "perfbench"]


def _referenced_names(node) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names[sub.value] += 1
    return names


def unreferenced_definitions() -> list[str]:
    """``module.name`` of every top-level def or class used nowhere else."""
    total = Counter()
    for base in USERS:
        for path in sorted(base.rglob("*.py")):
            total += _referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = _referenced_names(node)[node.name]
                if total[node.name] - own == 0:
                    unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_definition_has_a_caller():
    unused = unreferenced_definitions()
    assert not unused, "no caller in src/ or perfbench/: " + ", ".join(unused)


def type_dispatches() -> list[str]:
    """``module.function`` of every function or method that calls isinstance or hasattr."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = {sub.func.id for sub in ast.walk(node)
                         if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)}
                if calls & {"isinstance", "hasattr"}:
                    found.append(f"{path.stem}.{node.name}")
    return found


def test_one_input_shape_per_function():
    assert type_dispatches() == []


BROAD = {"KnapcrackError", "Exception", "BaseException"}
# A bad job in a bench grid costs one row, not the whole run.
BROAD_CATCH_ALLOWED = {"pipeline._bench_one"}


def _catches_broadly(kind) -> bool:
    if kind is None:  # bare except
        return True
    names = kind.elts if isinstance(kind, ast.Tuple) else [kind]
    return any(getattr(name, "id", getattr(name, "attr", None)) in BROAD for name in names)


def broad_catches() -> list[str]:
    """``module.function`` of every handler for KnapcrackError, Exception or everything."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.split('.')[0]}.{child.name}")
                continue
            if isinstance(child, ast.ExceptHandler) and _catches_broadly(child.type):
                found.append(where)
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_no_broad_except():
    assert [where for where in broad_catches() if where not in BROAD_CATCH_ALLOWED] == []


def swapping_functions(path) -> set[str]:
    """Names of the functions in path that swap two items, ``x, y = y, x``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Assign) and isinstance(sub.targets[0], ast.Tuple)
                        and isinstance(sub.value, ast.Tuple)):
                    lhs = [ast.unparse(e) for e in sub.targets[0].elts]
                    rhs = [ast.unparse(e) for e in sub.value.elts]
                    if len(lhs) == 2 and lhs == rhs[::-1]:
                        found.add(node.name)
    return found


def test_one_lll_loop():
    # LLL's exchange step swaps two adjacent columns; _python_reduce is the
    # one Python loop that does it, and lll its one entry point.  Its one
    # twin is the C loop in _lll.c, held to it output for output and error
    # for error by tests/test_lattice.py::TestGmpKernel.
    assert len(swapping_functions(PACKAGE / "lattice.py")) == 1


def returns_from_except(path) -> list[str]:
    """Names of the functions in path that return from inside an except clause."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            handlers = [sub for sub in ast.walk(node) if isinstance(sub, ast.ExceptHandler)]
            if any(isinstance(sub, ast.Return) for h in handlers for sub in ast.walk(h)):
                found.append(node.name)
    return found


def test_one_exit_path():
    # Commands raise; main alone maps an error to its EXIT_* code and stderr
    # line, through one table.
    assert returns_from_except(PACKAGE / "cli.py") == ["main"]


def value_error_handlers(path) -> list[str]:
    """Names of the functions in path with a handler that names ValueError."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            kinds = [sub.type for sub in ast.walk(node)
                     if isinstance(sub, ast.ExceptHandler) and sub.type is not None]
            if any(getattr(name, "id", None) == "ValueError"
                   for kind in kinds for name in ast.walk(kind)):
                found.append(node.name)
    return found


def test_value_errors_are_handled_only_where_text_is_parsed():
    # int() and Fraction() of a flag or a grid field raise ValueError; any
    # other ValueError reaching the CLI is a bug, or an InvalidInput for main.
    assert sorted(value_error_handlers(PACKAGE / "cli.py")) == [
        "_fraction_flag", "_limit_flag", "_parse_grid"]


EXACT_CORE = ["lattice", "intmat", "reduction", "formulations", "disagg", "problems"]
INEXACT_NAMES = {"float", "math", "numpy"}


def inexact_uses(path) -> list[str]:
    """``line: what`` for each true division, float literal, or float/math/numpy use."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        op = getattr(node, "op", None)
        if isinstance(op, ast.Div):
            found.append(f"{node.lineno}: true division")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in INEXACT_NAMES:
            found.append(f"{node.lineno}: {node.id}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""])
            found += [f"{node.lineno}: import {name}" for name in modules
                      if name.split(".")[0] in INEXACT_NAMES]
    return found


def test_exact_core_has_no_float():
    # Exactness is the contract: reduction, sweeps and verdicts stay in
    # ints and Fractions.  pipeline (density) and analysis (features) are
    # outside the core.
    found = {stem: inexact_uses(PACKAGE / f"{stem}.py") for stem in EXACT_CORE}
    assert {stem: uses for stem, uses in found.items() if uses} == {}


C_INEXACT = re.compile(r"\b(float|double)\b|\bmpf_|\bmpfr")


def test_c_loop_has_no_float():
    # The C LLL loop is in the exact core too: mpz_t only, no C floating
    # types and no GMP or MPFR floats.
    found = [f"{i}: {line.strip()}" for i, line in
             enumerate((PACKAGE / "_lll.c").read_text(encoding="utf-8").splitlines(), 1)
             if C_INEXACT.search(line)]
    assert found == []


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads() -> list[str]:
    """``module:line`` of each use of os.environ, os.getenv or their bytes forms."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [getattr(node, "attr", getattr(node, "id", None))])
            if ENVIRONMENT_READS.intersection(names):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_module_reads_the_environment():
    # How many processes bench and the DAG search run in follows the CPU
    # affinity alone (``taskset`` narrows it), not a variable.
    assert environment_reads() == []
