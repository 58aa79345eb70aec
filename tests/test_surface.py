"""The library keeps only what runs: every top-level function and class in
``src/knapcrack`` is referenced from ``src/`` or ``perfbench/`` outside its
own definition.  Code that only tests use belongs in ``tests/oracles.py``.

A reference is a name or attribute lookup, or a string constant equal to
the name (``perfbench/layers.py`` patches attributes by name, and
``__all__`` lists names); an import alone is not a use.
"""

import ast
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
