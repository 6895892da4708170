"""Source hygiene: no module imports a name it never uses, and no module
defines a private name it never uses.

No linter ships with the project's toolchain, so this is a small AST scan:
an imported name is used when it appears as a name anywhere in the module,
the root of an attribute chain included.  Names inside quoted annotations
are not seen.  The package's ``__init__.py`` is skipped: its imports are
re-exports.  A private module-level function, class or constant (one whose
name starts with ``_``, tuple assignments included) is used when its own
module loads it somewhere; other modules may reach it too, but a private
name only they read belongs with them.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for d in ("src/adgame", "scripts", "tests")
    for p in (ROOT / d).glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def _bound_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [n for elt in target.elts for n in _bound_names(elt)]
    return []


def unused_privates(source: str) -> list[str]:
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n for target in node.targets for n in _bound_names(target)]
        elif isinstance(node, ast.AnnAssign):
            names = _bound_names(node.target)
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in defined.items() if name not in loaded]


def test_scan_finds_an_unused_import_and_passes_used_ones():
    source = (
        "import numpy as np\n"
        "import os.path\n"
        "from typing import Sequence as Seq\n"
        "from math import sqrt, pi\n"
        "def f(x: Seq[int]):\n"
        "    return np.asarray(x) * sqrt(2) + os.path.sep\n"
    )
    assert unused_imports(source) == ["line 4: pi"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unloaded_private_and_passes_loaded_ones():
    source = (
        "_A, _B = 1, 2\n"
        "_C: int = 3\n"
        "PUBLIC = 4\n"
        "__all__ = ['PUBLIC']\n"
        "def _helper():\n"
        "    return _A\n"
        "class _Orphan:\n"
        "    pass\n"
        "def run(_B=None):\n"
        "    return _helper() + _C\n"
    )
    assert unused_privates(source) == ["line 1: _B", "line 7: _Orphan"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_privates(path):
    assert unused_privates(path.read_text(encoding="utf-8")) == []
