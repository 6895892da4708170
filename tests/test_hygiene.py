"""Source hygiene: no module imports a name it never uses.

No linter ships with the project's toolchain, so this is a small AST scan:
an imported name is used when it appears as a name anywhere in the module,
the root of an attribute chain included.  Names inside quoted annotations
are not seen.  The package's ``__init__.py`` is skipped: its imports are
re-exports.
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
