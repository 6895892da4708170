"""README's Python API example runs as written, and its import list is
the package namespace."""
from __future__ import annotations

import ast
import re
from pathlib import Path
from types import ModuleType

import adgame

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_python_example_runs(capsys):
    exec(compile(python_block(), str(README), "exec"), {})
    assert "unblocked value" in capsys.readouterr().out


def test_package_namespace_is_the_readme_import_list():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(python_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "adgame"
        for alias in node.names
    }
    public = {
        name
        for name, value in vars(adgame).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == imported
