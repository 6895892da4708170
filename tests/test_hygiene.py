"""Source hygiene: no module imports a name it never uses, no module
defines a private name it never uses, and no library or script module reads
another module's private name.

No linter ships with the project's toolchain, so this is a small AST scan:
an imported name is used when it appears as a name anywhere in the module,
the root of an attribute chain included.  Names inside quoted annotations
are not seen.  The package's ``__init__.py`` is skipped: its imports are
re-exports.  A private module-level function, class or constant (one whose
name starts with ``_``, tuple assignments included) is used when its own
module loads it somewhere; other modules may reach it too, but a private
name only they read belongs with them.  Files under ``src/adgame`` and
``scripts`` may not reach it at all: neither ``mod._x`` on an imported
module nor ``from mod import _x``.  Tests may, to patch or probe internals.
A public module-level name of the package must be read by a file under
``src/adgame``, ``scripts`` or ``perfbench``: loaded as a name or an
attribute, or imported by name, so a re-export in the package's
``__init__.py`` counts.  A name only tests read is not part of the program.
Likewise a public method or property of a package class must be read as an
attribute by one of those files.
``config`` is the settings leaf: of the package it imports only ``graph``
and ``mdp``, so the algorithm modules can import their defaults from it.
In ``mdp``, ``_walk`` is the only function that reads an attribute named
``edges``: every other reader of an action's edges takes its step entry.
In the library, ``mdp.route_actions`` is the only function that reads the
route tables ``into`` and ``sources``: every other reader of the routes
calls it.
A defaulted parameter of a private module-level function must be passed
by some of the module's calls of it but not by all: a default no call
overrides is a constant, and one every call overrides is dead.  A function
the module also reads other than as a callee, or calls with ``*`` or
``**`` arguments, is not judged.
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

LIBRARY_FILES = sorted(
    p for d in ("src/adgame", "scripts") for p in (ROOT / d).glob("*.py")
)
PACKAGE_MODULES = frozenset(p.stem for p in (ROOT / "src/adgame").glob("*.py"))
READER_FILES = sorted(
    p for d in ("src/adgame", "scripts", "perfbench") for p in (ROOT / d).glob("*.py")
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


def _module_level_names(tree: ast.Module):
    """(name, line) for every function, class and assignment target."""
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
            yield name, node.lineno


def unused_privates(source: str) -> list[str]:
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for name, line in _module_level_names(tree):
        if _private(name):
            defined.setdefault(name, line)
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in defined.items() if name not in loaded]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def read_names(source: str) -> set[str]:
    """Names loaded, attributes taken, and names imported by ``from``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
    return found


def unread_publics(source: str, read: set[str]) -> list[str]:
    return [
        f"line {line}: {name}"
        for name, line in _module_level_names(ast.parse(source))
        if not name.startswith("_") and name not in read
    ]


def foreign_privates(source: str) -> list[str]:
    """``from mod import _x``, and ``mod._x`` where ``mod`` names a module:
    one bound by ``import``, or a package module bound by ``from``."""
    tree = ast.parse(source)
    modules: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                if _private(a.name):
                    found.append(f"line {node.lineno}: import {a.name}")
                elif a.name in PACKAGE_MODULES:
                    modules.add(a.asname or a.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return sorted(found)


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


def idle_defaults(source: str) -> list[str]:
    """Defaulted parameters of private module-level functions that no call
    in the module passes, or that every call passes."""
    tree = ast.parse(source)
    funcs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _private(node.name)
    }
    calls: dict[str, list[ast.Call]] = {name: [] for name in funcs}
    callees = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in calls:
                calls[node.func.id].append(node)
                callees.add(node.func)
    judged = set(funcs) - {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in funcs and node not in callees
    }
    found = []
    for name in sorted(judged, key=lambda n: funcs[n].lineno):
        args, sites = funcs[name].args, calls[name]
        if not sites or any(
            isinstance(x, ast.Starred) for c in sites for x in c.args
        ) or any(k.arg is None for c in sites for k in c.keywords):
            continue
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        defaulted = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
        defaulted += [
            (p.arg, None)
            for p, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None
        ]
        for arg, index in defaulted:
            passed = [
                (index is not None and len(c.args) > index)
                or any(k.arg == arg for k in c.keywords)
                for c in sites
            ]
            if not any(passed):
                found.append(f"line {funcs[name].lineno}: {name}({arg}) never passed")
            elif all(passed):
                found.append(f"line {funcs[name].lineno}: {name}({arg}) always passed")
    return found


def test_scan_finds_idle_defaults_and_passes_used_ones():
    source = (
        "def _seed(seed, stream, index=0):\n"
        "    return seed, stream, index\n"
        "def _draw(n, scale=1.0, *, dtype=None):\n"
        "    return n * scale, dtype\n"
        "def _escaped(x, y=1):\n"
        "    return x + y\n"
        "def _starred(x, y=1):\n"
        "    return x + y\n"
        "def public(a=1):\n"
        "    return a\n"
        "def run(xs):\n"
        "    hook = _escaped\n"
        "    return (\n"
        "        _seed(1, 2), _seed(3, stream=4), _draw(2, 3.0),\n"
        "        _draw(1, scale=2.0, dtype=int), _escaped(1), _starred(*xs),\n"
        "        public(), hook,\n"
        "    )\n"
    )
    assert idle_defaults(source) == [
        "line 1: _seed(index) never passed",
        "line 3: _draw(scale) always passed",
    ]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_idle_defaults(path):
    assert idle_defaults(path.read_text(encoding="utf-8")) == []


def test_scan_finds_foreign_privates_and_passes_own_ones():
    source = (
        "import os.path\n"
        "import adgame.simulate as sim\n"
        "from . import pipeline\n"
        "from .mdp import _key, State\n"
        "def _mine(self):\n"
        "    return self._memo, State._x, os.__name__, pipeline.run_baseline\n"
        "x = sim._settle, pipeline._persist, os.path._joinrealpath\n"
    )
    assert foreign_privates(source) == [
        "line 4: import _key",
        "line 7: os.path._joinrealpath",
        "line 7: pipeline._persist",
        "line 7: sim._settle",
    ]


@pytest.mark.parametrize("path", LIBRARY_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_foreign_privates(path):
    assert foreign_privates(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unread_public_name_and_passes_read_ones():
    source = (
        "A, B = 1, 2\n"
        "C: int = 3\n"
        "_D = 4\n"
        "def used():\n"
        "    return A\n"
        "def reexported():\n"
        "    pass\n"
        "class Orphan:\n"
        "    pass\n"
        "def run():\n"
        "    return mod.C\n"
    )
    reader = "from .mod import reexported\nfrom .mod import used as u\nu()\n"
    read = read_names(source) | read_names(reader)
    assert unread_publics(source, read) == [
        "line 1: B",
        "line 8: Orphan",
        "line 10: run",
    ]


@pytest.fixture(scope="module")
def program_reads():
    return set().union(*(read_names(p.read_text(encoding="utf-8")) for p in READER_FILES))


@pytest.mark.parametrize(
    "path", [p for p in FILES if p.parent.name == "adgame"], ids=lambda p: p.name
)
def test_no_unread_public_names(path, program_reads):
    assert unread_publics(path.read_text(encoding="utf-8"), program_reads) == []


def read_attributes(source: str) -> set[str]:
    tree = ast.parse(source)
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def unread_methods(source: str, read: set[str]) -> list[str]:
    """Public methods and properties of the module's classes that no
    attribute in ``read`` names."""
    return [
        f"line {node.lineno}: {cls.name}.{node.name}"
        for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]


def test_scan_finds_an_unread_method_and_passes_read_ones():
    source = (
        "class A:\n"
        "    def __call__(self):\n"
        "        return self._own()\n"
        "    def _own(self):\n"
        "        return self.used\n"
        "    @property\n"
        "    def used(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def width(self):\n"
        "        return 2\n"
        "    def called(self):\n"
        "        return 3\n"
        "def orphan():\n"
        "    return A().called()\n"
        "class B:\n"
        "    @classmethod\n"
        "    def build(cls):\n"
        "        return cls()\n"
    )
    reader = "from .mod import build\nx = width\n"
    read = read_attributes(source) | read_attributes(reader)
    assert unread_methods(source, read) == ["line 10: A.width", "line 18: B.build"]


@pytest.fixture(scope="module")
def program_attributes():
    return set().union(
        *(read_attributes(p.read_text(encoding="utf-8")) for p in READER_FILES)
    )


@pytest.mark.parametrize(
    "path", [p for p in FILES if p.parent.name == "adgame"], ids=lambda p: p.name
)
def test_no_unread_methods(path, program_attributes):
    assert unread_methods(path.read_text(encoding="utf-8"), program_attributes) == []


def package_imports(source: str) -> set[str]:
    """The package modules a module imports, relatively or as ``adgame.x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                found.add(node.module.split(".")[0])
            elif node.level:
                found.update(a.name for a in node.names)
            elif node.module and node.module.split(".")[0] == "adgame":
                parts = node.module.split(".")
                found.update(parts[1:2] or [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(
                a.name.split(".")[1]
                for a in node.names
                if a.name.startswith("adgame.")
            )
    return found


def test_scan_finds_every_form_of_package_import():
    source = (
        "import numpy\n"
        "import adgame.kernel\n"
        "from . import pipeline\n"
        "from .mdp import MEMO_LIMIT\n"
        "from adgame import simulate\n"
        "from adgame.graph import Edge\n"
    )
    assert package_imports(source) == {"kernel", "pipeline", "mdp", "simulate", "graph"}


def test_config_imports_only_graph_and_mdp():
    source = (ROOT / "src/adgame/config.py").read_text(encoding="utf-8")
    assert package_imports(source) == {"graph", "mdp"}


def attribute_readers(source: str, attrs: set[str]) -> list[str]:
    """The innermost function around each read of an attribute named in
    ``attrs``, ``<module>`` outside any function."""
    readers = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr in attrs:
                readers.append(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return readers


def test_scan_finds_every_reader_of_edges():
    source = (
        "n = len(g.edges)\n"
        "def one(t):\n"
        "    return t.edges[0]\n"
        "class C:\n"
        "    def two(self, t):\n"
        "        return [e for e in t.step_masks.edges]\n"
        "def three(t):\n"
        "    return t.edge\n"
    )
    assert attribute_readers(source, {"edges"}) == ["<module>", "one", "two"]


def test_only_walk_reads_edges_in_mdp():
    source = (ROOT / "src/adgame/mdp.py").read_text(encoding="utf-8")
    assert attribute_readers(source, {"edges"}) == ["_walk"]


def test_only_route_actions_reads_the_route_tables():
    tables = {"into", "sources"}
    readers = {
        p.name: set(attribute_readers(p.read_text(encoding="utf-8"), tables))
        for p in LIBRARY_FILES
    }
    assert {name: r for name, r in readers.items() if r} == {"mdp.py": {"route_actions"}}
