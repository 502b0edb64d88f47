"""No module of the package imports a name that it never uses, and no
module-level function, class or assigned name, and no private method, is
left without a caller or reader.

Checked with the stdlib ``ast`` only: a name bound by an import counts as
used when it occurs as a name anywhere else in the module (an attribute
chain ``a.b`` uses ``a``).  ``__init__.py`` re-exports what it imports, so
it is left out, and so are ``from __future__`` imports.  A module-level
``def`` or ``class``, or a method ``def _name`` of a module-level class,
counts as used when some module of the package names it (as a name, an
attribute or an imported name, so a re-export from ``__init__.py`` counts)
outside its own definition.  A module-level name bound by assignment
(``X = ...``, ``X: T = ...``, or inside a tuple target) counts as used when
some module reads it outside its own assignment: a name that is only
assigned to, ``X += 1`` included, is not read.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "affinetl"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_reports_unused_names():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from .a import b, c as d\nprint(os.sep, d)\n")
    assert unused_imports(source) == ["sys (line 3)", "b (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _references(node, module: str, chain: frozenset, refs: dict):
    """Add every name under ``node`` to ``refs`` (name -> {(module, names
    of the definitions that enclose it)})."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _references(child, module, chain | {child.name}, refs)
            continue
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            refs.setdefault(child.id, set()).add((module, chain))
        elif isinstance(child, ast.Attribute):
            refs.setdefault(child.attr, set()).add((module, chain))
        elif isinstance(child, ast.alias):
            refs.setdefault(child.name, set()).add((module, chain))
        _references(child, module, chain, refs)


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """The module-level ``def``, ``class`` and assigned names and the private
    methods of module-level classes in ``sources`` (module name -> text)
    that no module references outside the definition itself."""
    defined, refs = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        _references(tree, module, frozenset(), refs)
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined.extend((module, node.id, node.id) for target in targets
                               for node in ast.walk(target) if isinstance(node, ast.Name)
                               and isinstance(node.ctx, ast.Store)
                               and not node.id.startswith("__"))
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not stmt.name.startswith("__"):
                defined.append((module, stmt.name, stmt.name))
            if isinstance(stmt, ast.ClassDef):
                defined.extend((module, f"{stmt.name}.{node.name}", node.name) for node in stmt.body
                               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                               and not node.name.startswith("__"))
    return [f"{module}.{label}" for module, label, name in defined
            if all(m == module and name in chain for m, chain in refs.get(name, ()))]


def test_checker_reports_orphaned_private_functions():
    sources = {
        "a": "def _called():\n    return 1\n\ndef _recursive(n):\n    return _recursive(n)\n"
             "def _unused():\n    return _called()\n",
        "b": "from .a import _imported\nimport a\nprint(a._attr)\n",
        "c": "def _imported():\n    pass\n\ndef _attr():\n    pass\n\ndef __getattr__(n):\n    pass\n",
    }
    assert unused_definitions(sources) == ["a._recursive", "a._unused"]


def test_checker_reports_orphaned_classes_functions_and_private_methods():
    sources = {
        "__init__": "from .a import Exported\n",
        "a": "class Exported:\n    pass\n\nclass Unused:\n    def make(self):\n"
             "        return Unused()\n\ndef public():\n    pass\n\nclass Used:\n"
             "    def run(self):\n        return self._helper() + public()\n"
             "    def _helper(self):\n        return 1\n    def _unused(self):\n        return 2\n"
             "    def _recursive(self):\n        return self._recursive()\n"
             "    def __repr__(self):\n        return ''\n",
        "b": "from .a import Used\nUsed().run()\n",
    }
    assert unused_definitions(sources) == ["a.Unused", "a.Used._unused", "a.Used._recursive"]


def test_checker_reports_unread_assigned_names():
    sources = {
        "a": "_READ = 1\n_UNREAD = 2\n_A, (_B, _C) = 1, (2, 3)\n_ANN: int = _READ\n"
             "_BUMPED = 0\n_BUMPED += 1\n__version__ = '1'\n"
             "def run():\n    return _B\n",
        "b": "from .a import _C, run\nimport a\nprint(a._ANN, run())\n",
    }
    assert unused_definitions(sources) == ["a._UNREAD", "a._A", "a._BUMPED"]


def test_no_orphaned_private_functions():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unused_definitions(sources) == []
