"""No module of the package imports a name that it never uses, and no
private module-level function is left without a caller.

Checked with the stdlib ``ast`` only: a name bound by an import counts as
used when it occurs as a name anywhere else in the module (an attribute
chain ``a.b`` uses ``a``).  ``__init__.py`` re-exports what it imports, so
it is left out, and so are ``from __future__`` imports.  A module-level
``def _name`` counts as used when some module of the package names it (as
a name, an attribute or an imported name) outside its own definition.
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


def unused_private_functions(sources: dict[str, str]) -> list[str]:
    """The module-level ``def _name`` of ``sources`` (module name -> text)
    that no module references outside the definition itself."""
    defined, refs = [], {}  # name -> {(module, enclosing top-level def)}
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = stmt.name
                if owner.startswith("_") and not owner.startswith("__"):
                    defined.append((module, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                refs.setdefault(name, set()).add((module, owner))
    return [f"{module}.{name}" for module, name in defined
            if not refs.get(name, set()) - {(module, name)}]


def test_checker_reports_orphaned_private_functions():
    sources = {
        "a": "def _called():\n    return 1\n\ndef _recursive(n):\n    return _recursive(n)\n"
             "def _unused():\n    return _called()\n",
        "b": "from .a import _imported\nimport a\nprint(a._attr)\n",
        "c": "def _imported():\n    pass\n\ndef _attr():\n    pass\n\ndef __getattr__(n):\n    pass\n",
    }
    assert unused_private_functions(sources) == ["a._recursive", "a._unused"]


def test_no_orphaned_private_functions():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unused_private_functions(sources) == []
