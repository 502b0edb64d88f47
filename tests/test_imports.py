"""No module of the package imports a name that it never uses.

Checked with the stdlib ``ast`` only: a name bound by an import counts as
used when it occurs as a name anywhere else in the module (an attribute
chain ``a.b`` uses ``a``).  ``__init__.py`` re-exports what it imports, so
it is left out, and so are ``from __future__`` imports.
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
