"""Every name a module of minimal2 imports is read by that module.

Each module is parsed, not imported, so the check needs no linter.  A name
listed in the module's ``__all__`` counts as read: it is imported to be
re-exported.
"""

import ast
from pathlib import Path

import pytest

import minimal2

MODULES = sorted(Path(minimal2.__file__).parent.glob("*.py"))


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .report import COMMANDS, run\n"
              "from . import kernels\n"
              "__all__ = ['kernels']\n"
              "run(os.path)\n")
    assert unread_imports(source) == ["COMMANDS (line 3)"]
