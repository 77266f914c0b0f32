"""Checks on the source of ``spidersim`` itself."""

import ast
from pathlib import Path

import pytest

import spidersim

MODULES = sorted(p for p in Path(spidersim.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree):
    """Each name an import statement binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert [(name, line) for name, line in imported_names(tree) if name not in read] == []
