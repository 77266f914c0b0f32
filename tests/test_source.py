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


def test_no_module_level_alias_over_a_spidersim_class():
    """No module binds a module-level name to a subscripted generic that
    names a class of ``spidersim`` (``_Start = Tuple[SimulationState, ...]``):
    ``typing`` caches such an alias, and the cache keeps every re-imported
    copy of the class alive. Annotations are not evaluated, so they may."""
    paths = sorted(Path(spidersim.__file__).parent.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    aliases = []
    for name, tree in trees.items():
        for statement in tree.body:
            if (isinstance(statement, (ast.Assign, ast.AnnAssign))
                    and isinstance(statement.value, ast.Subscript)):
                named = {node.id if isinstance(node, ast.Name) else node.attr
                         for node in ast.walk(statement.value)
                         if isinstance(node, (ast.Name, ast.Attribute))}
                aliases += [(name, statement.lineno, cls) for cls in sorted(named & classes)]
    assert aliases == []
