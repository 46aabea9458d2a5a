"""Every name a module of the package imports is used there.

A name counts as used when the module reads it (in code or in an
annotation); `__init__.py` imports to re-export, so there a name must be
listed in `__all__`.
"""

from __future__ import annotations

import ast

import pytest

from conftest import ROOT

MODULES = sorted((ROOT / "src" / "interstep").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.name == "__init__.py":
        used = exported_names(tree)
    else:
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}, f"{path.name} imports names it does not use (name: line)"
