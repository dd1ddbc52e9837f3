"""Every module-level import in the package is read in its module.

No linter ships with the package's toolchain, so this walks each module
of src/privebc (except __init__, whose imports are its public API) with
ast and fails on a name that an import binds and nothing reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "privebc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level import binds, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                names[name] = node.lineno
    return names


def _read_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_the_package_has_modules():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = _read_names(tree)
    unread = {name: line for name, line in _imported_names(tree).items() if name not in read}
    assert not unread, f"{path.name}: imported and never read: {unread}"


def test_an_unread_import_is_found():
    tree = ast.parse("import os\nfrom . import _kernels\nfrom x import y as z\nz()\n")
    names = _imported_names(tree)
    assert set(names) - _read_names(tree) == {"os", "_kernels"}
