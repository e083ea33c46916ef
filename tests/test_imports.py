"""Every module of the package uses each name it imports.

The package has no lint step, and a refactor that moves a helper between
modules easily leaves the old import behind.  ``__init__`` is left out: it
imports names to export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "partial_eraser"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports, at any level, and never names again."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    source = (
        "from dataclasses import dataclass, field\n"
        "import os.path\n"
        "from typing import Iterable\n"
        "\n"
        "@dataclass\n"
        "class A:\n"
        "    x: Iterable\n"
    )
    assert unused_imports(source) == ["field", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []
