"""Checks on the package source that stand in for a lint step.

Every module of the package uses each name it imports: a refactor that
moves a helper between modules easily leaves the old import behind
(``__init__`` is left out: it imports names to export them).  Every
module-level private name is read somewhere, no module imports a private
name of the runner, one function builds single-photon states in place, and
only the event-tree leaf builders switch an object's class.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "partial_eraser"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
# Every Python file that may read a private name of the package.
READERS = sorted(
    path for folder in (PACKAGE, ROOT / "tests", ROOT / "bench", ROOT / "scripts")
    for path in folder.glob("*.py")
)


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


def private_names(source: str) -> set[str]:
    """The ``_name``s (not dunders) that ``source`` binds at module level:
    assignment targets, functions and classes."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(source: str) -> set[str]:
    """The names that ``source`` loads, imports or reads as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_finds_a_dead_private_name():
    source = (
        "_A, _B = 1, 2\n"
        "_C: int = 3\n"
        "__all__ = []\n"
        "def _f():\n"
        "    return _A\n"
        "class _K:\n"
        "    _x = 1\n"
        "print(mod._C)\n"
    )
    assert private_names(source) - read_names(source) == {"_B", "_f", "_K"}


def test_every_private_name_is_read():
    """A module-level ``_name`` in the package that no file of the package,
    the tests, the bench or the scripts reads is dead code."""
    read = set().union(*(read_names(path.read_text()) for path in READERS))
    dead = [
        f"{path.stem}.{name}"
        for path in PACKAGE.glob("*.py")
        for name in sorted(private_names(path.read_text()) - read)
    ]
    assert dead == []


def private_imports(source: str, module: str) -> list[str]:
    """The ``_name``s that ``source`` imports from the package's ``module``."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, module), (0, f"partial_eraser.{module}"))
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_finds_a_private_import():
    source = (
        "from .montecarlo import _A, B\n"
        "from partial_eraser.montecarlo import _C\n"
        "from .polarization import _D\n"
        "from montecarlo import _E\n"
    )
    assert private_imports(source, "montecarlo") == ["_A", "_C"]


def test_no_module_imports_a_private_name_of_the_runner():
    """``montecarlo``'s private names (its fold, its prepared states, its
    sampler) are its own: every other module reads only its public API."""
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "montecarlo.py"
        and (names := private_imports(path.read_text(), "montecarlo"))
    }
    assert found == {}


def scoped_nodes(node, scope=None):
    """``(function, child)`` per node under ``node``, with the name of the
    innermost function around the child (None at module level)."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        yield from scoped_nodes(child, child.name if isinstance(child, ast.FunctionDef) else scope)


def in_place_builds(node):
    """``(function, class)`` per ``object.__new__(class)`` call under ``node``."""
    return (
        (scope, ast.unparse(child.args[0]))
        for scope, child in scoped_nodes(node)
        if isinstance(child, ast.Call) and ast.unparse(child.func) == "object.__new__"
    )


def test_one_function_builds_single_photon_states_in_place():
    """``measurement._silent_state`` is the one builder of a single
    photon's state past ``__init__``: its checks run everywhere else."""
    builds = [
        (path.name, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, built in in_place_builds(ast.parse(path.read_text()))
        if built == "PolarizationState"
    ]
    assert builds == [("measurement.py", "_silent_state")]


def class_switches(node):
    """The function around each store to a ``__class__`` attribute under
    ``node``, plain or through a ``setattr``."""
    return (
        scope
        for scope, child in scoped_nodes(node)
        if isinstance(child, ast.Attribute)
        and child.attr == "__class__"
        and isinstance(child.ctx, ast.Store)
        or isinstance(child, ast.Call)
        and ast.unparse(child.func).split(".")[-1] in ("setattr", "__setattr__")
        and any(isinstance(arg, ast.Constant) and arg.value == "__class__" for arg in child.args)
    )


def test_finds_a_class_switch():
    source = (
        "x.__class__ = A\n"
        "def f(x):\n"
        "    y = x.__class__\n"
        "    x.__class__.n = 1\n"
        "    def g():\n"
        "        object.__setattr__(x, '__class__', B)\n"
        "    setattr(x, '__class__', C)\n"
        "def h(x):\n"
        "    x.__class__, y = A, 1\n"
    )
    assert list(class_switches(ast.parse(source))) == [None, "g", "f", "h"]


def test_only_the_leaf_builders_switch_a_class():
    """``montecarlo._leaf`` and ``_click_leaves`` fill an ``_OpenLeaf`` and
    switch it to ``EventLeaf``; no other function sets a ``__class__``."""
    switches = {
        (path.name, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in class_switches(ast.parse(path.read_text()))
    }
    assert switches == {("montecarlo.py", "_leaf"), ("montecarlo.py", "_click_leaves")}


def number_type_imports(source: str) -> list[str]:
    """The ``numbers.Integral`` and ``numbers.Real`` that ``source``
    imports by name or reads through ``numbers``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "numbers":
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "numbers":
            found.append(node.attr)
    return [name for name in found if name in ("Integral", "Real")]


def test_finds_a_number_type_import():
    source = (
        "from numbers import Integral, Number\n"
        "import numbers\n"
        "isinstance(x, numbers.Real)\n"
        "from fractions import Fraction\n"
    )
    assert number_type_imports(source) == ["Integral", "Real"]


def test_only_polarization_tests_number_types():
    """``polarization._check_integer`` and ``_fraction`` are the one home of
    the integer and real-number rules: no other module tests
    ``isinstance(value, Integral)`` by hand."""
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "polarization.py" and (names := number_type_imports(path.read_text()))
    }
    assert found == {}
