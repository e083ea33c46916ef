"""Checks on the package source that stand in for a lint step.

Every module of the package uses each name it imports: a refactor that
moves a helper between modules easily leaves the old import behind
(``__init__`` is left out: it imports names to export them).  Every
module-level private name is read somewhere, no module imports a private
name of the runner, no package class is built through ``object.__new__``,
one function builds single-photon states in place, and only the record
builders switch an object's class, each to the class of the twin it fills.
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


def assigned(target, value):
    """``(target, value)`` per part that ``target = value`` binds, paired
    through tuples of equal length."""
    if (
        isinstance(target, ast.Tuple)
        and isinstance(value, ast.Tuple)
        and len(target.elts) == len(value.elts)
    ):
        for part, part_value in zip(target.elts, value.elts):
            yield from assigned(part, part_value)
    else:
        yield target, value


def twins(source: str) -> dict[str, str]:
    """The record class of each twin that ``source`` binds at module level,
    by the twin's name: ``_OpenX = _twin(X)``, also in a tuple assignment."""
    return {
        target.id: ast.unparse(value.args[0])
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        for whole in node.targets
        for target, value in assigned(whole, node.value)
        if isinstance(target, ast.Name)
        and isinstance(value, ast.Call)
        and ast.unparse(value.func) == "_twin"
    }


# The twin of every record, by name, across the package.
TWINS = {name: cls for path in MODULES for name, cls in twins(path.read_text()).items()}


def in_place_builds(node, records=TWINS):
    """``(function, class)`` per object built past ``__init__`` under
    ``node``: ``object.__new__(class)``, or a call of a twin of ``class``."""
    for scope, child in scoped_nodes(node):
        if isinstance(child, ast.Call):
            func = ast.unparse(child.func)
            if func == "object.__new__":
                yield scope, ast.unparse(child.args[0])
            elif func in records:
                yield scope, records[func]


def test_finds_an_in_place_build():
    source = (
        "_OpenA, _OpenB = _twin(A), _twin(B)\n"
        "x = object.__new__(A)\n"
        "def f():\n"
        "    _OpenB()\n"
        "    def g():\n"
        "        object.__new__(C)\n"
        "    _twin(D)\n"
    )
    found = twins(source)
    assert found == {"_OpenA": "A", "_OpenB": "B"}
    assert list(in_place_builds(ast.parse(source), found)) == [
        (None, "A"), ("f", "B"), ("g", "C")
    ]


def test_no_package_class_is_built_through_object_new():
    """A record is built past ``__init__`` only by filling its twin: no
    ``object.__new__`` of a class the package defines is left."""
    classes = {
        node.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }
    builds = [
        (path.name, scope, built)
        for path in MODULES
        for scope, built in in_place_builds(ast.parse(path.read_text()), records={})
        if built in classes
    ]
    assert builds == []


def test_one_function_builds_single_photon_states_in_place():
    """``measurement._silent_state`` is the one builder of a single
    photon's state past ``__init__``, through its twin: its checks run
    everywhere else."""
    builds = [
        (path.name, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, built in in_place_builds(ast.parse(path.read_text()))
        if built == "PolarizationState"
    ]
    assert builds == [("measurement.py", "_silent_state")]


def class_switches(node):
    """``(function, class)`` per store to a ``__class__`` attribute under
    ``node``, plain or through a ``setattr``, with the function around it;
    the class is None where the stored value cannot be read off the code."""
    values = {
        id(target): ast.unparse(value)
        for child in ast.walk(node)
        if isinstance(child, ast.Assign)
        for whole in child.targets
        for target, value in assigned(whole, child.value)
    }
    for scope, child in scoped_nodes(node):
        if (
            isinstance(child, ast.Attribute)
            and child.attr == "__class__"
            and isinstance(child.ctx, ast.Store)
        ):
            yield scope, values.get(id(child))
        elif isinstance(child, ast.Call) and ast.unparse(child.func).split(".")[-1] in (
            "setattr",
            "__setattr__",
        ):
            args = [ast.unparse(arg) for arg in child.args]
            if "'__class__'" in args:
                rest = args[args.index("'__class__'") + 1 :]
                yield scope, rest[0] if rest else None


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
        "    x.__class__, y = f()\n"
    )
    assert list(class_switches(ast.parse(source))) == [
        (None, "A"), ("g", "B"), ("f", "C"), ("h", "A"), ("h", None)
    ]


def by_function(pairs) -> dict:
    """``{(module, function): {class, ...}}`` of ``(module, function, class)`` triples."""
    found: dict = {}
    for module, scope, cls in pairs:
        found.setdefault((module, scope), set()).add(cls)
    return found


def test_only_the_leaf_builders_switch_a_class():
    """Each record builder fills the twin of one record class and switches
    it to that class: the event-tree leaves in ``montecarlo``, the
    single-photon states and outcomes in ``measurement`` and ``cascade``,
    and the pairs in ``epr``.  No other function sets a ``__class__``."""
    switches = by_function(
        (path.name, scope, cls)
        for path in MODULES
        for scope, cls in class_switches(ast.parse(path.read_text()))
    )
    assert switches == {
        ("montecarlo.py", "_leaf"): {"EventLeaf"},
        ("montecarlo.py", "_click_leaves"): {"EventLeaf"},
        ("measurement.py", "_outcome"): {"MeasurementOutcome"},
        ("measurement.py", "_silent_state"): {"PolarizationState"},
        ("cascade.py", "cascade_measure"): {"MeasurementOutcome"},
        ("epr.py", "_unit_pair"): {"PairState"},
    }
    builds = by_function(
        (path.name, scope, cls)
        for path in MODULES
        for scope, cls in in_place_builds(ast.parse(path.read_text()))
    )
    assert builds == switches


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
