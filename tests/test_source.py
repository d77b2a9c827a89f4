"""Source hygiene: every import in the package, the demos, the tools and
the tests is used, at module level or inside a function, the package
imports no scipy module, every private name the package defines is read
somewhere, and every public name it defines is read outside the tests."""

import ast
from pathlib import Path

import pytest

import poscocycle

PACKAGE = sorted(Path(poscocycle.__file__).parent.glob("*.py"))
# __init__.py is left out: its imports are the package's re-exports
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("tools/*.py")) + sorted(ROOT.glob("tests/*.py"))
# the readers of public names: the package, demos, tools and bench scripts
USERS = MODULES + sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("tools/*.py")) + sorted(ROOT.glob("bench/*.py"))
# models offered to library users that only tests exercise
KEPT_FOR_USERS = ("CallableOdeModel", "SampledMatrixModel", "TypeKFlipModel")


def unused_imports(source):
    """(line, name) of each name bound by an import, at any level, and never
    read anywhere in the file."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in bound if name not in read)


def test_unused_imports_found():
    source = ("import os\nimport numpy as np\nfrom .drivers import BLOCK_CELLS, choice_cdf\nnp.eye(choice_cdf)\n"
              "def main():\n    import sys\n    from .odes import propagate\n    propagate()\n")
    assert unused_imports(source) == [(1, "os"), (3, "BLOCK_CELLS"), (6, "sys")]


@pytest.mark.parametrize("path", MODULES + SCRIPTS,
                         ids=lambda p: p.name if p in MODULES else f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def scipy_imports(source):
    """(line, module) of each import of a scipy module, at any level."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name.partition(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.partition(".")[0] == "scipy":
            found.append((node.lineno, node.module))
    return sorted(found)


def test_scipy_imports_found():
    source = ("import os\nimport scipy.linalg as sl\nfrom .stats import mean_ci\ndef f():\n"
              "    from scipy import stats\n    import numpy, scipy\n    from scipy.linalg import expm\n")
    assert scipy_imports(source) == [(2, "scipy.linalg"), (5, "scipy"), (6, "scipy"), (7, "scipy.linalg")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_no_scipy(path):
    # scipy is a test dependency only: the tests use it as an oracle
    assert scipy_imports(path.read_text()) == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def definitions(source):
    """(line, name) of each name a module binds at module level (imports
    aside) and of each method of its classes; class attributes, dataclass
    fields among them, are left out."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.lineno, t.id) for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(f.lineno, f.name) for f in node.body
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sorted(found)


def private_definitions(source):
    return [d for d in definitions(source) if _private(d[1])]


def names_read(source):
    """Every name a source reads, as a variable or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_dead_private_names_found():
    # an import is not a definition; storing to self._n does not read it
    source = ("import os as _os\n_A, _B = 1, 2\nPUBLIC = _A\n_C: int = 3\ndef _f():\n    return _os\n"
              "class _K:\n    def _m(self):\n        self._n = 1\n    def _n(self):\n        pass\n"
              "    def __init__(self):\n        self._m()\n        _f()\n")
    read = names_read(source)
    assert [d for d in private_definitions(source) if d[1] not in read] == [(2, "_B"), (4, "_C"), (7, "_K"),
                                                                             (10, "_n")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_private_names(path):
    read = set().union(*(names_read(p.read_text()) for p in PACKAGE + SCRIPTS))
    assert [d for d in private_definitions(path.read_text()) if d[1] not in read] == []


def dead_public_names(source, readers):
    """The public definitions of ``source`` that no source in ``readers``
    reads, by name.  A name read anywhere counts for every definition of
    it, so a member is missed when another object's attribute shares its
    name: ``EntireOrbit.value`` once hid behind bench's ``Check.value``."""
    read = set().union(*(names_read(r) for r in readers))
    return [d for d in definitions(source) if not d[1].startswith("_") and d[1] not in read]


def test_dead_public_names_found():
    # a definition does not read its own name; a name read only by the
    # tests is dead; a dataclass field is an output, not a definition
    source = ("import os\nLIMIT = 3\nUSED = 1\ndef helper():\n    return USED\ndef dead():\n    return helper()\n"
              "@dataclass\nclass Report:\n    value: float\n    def shown(self):\n        return self.value\n"
              "    def only_tested(self):\n        return os\n")
    user = "from pkg import Report\nReport(1.0).shown()\ndead\n"
    test = "Report(1.0).only_tested()\nLIMIT\n"
    assert dead_public_names(source, [source, user]) == [(2, "LIMIT"), (13, "only_tested")]
    assert dead_public_names(source, [source, user, test]) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_public_names_only_tests_read(path):
    dead = dead_public_names(path.read_text(), [p.read_text() for p in USERS])
    assert [d for d in dead if d[1] not in KEPT_FOR_USERS] == []
