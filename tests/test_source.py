"""Source hygiene: every module-level import in the package, the demos and
the tools is used."""

import ast
from pathlib import Path

import pytest

import poscocycle

# __init__.py is left out: its imports are the package's re-exports
MODULES = sorted(p for p in Path(poscocycle.__file__).parent.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("tools/*.py"))


def unused_imports(source):
    """(line, name) of each name bound by a module-level import and never read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_found():
    source = "import os\nimport numpy as np\nfrom .drivers import BLOCK_CELLS, choice_cdf\nnp.eye(choice_cdf)\n"
    assert unused_imports(source) == [(1, "os"), (3, "BLOCK_CELLS")]


@pytest.mark.parametrize("path", MODULES + SCRIPTS,
                         ids=lambda p: p.name if p in MODULES else f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
