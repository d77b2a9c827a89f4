"""Source hygiene: every import in the package, the demos, the tools and
the tests is used, at module level or inside a function."""

import ast
from pathlib import Path

import pytest

import poscocycle

# __init__.py is left out: its imports are the package's re-exports
MODULES = sorted(p for p in Path(poscocycle.__file__).parent.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("tools/*.py")) + sorted(ROOT.glob("tests/*.py"))


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
