"""Every module of the package uses each name it imports.

``__init__`` is left out: it imports names only to re-export them.
"""

import ast
from pathlib import Path

import pytest

import difftrap

PACKAGE = Path(difftrap.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name: line for name, line in _imported_names(tree).items() if name not in used
    }
    assert not unused, f"{module} imports names it never uses: {unused}"
