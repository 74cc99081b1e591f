"""Every module-level import in src/coxfree is used in its module.

Parses each module with ast: a name bound by an import at module level
(including under `if TYPE_CHECKING:`) must occur as a name somewhere in
the module.  __init__.py re-exports by importing and __future__ imports
bind no name, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "coxfree"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _module_level(body):
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            yield from _module_level(node.body + node.orelse)


def _unused_imports(tree):
    bound = []
    for node in _module_level(tree.body):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_modules_found():
    assert "symbols.py" in MODULES and "involutions.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def test_flags_an_unused_import():
    tree = ast.parse("import math\nfrom typing import List, Tuple\nx: List = []\n")
    assert _unused_imports(tree) == ["math", "Tuple"]
