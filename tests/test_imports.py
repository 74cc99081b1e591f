"""Imports in src/coxfree: every module-level one is used, and none hides
inside a function body but numpy's.

Parses each module with ast: a name bound by an import at module level
(including under `if TYPE_CHECKING:`) must occur as a name somewhere in
the module.  __init__.py re-exports by importing and __future__ imports
bind no name, so both are exempt.  An import inside a function body is
allowed only for numpy in symbols.bilinear_gram and symbols.signature,
which keeps numpy off the import path and leaves no room for a deferred
import that works round an import cycle.
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


def _function_imports(module, tree):
    """(module, innermost enclosing function, imported module) for each
    import inside a function body."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if func is not None and isinstance(child, ast.Import):
                found.extend((module, func, a.name) for a in child.names)
            elif func is not None and isinstance(child, ast.ImportFrom):
                found.append((module, func, "." * child.level + (child.module or "")))
            visit(child, func)

    visit(tree, None)
    return found


def test_only_numpy_is_imported_in_a_function():
    found = []
    for module in sorted(p.name for p in SRC.glob("*.py")):
        found += _function_imports(module, ast.parse((SRC / module).read_text(encoding="utf-8")))
    assert sorted(found) == [("symbols.py", "bilinear_gram", "numpy"),
                             ("symbols.py", "signature", "numpy")]


def test_flags_an_import_in_a_function():
    tree = ast.parse("def f():\n    from .symbols import mask_nodes\n"
                     "    def g():\n        import numpy\n")
    assert _function_imports("m.py", tree) == [("m.py", "f", ".symbols"),
                                               ("m.py", "g", "numpy")]
