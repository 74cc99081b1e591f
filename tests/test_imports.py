"""Imports and names in src/coxfree: every module-level import is used,
none hides inside a function body, and every module-level name is
mentioned somewhere besides its own definition.

Parses each module with ast: a name bound by an import at module level
(including under `if TYPE_CHECKING:`) must occur as a name somewhere in
the module.  __init__.py re-exports by importing and __future__ imports
bind no name, so both are exempt.  No import sits inside a function body,
which leaves no room for a deferred import that works round an import
cycle or hides a dependency from the import path.  A non-dunder name that a
module-level def, class or assignment binds must appear on some line of
src/, tests/ or perfbench/ other than the one that defines it; a name that
nothing mentions is dead code.  A public module-level def or class must
also have a user outside the tests: an ast Name or Attribute that refers
to it in some src/coxfree module other than __init__, or a word in
perfbench/*.py (the benchmark's tracer looks names up as strings).  A
docstring mention does not count, and neither does a test.  No module
reads a private name (one leading underscore, not a dunder) of another
coxfree module, either as alias._name or by `from .mod import _name`.
No module binds a module-level empty dict, list or set: such a name is a
hand-filled cache or registry, shared by every caller in the process.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "coxfree"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
ROOT = SRC.parent.parent


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


def test_no_import_in_a_function():
    found = []
    for module in sorted(p.name for p in SRC.glob("*.py")):
        found += _function_imports(module, ast.parse((SRC / module).read_text(encoding="utf-8")))
    assert found == []


def test_flags_an_import_in_a_function():
    tree = ast.parse("def f():\n    from .symbols import mask_nodes\n"
                     "    def g():\n        import numpy\n")
    assert _function_imports("m.py", tree) == [("m.py", "f", ".symbols"),
                                               ("m.py", "g", "numpy")]


def _lines_mentioning(texts):
    """Word -> number of lines, over all the texts, on which it occurs."""
    counts = Counter()
    for text in texts:
        for line in text.splitlines():
            counts.update(set(re.findall(r"\w+", line)))
    return counts


def _unmentioned(tree, mentions):
    """Non-dunder names bound at module level by a def, a class or an
    assignment that no line but their definition mentions."""
    names = []
    for node in _module_level(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names
            if not (name.startswith("__") and name.endswith("__")) and mentions[name] < 2]


def test_every_module_level_name_is_mentioned():
    files = [p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py")]
    mentions = _lines_mentioning(p.read_text(encoding="utf-8") for p in files)
    found = {}
    for p in sorted(SRC.glob("*.py")):
        names = _unmentioned(ast.parse(p.read_text(encoding="utf-8")), mentions)
        if names:
            found[p.name] = names
    assert found == {}


def test_flags_an_unmentioned_name():
    text = "X = 1\nY: int = 2\n__all__ = []\ndef f():\n    return Y\nclass C:\n    pass\n"
    assert _unmentioned(ast.parse(text), _lines_mentioning([text])) == ["X", "f", "C"]


def _public_defs(tree):
    """Module-level defs and classes whose names have no leading underscore."""
    return [node.name for node in _module_level(tree.body)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _references(trees):
    """Every name an ast Name or Attribute node of the trees refers to."""
    refs = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


def _without_user(tree, refs, words):
    return [name for name in _public_defs(tree) if name not in refs and name not in words]


def test_every_public_def_has_a_user():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    refs = _references(tree for name, tree in trees.items() if name != "__init__.py")
    words = set()
    for p in (ROOT / "perfbench").glob("*.py"):
        words.update(re.findall(r"\w+", p.read_text(encoding="utf-8")))
    found = {name: _without_user(tree, refs, words) for name, tree in trees.items()}
    assert {name: defs for name, defs in found.items() if defs} == {}


def test_flags_a_public_def_without_a_user():
    text = ("def used():\n    pass\n"
            "def traced():\n    pass\n"
            "def unused():\n    \"\"\"Mentions unused and used.\"\"\"\n"
            "class Unused:\n    pass\n"
            "class Holder:\n    pass\n"
            "def _private():\n    return used(), mod.Holder\n")
    tree = ast.parse(text)
    assert _without_user(tree, _references([tree]), {"traced"}) == ["unused", "Unused"]


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_reads(tree):
    """Sorted "module.name" or "alias.name" for each private name of another
    coxfree module that the tree imports or reads off a module alias.  An
    attribute of anything else, such as an instance's g._order, is not a
    module read."""
    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import mod [as alias]
                aliases.update(a.asname or a.name for a in node.names)
            else:
                found += [f"{node.module}.{a.name}" for a in node.names if _is_private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _is_private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    found = {p.name: _private_reads(ast.parse(p.read_text(encoding="utf-8")))
             for p in sorted(SRC.glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_flags_a_private_read():
    tree = ast.parse("from . import modtwo as m2\nfrom . import weyl\n"
                     "from .symbols import _walk, mask_nodes\n"
                     "def f(g):\n"
                     "    return m2._admissibility(g), weyl._cache, m2.admissible_nodes(g), "
                     "g._order, m2.__name__, mask_nodes\n")
    assert _private_reads(tree) == ["m2._admissibility", "symbols._walk", "weyl._cache"]


def _empty_containers(tree):
    """Names that a module-level assignment binds to an empty dict, list or
    set: {}, [], dict(), list() or set()."""
    def empty(value):
        if isinstance(value, ast.Dict):
            return not value.keys
        if isinstance(value, ast.List):
            return not value.elts
        return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set")
                and not value.args and not value.keywords)

    names = []
    for node in _module_level(tree.body):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None \
                and empty(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def test_no_module_level_empty_container():
    found = {p.name: _empty_containers(ast.parse(p.read_text(encoding="utf-8")))
             for p in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_flags_a_module_level_empty_container():
    tree = ast.parse("A = {}\nB: list = []\nC = dict()\nif True:\n    D = set()\n"
                     "E = list()\nF = {1: 2}\nG = [0]\nH = dict(a=1)\nI = set(range(3))\n"
                     "J: int\ndef f():\n    K = {}\n")
    assert _empty_containers(tree) == ["A", "B", "C", "D", "E"]
