"""Every name a superlie module imports is used in that module, and every
_private function or method it defines is referenced somewhere in the
package: a deletion that leaves its import or its helper behind fails
here.  The check reads the source with the standard library's ast, so it
runs wherever the tests do."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "superlie"


def imported_names(tree):
    """{name bound by an import: its line}, __future__ imports aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return names


def used_names(tree):
    """Every name the module reads: loads, the names inside quoted
    annotations, and the strings of __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
            annotations = []
        else:
            annotations = []
        for a in filter(None, annotations):
            for c in ast.walk(a):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    used |= used_names(ast.parse(c.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: imported and never used: {unused}"


def test_finds_an_unused_import():
    # the check itself: a name used only in a quoted annotation counts,
    # one never used does not
    tree = ast.parse("from typing import List, Optional\nimport numpy as np\n"
                     "def f(x: 'Optional[int]') -> int:\n    return x\n")
    used = used_names(tree)
    assert sorted(n for n in imported_names(tree) if n not in used) == \
        ["List", "np"]


def private_defs(tree):
    """{name: line} of the _private functions a module defines at its top
    level and of the _private methods of its top-level classes, dunders
    aside."""
    defs = {}
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for f in body:
            if (isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and f.name.startswith("_")
                    and not (f.name.startswith("__")
                             and f.name.endswith("__"))):
                defs[f.name] = f.lineno
    return defs


def referenced_names(tree):
    """Every name the module reads, and every attribute it reads."""
    return used_names(tree) | {node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute)}


def test_no_unreferenced_private_helpers():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    referenced = set().union(*map(referenced_names, trees.values()))
    unused = {f"{name}:{line}": helper
              for name, tree in trees.items()
              for helper, line in private_defs(tree).items()
              if helper not in referenced}
    assert not unused, f"defined and never referenced: {unused}"


def test_finds_an_unreferenced_helper():
    # the check itself: a helper read as a name or as an attribute counts,
    # a dunder is exempt, one never read does not count
    tree = ast.parse("def _used():\n    pass\n"
                     "def _unused():\n    pass\n"
                     "class C:\n    def __init__(self):\n        self._m()\n"
                     "    def _m(self):\n        _used()\n"
                     "    def _dead(self):\n        pass\n")
    assert sorted(n for n in private_defs(tree)
                  if n not in referenced_names(tree)) == ["_dead", "_unused"]
