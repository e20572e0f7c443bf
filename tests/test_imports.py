"""Every name a superlie module imports is used in that module: a deletion
that leaves its import behind fails here.  The check reads the source with
the standard library's ast, so it runs wherever the tests do."""

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
