"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import doublesix

SOURCE = Path(doublesix.__file__).parent


def imported_names(tree):
    """(bound name, line) for each import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Names read anywhere, including quoted annotations and ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


def test_library_modules_have_no_unused_imports():
    modules = sorted(SOURCE.glob("*.py"))
    assert len(modules) >= 10
    found = {
        path.name: unused for path in modules if (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def test_the_unused_import_scan_sees_quoted_annotations_and_all():
    source = (
        "from fractions import Fraction\n"
        "from math import comb, lcm\n"
        "import os.path\n"
        "from .forms import TernaryForm\n"
        "__all__ = ['lcm']\n"
        "def f(x: 'TernaryForm') -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [("Fraction", 1), ("comb", 2)]
