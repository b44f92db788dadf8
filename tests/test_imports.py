"""Every name a library module imports is used in that module, and every
private module-level name, and every function of the private helper
modules ``_poly`` and ``_modp``, is read somewhere in the library.  The
helper modules run on ``int`` only, so they import nothing from
``fractions``.  Brackets and cross products of points have one routine,
in ``plane``, and the modules that take them bind no rational
``determinant`` or ``inverse``."""

import ast
from collections import Counter
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


def private_definitions(tree):
    """(name, defining statement) for each private name bound at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def references(node):
    """Names read in ``node``: loaded names, attribute names and names
    imported from another module."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def function_definitions(tree):
    """(name, defining statement) for each function defined at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node


def unreferenced(sources, definitions):
    """(module, name) for each name that ``definitions(module, tree)`` yields
    for a module of ``sources``, a {module: source} mapping, and that no code
    outside its own definition reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    counts = Counter(name for tree in trees.values() for name in references(tree))
    return [
        (module, name)
        for module, tree in trees.items()
        for name, node in definitions(module, tree)
        if counts[name] == Counter(references(node))[name]
    ]


def unreferenced_private_names(sources):
    return unreferenced(sources, lambda module, tree: private_definitions(tree))


#: The private helper modules, every function of which the library must read.
HELPER_MODULES = ("_poly.py", "_modp.py")


def unreferenced_helper_functions(sources):
    return unreferenced(
        sources,
        lambda module, tree: function_definitions(tree) if module in HELPER_MODULES else (),
    )


def test_every_private_library_name_is_used_in_the_library():
    sources = {path.name: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    assert len(sources) >= 10
    assert unreferenced_private_names(sources) == []


def test_the_private_name_scan_sees_other_modules_and_ignores_self_reference():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_unused: int = 0\n"
            "def _loop(n):\n"
            "    return _loop(n - 1) if n else _LIMIT\n"
            "def _helper():\n"
            "    return 1\n"
            "class _Hidden:\n"
            "    pass\n"
        ),
        "b.py": "from .a import _helper\nimport a\nx = a._Hidden\n",
    }
    assert unreferenced_private_names(sources) == [("a.py", "_unused"), ("a.py", "_loop")]


def test_every_helper_module_function_is_used_in_the_library():
    sources = {path.name: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    assert set(HELPER_MODULES) <= set(sources)
    assert unreferenced_helper_functions(sources) == []


def test_the_helper_function_scan_sees_other_modules_and_only_helper_modules():
    sources = {
        "_poly.py": (
            "def ptrim(p):\n"
            "    return p\n"
            "def pmul(a, b):\n"
            "    return ptrim(a)\n"
            "def peval(p, x):\n"
            "    return peval(p, x)\n"
        ),
        "_modp.py": "from ._poly import ptrim\ndef frac_mod(x, p):\n    return x\n",
        "forms.py": "from . import _modp\ndef unused():\n    return _modp.SCREEN_PRIMES\n",
    }
    assert unreferenced_helper_functions(sources) == [
        ("_poly.py", "pmul"),
        ("_poly.py", "peval"),
        ("_modp.py", "frac_mod"),
    ]


def fraction_imports(source):
    """Lines that import the ``fractions`` module or a name from it."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "fractions"
        or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
    ]


def test_helper_modules_import_nothing_from_fractions():
    found = {
        name: lines
        for name in HELPER_MODULES
        if (lines := fraction_imports((SOURCE / name).read_text()))
    }
    assert found == {}


def test_the_fraction_import_scan_sees_both_import_forms():
    source = (
        "from fractions import Fraction\n"
        "import math, fractions\n"
        "def f():\n"
        "    from fractions import Fraction as F\n"
        "    return F\n"
        "from math import gcd\n"
    )
    assert fraction_imports(source) == [1, 2, 4]


#: The bracket routines, which only ``plane`` may define.
BRACKET_ROUTINES = ("_bracket", "_cross")
#: Modules that take brackets, and the rational routines they must not bind.
BRACKET_MODULES = ("association.py", "coble.py", "lattice.py", "plane.py")
RATIONAL_ROUTINES = ("determinant", "inverse")


def defined_names(tree):
    """(name, line) for each function, class or assigned name, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno


def bracket_violations(sources):
    """(module, name, line) for each bracket routine defined outside ``plane``,
    and each rational routine that a bracket module defines or imports
    (under any name)."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        imported = [
            (alias.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        ]
        for name, line in defined_names(tree):
            if name in BRACKET_ROUTINES and module != "plane.py":
                found.append((module, name, line))
        if module in BRACKET_MODULES:
            found += [
                (module, name, line)
                for name, line in [*defined_names(tree), *imported]
                if name in RATIONAL_ROUTINES
            ]
    return sorted(found)


def test_only_plane_takes_brackets():
    sources = {path.name: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    assert set(BRACKET_MODULES) <= set(sources)
    assert bracket_violations(sources) == []


def test_the_bracket_scan_sees_definitions_imports_and_aliases():
    sources = {
        "plane.py": "from .linalg import determinant\ndef _cross(u, v):\n    return u\n",
        "coble.py": "from .plane import _bracket\nfrom .linalg import inverse as inv\n",
        "lattice.py": "def f():\n    from .linalg import determinant\n    return determinant\n",
        "association.py": "_cross = None\n",
        "torsion.py": "from .linalg import inverse\ndef _bracket(u, v, w):\n    return 0\n",
    }
    assert bracket_violations(sources) == [
        ("association.py", "_cross", 1),
        ("coble.py", "inverse", 2),
        ("lattice.py", "determinant", 2),
        ("plane.py", "determinant", 1),
        ("torsion.py", "_bracket", 2),
    ]
