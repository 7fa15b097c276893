"""Every module-level import of a bassinv module is used in that module.

The package's __init__ only re-exports, so it is not checked.
"""

import ast

import pytest

from conftest import REPO

MODULES = sorted(path for path in (REPO / "src" / "bassinv").glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source):
    """The names that the top-level imports of `source` bind and that no
    expression in it reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_modules_are_found():
    assert {"cli.py", "polynomials.py", "singularity.py"} <= {
        path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,unused", [
    ("from fractions import Fraction\n", ["Fraction"]),
    ("import os.path\nos.path.join('a')\n", []),
    ("from . import kernel as k\nk.active()\n", []),
    ("import math\ndef f():\n    import sys\n    return math.pi\n", []),
    ("from math import gcd, lcm\nlcm(2, 3)\n", ["gcd"]),
])
def test_unused_imports_reads_the_names_bound(source, unused):
    assert unused_imports(source) == unused
